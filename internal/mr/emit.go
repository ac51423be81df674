package mr

import "encoding/binary"

// A map task's byte arena is a list of chunks that double in size:
// arenaFirst for the first, arenaChunk from the seventh on (a record
// larger than the chunk due gets one of its own size). Most map tasks
// emit a few kilobytes of encoded records and many only a few hundred
// bytes, so a task holds at most about twice what it wrote, whatever it
// wrote (CHANGES.md, PR 23, has the ladders measured). The arena is
// grow-only: a full chunk is kept as it is and a fresh one is started, so
// emitting allocates nothing per record. Chunks are charged to the run's
// budget before use — the arena is one of the three accounted allocation
// sites of the memory-governance contract — and never recycled; their
// sizes are a function of the bytes the task emitted and nothing else,
// never of the schedule, so neither is the charge.
const (
	arenaFirst = 1 << 10
	arenaChunk = 1 << 16
	arenaRungs = 6 // doublings from arenaFirst to arenaChunk
)

// Emit outputs one record: payload, of type tag and modelled size, under
// key, opening the next chunk of the ladder when the current one cannot
// hold it. See Emitter for the ownership and accounting rules.
func (e *Emitter) Emit(key []byte, tag byte, size int64, payload []byte) {
	size += keyBytes(key) // the one place a record's modelled size is fixed
	var fresh *keyLoc
	if e.keys != nil { // packing: a key is charged with its first record only
		loc, made := e.keys.entry(e.chunks, key)
		if made {
			fresh = loc
		} else {
			size -= keyBytes(key)
		}
	}
	e.records++
	e.bytes += size
	need := uvarintLen(uint64(len(key))) + uvarintLen(uint64(len(payload))) + uvarintLen(uint64(size)) +
		1 + len(key) + len(payload)
	last := len(e.chunks) - 1
	if last < 0 || need > cap(e.chunks[last])-len(e.chunks[last]) {
		next := arenaChunk
		if n := len(e.chunks); n < arenaRungs {
			next = arenaFirst << n
		}
		e.chunks = append(e.chunks, grabBytes(e.budget, max(next, need))[:0])
		last++
	}
	b := e.chunks[last]
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = binary.AppendUvarint(b, uint64(size))
	b = append(b, tag)
	if fresh != nil {
		*fresh = keyLoc{src: uint32(last), off: uint32(len(b)), klen: uint32(len(key))}
	}
	b = append(b, key...)
	e.chunks[last] = append(b, payload...)
}
