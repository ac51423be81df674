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
//
// In a one-reducer task (grouped set) the record is entered as the
// reduce task's gather would enter it: appended to the task's record
// array with its key group, the key found or made in the task's key set,
// which spans every split the task holds. That array entry is the
// record's only header: the arena gets its key and payload bytes and
// nothing else, and nothing ever decodes it. A key is then charged with
// its first record in the split when the job packs, as a map task's own
// key set charges it: stamps holds, at the index of a key group's first
// record, the last split that emitted under the key.
func (e *Emitter) Emit(key []byte, tag byte, size int64, payload []byte) {
	size += keyBytes(key) // the one place a record's modelled size is fixed
	var loc *keyLoc
	made := false
	if e.keys != nil { // packing, or a one-reducer task's grouping
		loc, made = e.keys.entry(e.chunks, key)
		first := made
		if e.grouped != nil {
			first = e.firstInSplit(loc, made)
		}
		if first {
			e.keyed++
		} else {
			size -= keyBytes(key)
		}
	}
	e.records++
	e.bytes += size
	need := len(key) + len(payload)
	if e.grouped == nil {
		need += uvarintLen(uint64(len(key))) + uvarintLen(uint64(len(payload))) + uvarintLen(uint64(size)) + 1
	}
	last := len(e.chunks) - 1
	if last < e.base || need > cap(e.chunks[last])-len(e.chunks[last]) {
		next := arenaChunk
		if n := len(e.chunks) - e.base; n < arenaRungs {
			next = arenaFirst << n
		}
		e.chunks = append(e.chunks, grabBytes(e.budget, max(next, need))[:0])
		last++
	}
	b := e.chunks[last]
	if e.grouped == nil {
		b = binary.AppendUvarint(b, uint64(len(key)))
		b = binary.AppendUvarint(b, uint64(len(payload)))
		b = binary.AppendUvarint(b, uint64(size))
		b = append(b, tag)
	}
	off := uint32(len(b))
	if made {
		loc.src, loc.off, loc.klen = uint32(last), off, uint32(len(key))
	}
	b = append(b, key...)
	e.chunks[last] = append(b, payload...)
	if e.grouped != nil {
		recs := *e.grouped
		if len(recs) == cap(recs) { // past the task's estimate: double, as the stamps do
			recs = append(make([]record, 0, 2*cap(recs)), recs...)
		}
		*e.grouped = append(recs, record{size: size, src: uint32(last), off: off,
			klen: uint32(len(key)), plen: uint32(len(payload)), group: loc.first, tag: tag})
	}
}

// firstInSplit reports whether a one-reducer task's split is to charge
// the key of loc — made by this Emit when made — with this record: the
// key's first record in the split when the job packs, every record when
// it does not. A new key's group starts at the record about to be
// appended; its stamp slot is grown with the record array.
func (e *Emitter) firstInSplit(loc *keyLoc, made bool) bool {
	if made {
		loc.first = int32(len(*e.grouped))
		e.stamps = cover(e.stamps, int(loc.first)+1)
	} else if !e.pack {
		return true
	} else if e.stamps[loc.first] == e.split {
		return false
	}
	e.stamps[loc.first] = e.split
	return true
}

// cover returns stamps with at least n entries: itself, extended to its
// capacity, or a copy in an array of twice that or n, whichever is more.
func cover(stamps []int32, n int) []int32 {
	if n <= len(stamps) {
		return stamps
	}
	if n <= cap(stamps) {
		return stamps[:cap(stamps)]
	}
	grown := make([]int32, max(2*cap(stamps), n))
	copy(grown, stamps)
	return grown
}
