package mr

// arenaChunk is the full size of one chunk of a map task's byte arena,
// and arenaLadder the sizes of a task's first chunks: most map tasks
// emit a few kilobytes of key and payload data, so the arena opens at
// 4 KiB and reaches arenaChunk with its third chunk (a record larger
// than the chunk due gets one of its own size). The arena is grow-only:
// a full chunk stays alive through the records that point into it and a
// fresh one is started, so emitting allocates nothing per record. Chunks
// are charged to the run's budget before use — the arena is one of the
// three accounted allocation sites of the memory-governance contract —
// and never recycled; their sizes are a function of the bytes the task
// emitted and nothing else, never of the schedule, so neither is the
// charge.
const arenaChunk = 1 << 16

var arenaLadder = [...]int{4 << 10, 16 << 10}

// Emit outputs one record: payload, of type tag and modelled size, under
// key, opening the next chunk of the ladder when the current one cannot
// hold it. See Emitter for the ownership and accounting rules.
func (e *Emitter) Emit(key []byte, tag byte, size int64, payload []byte) {
	size += KeyBytes(key) // the one place a record's modelled size is fixed
	if e.counting {
		e.records++
		e.bytes += size
		return
	}
	need := len(key) + len(payload)
	if len(e.set.bufs) == 0 || e.used+need > len(e.set.bufs[len(e.set.bufs)-1]) {
		size := arenaChunk
		if n := len(e.set.bufs); n < len(arenaLadder) {
			size = arenaLadder[n]
		}
		e.set.bufs = append(e.set.bufs, grabBytes(e.budget, max(size, need)))
		e.used = 0
	}
	src := len(e.set.bufs) - 1
	chunk := e.set.bufs[src]
	copy(chunk[e.used:], key)
	copy(chunk[e.used+len(key):], payload)
	e.set.recs = append(e.set.recs, record{
		size: size, src: uint32(src), off: uint32(e.used),
		klen: uint32(len(key)), plen: uint32(len(payload)), tag: tag,
	})
	e.used += need
}
