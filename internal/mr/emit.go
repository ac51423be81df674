package mr

import "encoding/binary"

// A map task's byte arena is a list of chunks that double in size:
// arenaFirst for the first, arenaChunk from the seventh on (a record
// larger than the chunk due gets one of its own size). Most map tasks
// emit a few kilobytes of encoded records and many only a few hundred
// bytes, so a task holds at most about twice what it wrote, whatever it
// wrote (CHANGES.md, PR 23, has the ladders measured). The arena is
// grow-only: a full chunk is kept as it is and a fresh one is started, so
// emitting allocates nothing per record. Each chunk — a rung of the
// ladder — is charged to the run's budget when the task opens it — the
// arena is one of the three accounted allocation sites of the
// memory-governance contract — and its size is a function of the bytes
// the task emitted and nothing else, never of the schedule, so neither is
// the charge.
//
// A staged map task opens its rungs from its worker's free list
// (poolCtx.rungs), run-scoped like the shuffle's staging buffer, and a
// rung is charged on every opening, fresh or reused. When the task ends
// it copies its records into one chunk of exactly their length (seal),
// which the rung charges cover, and gives the rungs back: that chunk is
// the task's result, then its shuffle partition. A one-reducer task's
// chunks are its record set's buffers until it ends, so it and Sample
// open fresh rungs and keep them. A one-reducer task maps all of its
// splits onto one ladder, the next split filling the chunk the last one
// left: it maps them one after another in declared order, so its
// charges are a function of the bytes its splits emit, in that order,
// and nothing else. Its arena holds each record's payload and each
// distinct key once, written by the record that makes the key's entry
// (enter): the key's other records take it from there.
const (
	arenaFirst = 1 << 10
	arenaChunk = 1 << 16
	arenaRungs = 6 // doublings from arenaFirst to arenaChunk
)

// Emit outputs one record: payload, of type tag and modelled size, under
// key, opening the next chunk of the ladder when the current one cannot
// hold it. See Emitter for the ownership and accounting rules.
//
// In a map task the record gets its wire header (spill.go). Nearly every
// record's key length, payload length and modelled size are each below
// 0x80, so each is one uvarint byte: Emit then writes the header, tag
// included, with one four-byte append — the bytes the uvarint encoder
// writes, and those readRecord decodes without its varint loop — and
// takes the three uvarint appends only past that. In a one-reducer task
// (grouped set) the record is entered (enter).
func (e *Emitter) Emit(key []byte, tag byte, size int64, payload []byte) {
	size += keyBytes(key) // the one place a record's modelled size is fixed
	if e.grouped != nil {
		e.enter(key, tag, size, payload)
		return
	}
	var loc *keyLoc
	made := false
	if e.keys != nil { // packing
		if loc, made = e.keys.entry(e.chunks, key); made {
			e.keyed++
		} else {
			size -= keyBytes(key)
		}
	}
	e.records++
	e.bytes += size
	need := len(key) + len(payload)
	small := uint64(len(key))|uint64(len(payload))|uint64(size) < 0x80 // the header is four bytes: three one-byte uvarints and the tag
	if small {
		need += 4
	} else {
		need += uvarintLen(uint64(len(key))) + uvarintLen(uint64(len(payload))) + uvarintLen(uint64(size)) + 1
	}
	last := len(e.chunks) - 1
	if last < 0 || need > cap(e.chunks[last])-len(e.chunks[last]) {
		e.chunks = append(e.chunks, e.open(min(len(e.chunks), arenaRungs), need))
		last++
	}
	b := e.chunks[last]
	if small {
		b = append(b, byte(len(key)), byte(len(payload)), byte(size), tag)
	} else {
		b = binary.AppendUvarint(b, uint64(len(key)))
		b = binary.AppendUvarint(b, uint64(len(payload)))
		b = binary.AppendUvarint(b, uint64(size))
		b = append(b, tag)
	}
	if made {
		loc.src, loc.off, loc.klen = uint32(last), uint32(len(b)), uint32(len(key))
	}
	b = append(b, key...)
	e.chunks[last] = append(b, payload...)
}

// enter is Emit in a one-reducer task: the record is entered as the
// reduce task's gather would enter it, into the task's record array
// with its key group, the key found or made in the task's key set,
// which spans every split the task holds. That array entry is the
// record's only header, written field by field into its slot: the
// arena gets the record's payload bytes and, when the record makes its
// key's entry, the key's bytes before them, once for the task — nothing
// reads a later record's key, which is its group's. A key is charged
// with its first record in the split when the job packs, as a map task's
// own key set charges it: stamps holds, at the index of a key group's
// first record, the last split that emitted under the key.
func (e *Emitter) enter(key []byte, tag byte, size int64, payload []byte) {
	loc, made := e.keys.entry(e.chunks, key)
	if e.firstInSplit(loc, made) {
		e.keyed++
	} else {
		size -= keyBytes(key)
	}
	e.records++
	e.bytes += size
	need := len(payload)
	if made {
		need += len(key)
	}
	last := len(e.chunks) - 1
	if last < 0 || need > cap(e.chunks[last])-len(e.chunks[last]) {
		e.chunks = append(e.chunks, e.open(min(len(e.chunks), arenaRungs), need))
		last++
	}
	b := e.chunks[last]
	if made {
		loc.src, loc.off, loc.klen = uint32(last), uint32(len(b)), uint32(len(key))
		b = append(b, key...)
	}
	off := uint32(len(b))
	e.chunks[last] = append(b, payload...)
	recs := *e.grouped
	n := len(recs)
	if n == cap(recs) { // past the task's estimate: double, as the stamps do, from eight when empty
		recs = append(make([]record, 0, max(2*n, 8)), recs...)
	}
	recs = recs[:n+1]
	r := &recs[n]
	r.size, r.src, r.off, r.klen, r.plen, r.group, r.tag = size, uint32(last), off, uint32(len(key)), uint32(len(payload)), loc.first, tag
	*e.grouped = recs
}

// open returns the arena's next chunk, rung n of the ladder, empty and
// charged: arenaFirst << n bytes, or need when a record needs more. A
// rung of the ladder's size comes from the worker's free list when the
// task has one and it holds such a rung.
func (e *Emitter) open(n, need int) []byte {
	size := max(arenaFirst<<n, need)
	if e.free != nil && size == arenaFirst<<n {
		if free := e.free[n]; len(free) > 0 {
			e.budget.charge(int64(size))
			e.free[n] = free[:len(free)-1]
			return free[len(free)-1][:0]
		}
	}
	return grabBytes(e.budget, size)[:0]
}

// seal ends a staged map task's arena: it copies the records into one
// chunk of exactly their length, gives every rung of the ladder's size
// back to the worker's free list, and returns the chunk.
func (e *Emitter) seal() []byte {
	n := 0
	for _, c := range e.chunks {
		n += len(c)
	}
	arena := make([]byte, 0, n)
	for i, c := range e.chunks {
		arena = append(arena, c...)
		if r := min(i, arenaRungs); cap(c) == arenaFirst<<r {
			e.free[r] = append(e.free[r], c)
		}
	}
	e.chunks = nil
	return arena
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
