package mr

import (
	"bytes"
	"slices"
)

// record is one shuffle record — one message under one key — in the only
// form the engine moves it: a pointer-free reference to the key and
// payload bytes, stored adjacent (key first) in buffer src of the
// record's recordSet, plus the payload's type tag and the record's
// modelled size in bytes (key + payload). The size is fixed once, at
// emit, so every later phase sums a plain field; the collector has
// nothing to trace in a slice of records.
type record struct {
	size       int64
	src, off   uint32
	klen, plen uint32
	tag        byte
}

// recordSet is a slice of records with the byte buffers they point
// into: a map task's arena chunks, or the shuffle segments a reduce task
// gathered (taskPartition.appendTo). The buffers stay alive exactly as
// long as the set does.
type recordSet struct {
	bufs [][]byte
	recs []record
}

func (s *recordSet) key(i int) []byte {
	r := &s.recs[i]
	return s.bufs[r.src][r.off : r.off+r.klen]
}

func (s *recordSet) payload(i int) []byte {
	r := &s.recs[i]
	return s.bufs[r.src][r.off+r.klen : r.off+r.klen+r.plen]
}

// keyRef pairs a record index with the first eight bytes of its key,
// packed big-endian so uint64 order equals lexicographic order. Sorting
// keyRefs instead of records keeps the sort's data moves small and makes
// most comparisons (and every radix pass) operate on a register instead
// of the key bytes through a buffer lookup.
type keyRef struct {
	prefix uint64
	idx    int32
}

// keyPrefix packs up to the first eight bytes of key big-endian,
// zero-padded on the right.
func keyPrefix(key []byte) uint64 {
	n := len(key)
	if n > 8 {
		n = 8
	}
	var p uint64
	for i := 0; i < n; i++ {
		p |= uint64(key[i]) << (56 - 8*uint(i))
	}
	return p
}

// sortIndexByKey returns record indices ordered so that walking them
// visits keys in ascending byte order. Large inputs are sorted by an MSD
// radix sort over the key bytes; small inputs (and small radix buckets)
// fall back to a comparison sort on the packed key prefix (see
// radix.go). Both paths produce the same total key order — plain
// lexicographic byte order — and both are unstable within one key
// (duplicate-key runs collapse); arrival order within each run is
// restored afterwards with a cheap integer sort by the callers. The
// refs, the radix scatter scratch and the index itself are sc's: the
// result is valid, and the caller's to reorder, until sc's next sort.
func sortIndexByKey(sc *taskScratch, s *recordSet) []int32 {
	n := len(s.recs)
	size := n
	if n >= radixMinLen {
		size = 2 * n // refs plus the radix scatter scratch
	}
	buf := grow(&sc.refs, size)
	refs := buf[:n]
	for i := range refs {
		refs[i] = keyRef{prefix: keyPrefix(s.key(i)), idx: int32(i)}
	}
	if n < radixMinLen {
		sortRefs(s, refs)
	} else {
		msdRadix(s, refs, buf[n:], 0)
	}
	idx := grow(&sc.idx, n)
	for i, r := range refs {
		idx[i] = r.idx
	}
	return idx
}

// runEnd returns the end of the key run starting at idx[i].
func runEnd(s *recordSet, idx []int32, i int) int {
	key := s.key(int(idx[i]))
	j := i + 1
	for j < len(idx) && bytes.Equal(s.key(int(idx[j])), key) {
		j++
	}
	return j
}

// forEachGroup walks a sorted index (from sortIndexByKey) as key runs
// and calls fn once per distinct key, in ascending key order, with a
// view of the key's messages in arrival order. Grouping a whole
// partition allocates nothing beyond the index: the view is one Group
// re-pointed at each run — fn must not retain it (the engine's Reducer
// contract, see Reducer).
func forEachGroup(s *recordSet, idx []int32, fn func(key []byte, msgs *Group)) {
	g := Group{set: s}
	for i := 0; i < len(idx); {
		j := runEnd(s, idx, i)
		g.run = idx[i:j]
		slices.Sort(g.run) // arrival order within the key
		fn(s.key(int(g.run[0])), &g)
		i = j
	}
}

// packRecords applies the message-packing optimization (§5.1 opt (1)) to
// one map task's output: the records are reordered by key (arrival order
// within a key), so the messages sharing a key are adjacent — that
// adjacency is the packed run, there is no other representation — and
// the run's key is charged once: every record after a run's first drops
// its key bytes from its size. It returns the number of runs, which is
// what the job's record count measures. Keys come out in ascending
// rather than first-occurrence order; the engine's accounting and the
// reduce phase are insensitive to record order (bytes are summed,
// reducers re-sort), so measured stats and outputs are unchanged. The
// permuted array comes from sc's free list and the one it replaces goes
// back there once the copy is complete.
func packRecords(sc *taskScratch, s *recordSet) int64 {
	idx := sortIndexByKey(sc, s)
	out := sc.takeRecords(len(idx))[:len(idx)]
	var runs int64
	for i := 0; i < len(idx); runs++ {
		j := runEnd(s, idx, i)
		run := idx[i:j]
		slices.Sort(run) // arrival order within the key
		kb := KeyBytes(s.key(int(run[0])))
		for k, id := range run {
			out[i+k] = s.recs[id]
			if k > 0 {
				out[i+k].size -= kb
			}
		}
		i = j
	}
	sc.putRecords(s.recs) // a swap, not a copy: the permuted array replaces it
	s.recs = out
	return runs
}
