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
// restored afterwards with a cheap integer sort by forEachGroup. The
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

// forEachGroup walks a sorted index (from sortIndexByKey) as key runs
// and calls fn once per distinct key, in ascending key order, with a
// view of the key's messages in arrival order. Grouping a whole
// partition allocates nothing beyond the index: the view is one Group
// re-pointed at each run — fn must not retain it (the engine's Reducer
// contract, see Reducer).
func forEachGroup(s *recordSet, idx []int32, fn func(key []byte, msgs *Group)) {
	g := Group{set: s}
	for i := 0; i < len(idx); {
		key := s.key(int(idx[i]))
		j := i + 1
		for j < len(idx) && bytes.Equal(s.key(int(idx[j])), key) {
			j++
		}
		g.run = idx[i:j]
		slices.Sort(g.run) // arrival order within the key
		fn(key, &g)
		i = j
	}
}

// packRecords applies the message-packing optimization (§5.1 opt (1)) to
// one map task's output. Packing needs to know which messages share a
// key, not where they sit, so it is an accounting pass in arrival order
// over a key set: the first record of each key keeps its key bytes in
// its size, every later one drops them, and the number of distinct keys
// — what the job's record count measures — is returned. No record
// moves; the reduce task's sort is the engine's only ordering.
//
// The set is sc.keys, open addressing with linear probing at load ≤ 1/2
// in the shape of relation.find: a slot holds the index + 1 of the first
// record carrying its key, 0 when empty, and a probe that lands on a
// used slot compares key bytes. Its hash is hashKey, fixed and unkeyed
// over client-chosen values exactly as relation.hashRow and the reducer
// partitioning are: crafted collisions lengthen the probes of the
// crafting query's own map tasks (one input split each, under its
// deadline) and nothing else. A keyed hash/maphash variant measured
// 1.2–3.3× slower on this pass (CHANGES.md, PR 21) and protects nothing
// those two leave open, so it was not taken.
func packRecords(sc *taskScratch, s *recordSet) int64 {
	size := 1
	for size < 2*len(s.recs) {
		size <<= 1
	}
	slots := grow(&sc.keys, size)
	clear(slots)
	mask := uint32(size - 1)
	var runs int64
	for i := range s.recs {
		key := s.key(i)
		h := hashKey(key) & mask
		for slots[h] != 0 && !bytes.Equal(s.key(int(slots[h])-1), key) {
			h = (h + 1) & mask
		}
		if slots[h] == 0 {
			slots[h] = int32(i + 1)
			runs++
		} else {
			s.recs[i].size -= KeyBytes(key)
		}
	}
	return runs
}
