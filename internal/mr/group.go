package mr

import (
	"bytes"
	"slices"
	"sync/atomic"
)

// record is one shuffle record — one message under one key — as the
// reduce task holds it once decoded (readRecord; on the map side and in
// the shuffle a record is its wire bytes and nothing else), or as Emit
// enters it in a one-reducer task, where it is the record's only header:
// a pointer-free reference into buffer src of the record's recordSet —
// off addresses the payload, plen long — plus its key's length, the
// payload's type tag and the record's modelled size in bytes (key +
// payload), fixed at emit. The key's bytes sit just before the payload
// in a decoded record and in a one-reducer task's record that opens its
// key group; a later record of that key stores payload bytes only, its
// key its group's (keyLoc). The collector has nothing to trace in a
// slice of records.
// group is set where the record enters the reduce task's set — the
// gather (taskPartition.appendTo), or Emit in a one-reducer task: the
// index, in the set, of the first record carrying this record's key. It
// sits in what was padding — a record stays 32 bytes.
type record struct {
	size       int64
	src, off   uint32
	klen, plen uint32
	group      int32
	tag        byte
}

// recordSet is a slice of records with the byte buffers they point
// into: the shuffle segments a reduce task gathered
// (taskPartition.appendTo). The buffers stay alive exactly as long as the
// set does.
type recordSet struct {
	bufs [][]byte
	recs []record
}

// key returns the key bytes stored before record i's payload: its key
// in a gathered set, and in a one-reducer task's only when the record
// opened its key group (record.group == i).
func (s *recordSet) key(i int) []byte {
	r := &s.recs[i]
	return s.bufs[r.src][r.off-r.klen : r.off]
}

func (s *recordSet) payload(i int) []byte {
	r := &s.recs[i]
	return s.bufs[r.src][r.off : r.off+r.plen]
}

// keyLoc is one entry of a keySet: where the bytes of a distinct key sit —
// buffer src of the task's buffer list, at off, klen long — and, for the
// reduce task's gather, the index of the first record that carried it.
// Pointer-free, so a worker's entries are nothing the collector traces.
type keyLoc struct {
	src, off, klen uint32
	first          int32
}

// keySet answers, record by record, "has this task seen this key, and
// where": open addressing with linear probing at load ≤ 1/2 in the shape
// of relation.find — a slot holds the index + 1 of the key's entry in
// locs, 0 when empty, and a probe that lands on a used slot compares key
// bytes, which it reaches through the entry's locator into the task's own
// buffers: a map task's arena chunks, a reduce task's segments. One set
// serves both sides that need the answer: Emit under packing (a key's
// first record keeps its key bytes in its size) and the reduce task's
// gather (taskPartition.appendTo stores the entry's first record in
// record.group) — and, in a one-reducer task, both at once, over every
// buffer the task holds. A worker runs one task at a time, so all use
// its one set, taskScratch.keys. A reduce task knows its record count
// and sizes the set once; a map task sizes it from its part's running
// estimate, a one-reducer task from its tuples, and the set doubles,
// rehashing its entries, when a task emits past that.
//
// The two sides differ in the home slot alone. A map task's keys take the
// hash's low bits, as PR 21 had them: FNV-1a's last step puts the dense varint ids of a
// guard column in nearly consecutive slots, which beats a uniform index
// (TestPackRecordsProbeLength; 24 500 distinct keys pack in 0.28 ms so,
// 0.32 ms under the multiply below). A reduce task's keys must not: all of
// them satisfy hashKey(key) % R == ri — the partitioner consumed those
// bits — so the low bits leave size/gcd(size, R) home slots (2 400 dense
// keys of one reducer in 8 192 slots: 1.3 probes per insert at R = 42, 9.9
// at R = 64, 150 at R = 1 024). They take the top bits of the hash × 2³²/φ
// (Fibonacci hashing), which fold every bit of it in whatever R is: ≤ 1.5
// probes at every R tried (TestReduceGroupingProbeLength). Indexing by
// hashKey(key) / R — the bits the partitioner left — probes as well and
// measured the same end to end, at a division per record and R threaded
// through the gather; CHANGES.md, PR 22, has both sets of numbers.
//
// A one-reducer task's keys are all of them (hashKey(key) % 1 consumed
// no bit), so it takes the low bits as a map task does: on the serving
// corpus that measured 2.85 ms a query against 3.16 ms under the
// multiply (BenchmarkQueryHit, medians of 5 on 2 vCPUs).
//
// The hash itself is fixed and unkeyed over client-chosen bytes, exactly
// as relation.hashRow and the reducer partitioning are: keys crafted to
// collide in all 32 bits lengthen the probes of the crafting query's own
// tasks (under its deadline) and nothing else, but they make one task's
// pass quadratic in its record count — a map task's input split, a reduce
// task's partition — which is the exposure relation.find already has at
// relation size on every load. A keyed hash/maphash variant measured
// 1.2–3.3× slower on the packing pass (CHANGES.md, PR 21) and protects
// nothing those two leave open, so it was not taken.
type keySet struct {
	slots       []int32
	locs        []keyLoc // one per distinct key seen, in first-arrival order
	partitioned bool     // the keys are one reducer's share
	shift       uint32   // 32 − log2(len(slots))
}

// keySet returns the worker's key set emptied and sized for n keys — a
// reduce task's record count, a map task's estimate; partitioned says
// they are one reducer's share of the keys.
func (sc *taskScratch) keySet(n int, partitioned bool) *keySet {
	ks := &sc.keys
	ks.partitioned = partitioned
	ks.locs = grow(&ks.locs, n)[:0]
	ks.resize(n)
	return ks
}

// resize empties the slots, sized for n keys at load ≤ 1/2.
func (ks *keySet) resize(n int) {
	size, shift := 2, uint32(31)
	for size < 2*n {
		size, shift = size<<1, shift-1
	}
	ks.shift = shift
	ks.slots = grow(&ks.slots, size)
	clear(ks.slots)
}

// home is key's first probe position.
func (ks *keySet) home(key []byte) uint32 {
	h := hashKey(key)
	if ks.partitioned {
		return h * 0x9E3779B1 >> ks.shift
	}
	return h & uint32(len(ks.slots)-1)
}

// entry returns the set's entry for key and whether this call made it. A
// new entry is the caller's to fill in, before its next call, with where
// in bufs — the buffers the set's entries point into — the key's bytes are.
func (ks *keySet) entry(bufs [][]byte, key []byte) (*keyLoc, bool) {
	mask := uint32(len(ks.slots) - 1)
	for h := ks.home(key); ; h = (h + 1) & mask {
		at := ks.slots[h]
		if at == 0 {
			if 2*(len(ks.locs)+1) > len(ks.slots) { // a map task past its estimate
				ks.double(bufs)
				return ks.entry(bufs, key)
			}
			ks.locs = append(ks.locs, keyLoc{})
			ks.slots[h] = int32(len(ks.locs))
			return &ks.locs[len(ks.locs)-1], true
		}
		if l := &ks.locs[at-1]; bytes.Equal(bufs[l.src][l.off:l.off+l.klen], key) {
			return l, false
		}
	}
}

// double doubles the slots and enters every key again, in arrival order,
// so each entry is made where it was: in place.
func (ks *keySet) double(bufs [][]byte) {
	old := ks.locs
	ks.locs = old[:0]
	ks.resize(len(ks.slots))
	for _, l := range old {
		loc, _ := ks.entry(bufs, bufs[l.src][l.off:l.off+l.klen])
		*loc = l
	}
}

// grouping is a gathered record set laid out by key: what a reduce
// task walks. ends and idx are the worker's scratch, locs its key set's
// entries; all three are valid until the scratch serves its next task.
type grouping struct {
	locs []keyLoc // one per distinct key — its first record — in first-arrival order
	ends []int32  // ends[loc.first]: where that key's run of idx ends; it starts where the previous loc's ends
	idx  []int32  // record indices, key-major, arrival order within a key
}

// groupedSet is one reducer's partition gathered and laid out by key
// (reduceGroups), with its modelled bytes: what its reduce task walks,
// or, for a partition cut at group boundaries, each of its pieces. Its
// arrays are worker scratch; when pieces share the set, sc is that
// scratch, which the last of the left pieces to finish gives back.
type groupedSet struct {
	recordSet
	grouping
	load int64
	sc   *taskScratch
	left atomic.Int32
}

// groupRecords lays out a gathered set by key, in the order of locs: the
// order its keys first arrived (the gather's key set entries), or that
// made reducer-major (byReducer). Every record
// already carries its key group (record.group, the index of the first
// record with its key), so nothing here compares two keys — hash
// aggregation: one pass counts each group, one walk over locs turns the
// counts into offsets, and one stable counting scatter places the record
// indices, so arrival order inside a group costs nothing. Nothing orders
// the keys: no reader of a reduce task's output needs key order (a split
// partition's pieces are runs of this order, split.go).
// Gather included, one core (BenchmarkReduceGrouping, medians of 5 on a
// 2-vCPU Xeon; CHANGES.md has the sorted layout's figures beside them):
// 65 536 distinct keys 6.4 ms, 2 400 distinct 153 µs; 2 400 records of 900
// keys 149 µs, 65 536 of 1 024 keys 4.4 ms, of one key 4.3 ms, 200 of 70
// keys 12.3 µs.
func groupRecords(sc *taskScratch, s *recordSet, locs []keyLoc) grouping {
	n := len(s.recs)
	ends := grow(&sc.target, n) // a group's count, then its write cursor, at its first record's index
	for i := range s.recs {
		if g := s.recs[i].group; int(g) != i {
			ends[g]++
		} else {
			ends[i] = 1
		}
	}
	var at int32
	for _, l := range locs {
		ends[l.first], at = at, at+ends[l.first]
	}
	idx := grow(&sc.idx, n)
	for i := range s.recs {
		g := s.recs[i].group
		idx[ends[g]] = int32(i)
		ends[g]++
	}
	return grouping{locs: locs, ends: ends, idx: idx}
}

// byReducer returns locs in sc's scratch, stably sorted by hashKey(key)
// % r, and where each reducer's keys start: a reducer's keys in the
// order its staged gather meets them, so its groups hold that gather's
// record sequence.
func byReducer(sc *taskScratch, s *recordSet, locs []keyLoc, r int) ([]keyLoc, []int) {
	of, bounds := grow(&sc.idx, len(locs)), make([]int, r+1)
	for i, l := range locs {
		of[i] = int32(hashKey(s.bufs[l.src][l.off:l.off+l.klen]) % uint32(r))
		bounds[of[i]+1]++
	}
	for ri := range r {
		bounds[ri+1] += bounds[ri]
	}
	out, at := grow(&sc.locs, len(locs)), slices.Clone(bounds)
	for i, l := range locs {
		out[at[of[i]]], at[of[i]] = l, at[of[i]]+1
	}
	return out, bounds
}

// start is where group gi's records begin in idx.
func (g *groupedSet) start(gi int) int32 {
	if gi == 0 {
		return 0
	}
	return g.ends[g.locs[gi-1].first]
}

// each calls fn once per group of [lo, hi), in first-arrival order, with
// the group's key and a view of its messages in arrival order. It
// allocates nothing per group: the view is one Group re-pointed at each
// run — fn must not retain it (the engine's Reducer contract, see
// Reducer).
func (g *groupedSet) each(lo, hi int, fn func(key []byte, msgs *Group)) {
	grp := Group{set: &g.recordSet}
	start := g.start(lo)
	for _, l := range g.locs[lo:hi] {
		end := g.ends[l.first]
		grp.run = g.idx[start:end]
		fn(g.bufs[l.src][l.off:l.off+l.klen], &grp)
		start = end
	}
}
