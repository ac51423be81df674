package mr

import (
	"slices"
)

// record is one map-output record: a key, a (possibly packed) message,
// and the record's modelled size in bytes (key + payload). The size is
// computed once when the record is emitted so that the later phases —
// per-part byte accounting, shuffle load measurement — sum a plain field
// instead of re-walking messages through the Message interface.
//
// The key is a byte slice carved from the map task's keyArena (see
// emitInto): emitting a record never allocates a key, and the arena
// chunks stay alive exactly as long as records reference them.
//
// A record produced by packRecords carries its same-key message run in
// packed rather than msg: keeping the run as a plain slice (sliced from
// a per-task arena) saves both the interface box a Packed message would
// cost and the per-key slice allocation. Mappers can still emit a Packed
// message themselves; both forms flatten identically at reduce time.
type record struct {
	key    []byte
	msg    Message   // single message; nil when packed is set
	packed []Message // packed same-key run (engine-internal transport)
	size   int64
}

// keyRef pairs a record index with the first eight bytes of its key,
// packed big-endian so uint64 order equals lexicographic order. Sorting
// keyRefs instead of records keeps the sort's data moves small and makes
// most comparisons (and every radix pass) operate on a register instead
// of the key bytes through a pointer.
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
// visits keys in ascending byte order and, within one key, records in
// arrival order. Large inputs are sorted by an MSD radix sort over the
// key bytes; small inputs (and small radix buckets) fall back to a
// comparison sort on the packed key prefix (see radix.go). Both paths
// produce the same total key order — plain lexicographic byte order —
// and both are unstable within one key (duplicate-key runs collapse);
// arrival order within each run is restored afterwards with a cheap
// integer sort by the callers.
func sortIndexByKey(recs []record) []int32 {
	n := len(recs)
	size := n
	if n >= radixMinLen {
		size = 2 * n // refs plus the radix scatter scratch, one allocation
	}
	buf := make([]keyRef, size)
	refs := buf[:n]
	for i := range recs {
		refs[i] = keyRef{prefix: keyPrefix(recs[i].key), idx: int32(i)}
	}
	if n < radixMinLen {
		sortRefs(recs, refs)
	} else {
		msdRadix(recs, refs, buf[n:], 0)
	}
	idx := make([]int32, n)
	for i, r := range refs {
		idx[i] = r.idx
	}
	return idx
}

// runEnd returns the end of the key run starting at idx[i].
func runEnd(recs []record, idx []int32, i int) int {
	key := recs[idx[i]].key
	j := i + 1
	for j < len(idx) && string(recs[idx[j]].key) == string(key) {
		j++
	}
	return j
}

// forEachGroup groups one reduce partition's records by key and calls fn
// once per distinct key; it is forEachGroupIdx over a freshly computed
// sort index.
func forEachGroup(recs []record, fn func(key []byte, msgs []Message)) {
	if len(recs) == 0 {
		return
	}
	forEachGroupIdx(recs, sortIndexByKey(recs), fn)
}

// forEachGroupIdx walks a sorted index (from sortIndexByKey) as key runs
// and calls fn once per distinct key, in ascending key order, with the
// key's messages in arrival order (Packed messages flattened). This is
// the sort-based replacement for hash grouping: grouping a whole
// partition allocates one index array and one message buffer rather
// than a map entry and slice per key. The message buffer is reused
// across calls — fn must not retain msgs after it returns (the engine's
// Reducer contract, see Reducer).
func forEachGroupIdx(recs []record, idx []int32, fn func(key []byte, msgs []Message)) {
	// Pre-size the shared message buffer: one key's flattened run is
	// almost always within the partition's record count (packed runs can
	// exceed it and grow the buffer; the cap bounds the upfront cost on
	// huge partitions with small groups).
	presize := len(idx)
	if presize > 4096 {
		presize = 4096
	}
	msgs := make([]Message, 0, presize)
	for i := 0; i < len(idx); {
		j := runEnd(recs, idx, i)
		run := idx[i:j]
		slices.Sort(run) // arrival order within the key
		msgs = msgs[:0]
		for _, id := range run {
			r := &recs[id]
			if r.packed != nil {
				// Engine-packed run; elements may still be Packed values
				// a mapper emitted, which flatten one level like
				// everywhere else.
				for _, m := range r.packed {
					if packed, ok := m.(Packed); ok {
						msgs = append(msgs, packed.Msgs...)
					} else {
						msgs = append(msgs, m)
					}
				}
			} else if packed, ok := r.msg.(Packed); ok {
				msgs = append(msgs, packed.Msgs...)
			} else {
				msgs = append(msgs, r.msg)
			}
		}
		fn(recs[run[0]].key, msgs)
		i = j
	}
}

// packRecords applies the message-packing optimization (§5.1 opt (1)) to
// one map task's output: all messages sharing a key collapse into a
// single Packed record whose key is charged once. Like forEachGroup it
// is sort-based (sorted index, key runs, arrival order within a run).
// Record keys come out in ascending order rather than first-occurrence
// order; the engine's accounting and the reduce phase are insensitive to
// record order (bytes are summed, reducers re-sort), so measured stats
// and outputs are unchanged. Sizes are maintained arithmetically from
// the constituent records: payload bytes are kept, duplicate key charges
// dropped.
func packRecords(recs []record) []record {
	if len(recs) == 0 {
		return recs
	}
	idx := sortIndexByKey(recs)
	out := make([]record, 0, len(recs))
	// One message arena per task: every packed run is a sub-slice, so
	// packing costs two allocations per map task however many keys the
	// task emits.
	var arena []Message
	used := 0
	for i := 0; i < len(idx); {
		j := runEnd(recs, idx, i)
		if j == i+1 {
			out = append(out, recs[idx[i]])
			i = j
			continue
		}
		run := idx[i:j]
		slices.Sort(run) // arrival order within the key
		if arena == nil {
			arena = make([]Message, len(recs)) // upper bound on packed messages
		}
		msgs := arena[used : used : used+len(run)]
		used += len(run)
		first := &recs[run[0]]
		kb := KeyBytes(first.key)
		size := kb
		for _, id := range run {
			msgs = append(msgs, recs[id].msg)
			size += recs[id].size - kb // keep payload bytes, drop the duplicate key charge
		}
		out = append(out, record{key: first.key, packed: msgs, size: size})
		i = j
	}
	return out
}
