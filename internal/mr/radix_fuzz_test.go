package mr

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzRadixSort differentially checks the MSD radix sort and the
// comparison fallback against a stdlib oracle: both must realize plain
// lexicographic byte order on keys and permute the record indices. Fuzz data decodes into
// length-prefixed keys, which are then tiled to duplicate-heavy inputs
// at the sizes where the sort changes regime: radixBucketCutoff (96)
// ±1, where a radix level hands buckets to the comparison sort, and
// radixMinLen (512) ±1, the whole-partition cutoff in sortIndexByKey.
func FuzzRadixSort(f *testing.F) {
	seeds := [][]byte{
		{},        // no keys
		{0, 0, 0}, // three empty keys
		// Shared 'a'-prefixes straddling the packed 8-byte boundary:
		// lengths 7, 8 and 9 with equal leading bytes exercise the
		// prefix-equal branches of cmpRef and radix level 8.
		{7, 'a', 'a', 'a', 'a', 'a', 'a', 'a',
			8, 'a', 'a', 'a', 'a', 'a', 'a', 'a', 'a',
			9, 'a', 'a', 'a', 'a', 'a', 'a', 'a', 'a', 'b',
			8, 'a', 'a', 'a', 'a', 'a', 'a', 'a', 'b'},
		// Keys longer than the prefix with equal first eight bytes:
		// order is decided by the full byte compare past the prefix.
		{12, 'p', 'p', 'p', 'p', 'p', 'p', 'p', 'p', 'q', 'r', 's', 't',
			12, 'p', 'p', 'p', 'p', 'p', 'p', 'p', 'p', 'a', 'b', 'c', 'd',
			9, 'p', 'p', 'p', 'p', 'p', 'p', 'p', 'p', 0},
		// Distinct leading bytes, including the histogram extremes.
		{1, 'z', 1, 'a', 1, 'm', 1, 0x00, 1, 0xff, 2, 0xff, 0x00},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	var sc taskScratch // one worker's scratch, reused across every input
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := decodeFuzzKeys(data)
		if len(keys) == 0 {
			keys = [][]byte{nil}
		}
		for _, n := range []int{len(keys), 95, 97, 511, 513} {
			var em Emitter
			for i := 0; i < n; i++ {
				em.Emit(keys[i%len(keys)], tagInt, 8, nil)
			}
			checkRadixAgainstOracle(t, &sc, &em.set)
		}
	})
}

// decodeFuzzKeys reads length-prefixed keys: one length byte (mod 13,
// so keys cross the 8-byte packed-prefix boundary) then that many key
// bytes, truncated at end of data. Capped at 64 distinct decodes so the
// tiled inputs stay duplicate-heavy, like real shuffle partitions.
func decodeFuzzKeys(data []byte) [][]byte {
	var keys [][]byte
	for len(data) > 0 && len(keys) < 64 {
		l := int(data[0]) % 13
		data = data[1:]
		if l > len(data) {
			l = len(data)
		}
		keys = append(keys, data[:l:l])
		data = data[l:]
	}
	return keys
}

// checkRadixAgainstOracle runs sortRefs and msdRadix over the same
// records, in sc's buffers exactly as sortIndexByKey lays them out
// (whatever an earlier, possibly longer input left there), and verifies
// each against slices.SortStableFunc
// with bytes.Compare: the key sequence must match the oracle's exactly
// (the paths are unstable within one key, so indices are checked only
// for being a permutation — position-wise key equality plus a
// permutation forces the per-key index multisets to agree).
func checkRadixAgainstOracle(t *testing.T, sc *taskScratch, recs *recordSet) {
	t.Helper()
	n := len(recs.recs)
	want := make([][]byte, n)
	for i := range want {
		want[i] = recs.key(i)
	}
	slices.SortStableFunc(want, bytes.Compare)

	check := func(name string, sort func(refs, tmp []keyRef)) {
		buf := grow(&sc.refs, 2*n)
		refs, tmp := buf[:n], buf[n:]
		for i := range refs {
			refs[i] = keyRef{prefix: keyPrefix(recs.key(i)), idx: int32(i)}
		}
		sort(refs, tmp)
		seen := make([]bool, n)
		for i, r := range refs {
			if r.idx < 0 || int(r.idx) >= n || seen[r.idx] {
				t.Fatalf("%s (n=%d): position %d holds invalid or duplicate index %d", name, n, i, r.idx)
			}
			seen[r.idx] = true
			if !bytes.Equal(recs.key(int(r.idx)), want[i]) {
				t.Fatalf("%s (n=%d): position %d has key %q, oracle wants %q", name, n, i, recs.key(int(r.idx)), want[i])
			}
			if r.prefix != keyPrefix(recs.key(int(r.idx))) {
				t.Fatalf("%s (n=%d): position %d prefix %#x does not match its key %q", name, n, i, r.prefix, recs.key(int(r.idx)))
			}
		}
	}
	check("sortRefs", func(refs, tmp []keyRef) { sortRefs(recs, refs) })
	check("msdRadix", func(refs, tmp []keyRef) { msdRadix(recs, refs, tmp, 0) })
}
