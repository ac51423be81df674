package mr

import "testing"

// FuzzRadixSort differentially checks the reduce task's grouping and
// group order — the gather's key set, the sort of the distinct keys (MSD
// radix sort or comparison sort) and the counting scatter — against a
// stdlib oracle: the records must come out in plain lexicographic byte
// order of their keys and, inside one key, in arrival order. Fuzz data
// decodes into length-prefixed keys, which are then laid out two ways at
// the sizes where the sort changes regime — radixBucketCutoff (96) ±1,
// where a radix level hands buckets to the comparison sort, and
// radixMinLen (512) ±1, the cutoff in distinct keys in groupRecords:
// tiled, the duplicate-heavy shape of a real shuffle partition (at most
// 64 groups, so the comparison sort), and spread, every lap of the tiling
// under its own two-byte suffix, so the distinct keys number about the
// size and the radix sort runs — with the first half delivered a second
// time, so that arrival order has something to say.
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
		var kb []byte
		for _, n := range []int{len(keys), 95, 97, 511, 513, 1100} {
			var tiled, spread Emitter
			for i := 0; i < n+n/2; i++ {
				key, lap := keys[i%n%len(keys)], i%n/len(keys)
				tiled.Emit(key, tagInt, 8, nil)
				if lap > 0 {
					key = append(append(kb[:0], key...), byte(lap>>8), byte(lap))
				}
				spread.Emit(key, tagInt, 8, nil)
			}
			checkRadixAgainstOracle(t, &sc, &tiled)
			checkRadixAgainstOracle(t, &sc, &spread)
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

// checkRadixAgainstOracle runs the production reduce path over recs on
// sc (whatever an earlier, possibly longer input left in its buffers) and
// requires exactly the record sequence of slices.SortStableFunc with
// bytes.Compare: the oracle's key order, and ascending record index
// inside every key.
func checkRadixAgainstOracle(t *testing.T, sc *taskScratch, em *Emitter) {
	t.Helper()
	recs := arenaRecords(t, em)
	got, want := groupOrder(t, sc, em), stableOrder(t, em)
	if len(got) != len(want) {
		t.Fatalf("n=%d: %d records delivered", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d: position %d delivers record %d (key %q), the stable sort wants record %d (key %q)",
				len(want), i, got[i], recs.key(int(got[i])), want[i], recs.key(int(want[i])))
		}
	}
}
