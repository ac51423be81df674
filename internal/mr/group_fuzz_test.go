package mr

import "testing"

// FuzzGroupOrder differentially checks the reduce task's grouping and
// group order — the gather's key set, the walk over its entries and the
// counting scatter — against a map-based oracle: the records must come
// out key by key in the order each key first arrived and, inside one key,
// in arrival order. Fuzz data decodes into length-prefixed keys, which
// are then laid out two ways at several sizes: tiled, the
// duplicate-heavy shape of a real shuffle partition (at most 64 groups),
// and spread, every lap of the tiling under its own two-byte suffix, so
// the distinct keys number about the size — with the first half delivered
// a second time, so that arrival order has something to say. One
// worker's scratch serves every input, so each runs on what longer ones
// left.
func FuzzGroupOrder(f *testing.F) {
	seeds := [][]byte{
		{},        // no keys
		{0, 0, 0}, // three empty keys
		// Shared 'a'-prefixes of lengths 7, 8 and 9: keys that differ
		// only in length or in their last byte.
		{7, 'a', 'a', 'a', 'a', 'a', 'a', 'a',
			8, 'a', 'a', 'a', 'a', 'a', 'a', 'a', 'a',
			9, 'a', 'a', 'a', 'a', 'a', 'a', 'a', 'a', 'b',
			8, 'a', 'a', 'a', 'a', 'a', 'a', 'a', 'b'},
		// Keys with equal first eight bytes that differ past them.
		{12, 'p', 'p', 'p', 'p', 'p', 'p', 'p', 'p', 'q', 'r', 's', 't',
			12, 'p', 'p', 'p', 'p', 'p', 'p', 'p', 'p', 'a', 'b', 'c', 'd',
			9, 'p', 'p', 'p', 'p', 'p', 'p', 'p', 'p', 0},
		// Distinct leading bytes, the byte extremes among them.
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
			checkGroupOrder(t, &sc, &tiled)
			checkGroupOrder(t, &sc, &spread)
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

// checkGroupOrder runs the production reduce path over em's records on
// sc (whatever an earlier, possibly longer input left in its buffers) and
// requires exactly the record sequence of arrivalOrder: keys in the order
// of their first record, and ascending record index inside every key.
func checkGroupOrder(t *testing.T, sc *taskScratch, em *Emitter) {
	t.Helper()
	recs := arenaRecords(t, em)
	got, want := groupOrder(t, sc, em), arrivalOrder(t, em)
	if len(got) != len(want) {
		t.Fatalf("n=%d: %d records delivered", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d: position %d delivers record %d (key %q), first-arrival order wants record %d (key %q)",
				len(want), i, got[i], recs.key(int(got[i])), want[i], recs.key(int(want[i])))
		}
	}
}
