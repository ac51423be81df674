package mr

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzGroupOrder differentially checks the reduce task's grouping and
// group order — the gather's key set, the walk over its entries and the
// counting scatter — against a map-based oracle: the records must come
// out key by key in the order each key first arrived and, inside one key,
// in arrival order. Fuzz data decodes into length-prefixed keys, which
// are then laid out two ways at several sizes: tiled, the
// duplicate-heavy shape of a real shuffle partition (at most 64 groups),
// and spread, every lap of the tiling under its own two-byte suffix, so
// the distinct keys number about the size — with the first half delivered
// a second time, so that arrival order has something to say. Each layout
// takes two legs: staged, through a map task's Emitter and the reduce
// task's gather, and grouped, through a one-reducer task's Emitter over
// two splits and its reduce phase's grouping, which must give the staged
// leg's order and read back every payload and every group's key (the key
// is stored once, with the group's first record). Each leg's worker
// scratch serves every input, so each runs on what longer ones left.
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
	var staged, grouped taskScratch // one worker's scratch per leg, reused across every input
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := decodeFuzzKeys(data)
		if len(keys) == 0 {
			keys = [][]byte{nil}
		}
		for _, n := range []int{len(keys), 95, 97, 511, 513, 1100} {
			tiled, spread := make([][]byte, n+n/2), make([][]byte, n+n/2)
			for i := range tiled {
				key, lap := keys[i%n%len(keys)], i%n/len(keys)
				tiled[i], spread[i] = key, key
				if lap > 0 {
					spread[i] = append(key[:len(key):len(key)], byte(lap>>8), byte(lap))
				}
			}
			for _, ks := range [][][]byte{tiled, spread} {
				var em Emitter
				for _, key := range ks {
					em.Emit(key, tagInt, 8, nil)
				}
				want := checkGroupOrder(t, &staged, &em)
				checkGroupedOrder(t, &grouped, ks, want)
			}
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
// of their first record, and ascending record index inside every key. It
// returns that sequence.
func checkGroupOrder(t *testing.T, sc *taskScratch, em *Emitter) []int32 {
	t.Helper()
	recs := arenaRecords(t, em)
	got, want := groupOrder(t, sc, em), arrivalOrder(recs)
	if len(got) != len(want) {
		t.Fatalf("n=%d: %d records delivered", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d: position %d delivers record %d (key %q), first-arrival order wants record %d (key %q)",
				len(want), i, got[i], recs.key(int(got[i])), want[i], recs.key(int(want[i])))
		}
	}
	return want
}

// checkGroupedOrder enters a record under each of keys, in order, the
// payload of record i its index, into a one-reducer task's record array
// on sc — the first half of the records one split, the rest a second,
// the job packing — groups them as the task's reduce phase does at r = 1
// (groupRecords over the key set's entries), and requires the record
// sequence want, every record's payload and tag, and every group's key
// to read back.
func checkGroupedOrder(t *testing.T, sc *taskScratch, keys [][]byte, want []int32) {
	t.Helper()
	set := recordSet{recs: grow(&sc.recs, len(keys))[:0]}
	ks := sc.keySet(len(keys), false)
	stamps := grow(&sc.target, len(keys))
	var pb [binary.MaxVarintLen64]byte
	for split, half := range [][][]byte{keys[:len(keys)/2], keys[len(keys)/2:]} {
		em := Emitter{chunks: set.bufs, keys: ks, grouped: &set.recs, stamps: stamps, split: int32(split), pack: true}
		for _, key := range half {
			em.Emit(key, tagInt, 8, binary.AppendUvarint(pb[:0], uint64(len(set.recs))))
		}
		set.bufs, stamps = em.chunks, em.stamps
	}
	sc.recs, sc.target = set.recs, stamps
	g := groupedSet{recordSet: set}
	g.grouping = groupRecords(sc, &g.recordSet, ks.locs)
	at := 0
	g.each(0, len(g.locs), func(key []byte, msgs *Group) {
		for i := 0; i < msgs.Len(); i++ {
			id := int(msgs.run[i])
			tag, payload := msgs.At(i)
			v, n := binary.Uvarint(payload)
			if at == len(want) || id != int(want[at]) || !bytes.Equal(key, keys[id]) || tag != tagInt ||
				n != len(payload) || v != uint64(id) {
				t.Fatalf("n=%d: position %d delivers record %d under key %q, payload %x; the staged leg delivers record %d, key %q",
					len(keys), at, id, key, payload, want[min(at, len(want)-1)], keys[want[min(at, len(want)-1)]])
			}
			at++
		}
	})
	if at != len(want) {
		t.Fatalf("n=%d: %d records delivered, the staged leg delivers %d", len(keys), at, len(want))
	}
}
