package mr

import (
	"bytes"
	"fmt"
	"testing"
)

// refPlacement is the reference layout of a sealed arena at the given
// reducer count: every record, encoded as emitted, copied into a fresh
// buffer of its reducer's, in emission order, and the record counts.
func refPlacement(t *testing.T, arena []byte, reducers int) ([][]byte, []int32) {
	t.Helper()
	segs, counts := make([][]byte, reducers), make([]int32, reducers)
	for at := 0; at < len(arena); {
		var r record
		next, err := readRecord(&r, arena, at)
		if err != nil {
			t.Fatal(err)
		}
		ri := hashKey(arena[r.off-r.klen:r.off]) % uint32(reducers)
		segs[ri] = append(segs[ri], arena[at:next]...)
		counts[ri]++
		at = next
	}
	return segs, counts
}

// segmentRecords decodes reducer ri's segment of tp through the one
// reader, rendering each record as key/tag/size/payload.
func segmentRecords(t *testing.T, tp *taskPartition, ri int) []string {
	t.Helper()
	var set recordSet
	if _, err := tp.appendTo(&set, new(taskScratch).keySet(int(tp.segs[ri].count), true), ri, nil); err != nil {
		t.Fatalf("reducer %d: %v", ri, err)
	}
	out := make([]string, len(set.recs))
	for i, r := range set.recs {
		out[i] = fmt.Sprintf("%q/%d/%d/%x", set.key(i), r.tag, r.size, set.payload(i))
	}
	return out
}

// compareLayout requires every reducer's segment of tp, read through the
// one reader, to be the reference placement's: ref[ri], counts[ri]
// records, decoded alike, record by record, and byte for byte.
func compareLayout(t *testing.T, what string, tp *taskPartition, ref [][]byte, counts []int32) {
	t.Helper()
	for ri := range ref {
		actual, expected := segmentRecords(t, tp, ri), segmentRecords(t, rawPartition(ref[ri], counts[ri]), 0)
		if tp.segs[ri].count != counts[ri] || len(actual) != len(expected) {
			t.Fatalf("%s: reducer %d's segment counts %d records and reads %d, want %d", what, ri, tp.segs[ri].count, len(actual), counts[ri])
		}
		for i := range actual {
			if actual[i] != expected[i] {
				t.Fatalf("%s: reducer %d's record %d is %s, want %s", what, ri, i, actual[i], expected[i])
			}
		}
		if !bytes.Equal(segmentBytes(t, tp, ri), ref[ri]) {
			t.Fatalf("%s: reducer %d's segment is not the reference's bytes", what, ri)
		}
	}
}

// emitLen emits a record under key whose encoding is n bytes long: a
// one-byte key length and modelled size, a two-byte payload length.
func emitLen(em *Emitter, key []byte, n int) {
	em.Emit(key, tagInt, 0, make([]byte, n-5-len(key)))
}

// keyTo returns the first key "k0", "k1", ... that reducer ri of r owns.
func keyTo(ri, r uint32) []byte {
	for i := 0; ; i++ {
		if key := []byte(fmt.Sprint("k", i)); hashKey(key)%r == ri {
			return key
		}
	}
}

// TestPartitionLayout is the shuffle's layout table: a shuffle task
// writes its partition back into its map task's sealed arena, in segment
// order. Resident or spilled, every reducer's segment must read back,
// through the one reader, as the reference placement into a fresh
// buffer; the resident partition must be the arena itself, one buffer of
// len = cap = the encoded bytes, however many rungs it was sealed from;
// and the shuffle must charge the encoded bytes.
func TestPartitionLayout(t *testing.T) {
	cases := []struct {
		name     string
		reducers int
		emit     func(em *Emitter)
		chunks   int // the rungs the arena was sealed from
	}{
		{"one chunk", 3, func(em *Emitter) {
			for i := 0; i < 20; i++ {
				emitInt(em, []byte(fmt.Sprint("key", i%7)), int64(i))
			}
		}, 1},
		{"one reducer over the ladder", 1, func(em *Emitter) {
			for i := 0; i < 3000; i++ {
				emitInt(em, []byte(fmt.Sprint("key", i%37)), int64(i))
			}
		}, 6},
		{"seven reducers over the ladder", 7, func(em *Emitter) {
			for i := 0; i < 3000; i++ {
				emitInt(em, []byte(fmt.Sprint("key", i%37)), int64(i))
			}
		}, 6},
		// The large record opens a chunk of its own size, third of four;
		// in segment order it comes first.
		{"a record larger than arenaChunk", 2, func(em *Emitter) {
			for i := 0; i < 300; i++ {
				emitInt(em, keyTo(1, 2), int64(i))
				if i == 149 {
					emitLen(em, keyTo(0, 2), arenaChunk+100)
				}
			}
		}, 4},
		// Reducer 0's segment ends a byte past the first rung's size.
		{"a segment ends a byte past a rung", 2, func(em *Emitter) {
			emitLen(em, keyTo(1, 2), 1000)
			emitLen(em, keyTo(0, 2), 500)
			emitLen(em, keyTo(0, 2), arenaFirst+1-500)
		}, 2},
		// Reducer 1's record fills most of the first rung, reducer 0's two
		// the second: in segment order the first rung could hold 500 bytes
		// of the 3 000, and the second 1 500.
		{"segment order outgrows the rungs", 2, func(em *Emitter) {
			emitLen(em, keyTo(1, 2), 1000)
			emitLen(em, keyTo(0, 2), 500)
			emitLen(em, keyTo(0, 2), 1500)
		}, 2},
	}
	for _, c := range cases {
		em := new(Emitter)
		c.emit(em)
		if len(em.chunks) != c.chunks {
			t.Fatalf("%s: the arena has %d chunks, want %d", c.name, len(em.chunks), c.chunks)
		}
		arena := sealed(em.chunks)
		encoded := int64(len(arena))
		ref, counts := refPlacement(t, arena, c.reducers)
		for _, spill := range []bool{false, true} {
			what := fmt.Sprintf("%s, spill %v", c.name, spill)
			own, budget := sealed([][]byte{arena}), NewBudget(0)
			tp, err := shuffleCharging(t, own, em.records, c.reducers, spill, budget)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			compareLayout(t, what, tp, ref, counts)
			if !spill && (len(tp.buf) != len(own) || cap(tp.buf) != len(own) || &tp.buf[0] != &own[0]) {
				t.Fatalf("%s: the partition holds %d bytes in %d, want the arena's %d in the arena itself", what, len(tp.buf), cap(tp.buf), len(own))
			}
			if got := budget.Stats().ChargedBytes; got != encoded {
				t.Errorf("%s: the shuffle charged %d bytes, want the %d encoded", what, got, encoded)
			}
		}
	}
}
