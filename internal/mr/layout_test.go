package mr

import (
	"bytes"
	"fmt"
	"testing"
)

// cloneArena copies an arena chunk by chunk, each copy of its chunk's
// capacity: a map task's arena, for a shuffle task to own.
func cloneArena(chunks [][]byte) [][]byte {
	out := make([][]byte, len(chunks))
	for i, c := range chunks {
		out[i] = append(make([]byte, 0, cap(c)), c...)
	}
	return out
}

// refPlacement is the reference layout of an arena at the given reducer
// count: every record, encoded as emitted, copied into a fresh buffer of
// its reducer's, in emission order, and the record counts.
func refPlacement(t *testing.T, chunks [][]byte, reducers int) ([][]byte, []int32) {
	t.Helper()
	segs, counts := make([][]byte, reducers), make([]int32, reducers)
	for _, chunk := range chunks {
		for at := 0; at < len(chunk); {
			var r record
			next, err := readRecord(&r, chunk, at)
			if err != nil {
				t.Fatal(err)
			}
			ri := hashKey(chunk[r.off:r.off+r.klen]) % uint32(reducers)
			segs[ri] = append(segs[ri], chunk[at:next]...)
			counts[ri]++
			at = next
		}
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
// writes its partition back over its map task's arena chunks, in segment
// order, each chunk filled up to the first record that does not fit it.
// Resident or spilled, every reducer's segment must read back, through
// the one reader, as the reference placement into a fresh buffer; the
// resident partition must hold the arena's own chunks, plus the one
// overflow chunk exactly when the segment order does not fit them; and
// the shuffle must charge the encoded bytes, plus that overflow chunk.
func TestPartitionLayout(t *testing.T) {
	cases := []struct {
		name     string
		reducers int
		emit     func(em *Emitter)
		chunks   int  // the arena's
		overflow bool // whether the segment order outgrows the arena
	}{
		{"one chunk", 3, func(em *Emitter) {
			for i := 0; i < 20; i++ {
				emitInt(em, []byte(fmt.Sprint("key", i%7)), int64(i))
			}
		}, 1, false},
		{"one reducer over the ladder", 1, func(em *Emitter) {
			for i := 0; i < 3000; i++ {
				emitInt(em, []byte(fmt.Sprint("key", i%37)), int64(i))
			}
		}, 6, false},
		{"seven reducers over the ladder", 7, func(em *Emitter) {
			for i := 0; i < 3000; i++ {
				emitInt(em, []byte(fmt.Sprint("key", i%37)), int64(i))
			}
		}, 6, false},
		// The large record opens a chunk of its own size, third of four;
		// in segment order it comes first, so the first two chunks stay
		// empty and the fourth takes every small record.
		{"a record larger than arenaChunk", 2, func(em *Emitter) {
			for i := 0; i < 300; i++ {
				emitInt(em, keyTo(1, 2), int64(i))
				if i == 149 {
					emitLen(em, keyTo(0, 2), arenaChunk+100)
				}
			}
		}, 4, false},
		// Reducer 0's segment ends a byte past the first chunk's
		// capacity: its second record starts the second chunk.
		{"a segment ends a byte past a chunk", 2, func(em *Emitter) {
			emitLen(em, keyTo(1, 2), 1000)
			emitLen(em, keyTo(0, 2), 500)
			emitLen(em, keyTo(0, 2), arenaFirst+1-500)
		}, 2, false},
		// Reducer 1's record fills most of the first chunk, reducer 0's
		// two the second: in segment order the first chunk holds 500
		// bytes, the second 1 500, and the 1 000 left overflow.
		{"segment order outgrows the arena", 2, func(em *Emitter) {
			emitLen(em, keyTo(1, 2), 1000)
			emitLen(em, keyTo(0, 2), 500)
			emitLen(em, keyTo(0, 2), 1500)
		}, 2, true},
	}
	for _, c := range cases {
		em := new(Emitter)
		c.emit(em)
		if len(em.chunks) != c.chunks {
			t.Fatalf("%s: the arena has %d chunks, want %d", c.name, len(em.chunks), c.chunks)
		}
		var encoded int64
		for _, chunk := range em.chunks {
			encoded += int64(len(chunk))
		}
		ref, counts := refPlacement(t, em.chunks, c.reducers)
		for _, spill := range []bool{false, true} {
			what := fmt.Sprintf("%s, spill %v", c.name, spill)
			arena, budget := cloneArena(em.chunks), NewBudget(0)
			bases := make([]*byte, len(arena)) // the shuffle task rewrites arena's entries
			for i, chunk := range arena {
				bases[i] = &chunk[:1][0]
			}
			tp, err := shuffleCharging(t, arena, em.records, c.reducers, spill, budget)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			compareLayout(t, what, tp, ref, counts)
			want := encoded
			if !spill {
				for i, chunk := range tp.chunks[:min(len(tp.chunks), len(bases))] {
					if len(chunk) > 0 && &chunk[0] != bases[i] {
						t.Fatalf("%s: chunk %d is not the arena's", what, i)
					}
				}
				if overflow := len(tp.chunks) > len(bases); overflow != c.overflow {
					t.Fatalf("%s: %d chunks over an arena of %d: overflow %v, want %v", what, len(tp.chunks), len(bases), overflow, c.overflow)
				}
				if c.overflow {
					want += int64(len(tp.chunks[len(bases)]))
				}
			}
			if got := budget.Stats().ChargedBytes; got != want {
				t.Errorf("%s: the shuffle charged %d bytes, want %d (%d encoded)", what, got, want, encoded)
			}
		}
	}
}
