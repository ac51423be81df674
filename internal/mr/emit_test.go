package mr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// ladderSize is the size the i-th chunk of a task's arena has unless a
// record larger than that opens it.
func ladderSize(i int) int {
	return min(arenaFirst<<min(i, arenaRungs), arenaChunk)
}

// recLen is the encoded length of a record of the given key and payload
// lengths and stored size.
func recLen(klen, plen int, size int64) int {
	return len(binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(klen)), uint64(plen)), uint64(size))) + 1 + klen + plen
}

// ladderCharge is what an arena is charged for records of the given
// encoded lengths, in emit order: Emit's chunk ladder replayed.
func ladderCharge(needs []int) int64 {
	var charged int64
	left, chunks := 0, 0
	for _, need := range needs {
		if chunks == 0 || need > left {
			size := max(ladderSize(chunks), need)
			charged += int64(size)
			left = size
			chunks++
		}
		left -= need
	}
	return charged
}

// Charges returns what the split's arena is charged in its one-reducer
// task, which writes key and payload bytes alone (bare), and as a map
// task's arena, which writes each record's header ahead of them
// (headed): the ladder replayed over the records' lengths in each form.
func (s InlineSplit) Charges() (bare, headed int64) {
	b, h := make([]int, len(s)), make([]int, len(s))
	for i, r := range s {
		b[i] = int(r.klen + r.plen)
		h[i] = recLen(int(r.klen), int(r.plen), r.size)
	}
	return ladderCharge(b), ladderCharge(h)
}

// TestArenaLadder walks the arena's edges: for every emit sequence all
// stored keys, payloads, tags and sizes read back through the record
// decoder, chunk i has its ladder size (or exactly the size of the
// oversize record that opened it), records fill a chunk to the last byte
// before the next one opens, and the budget was charged the sum of the
// chunk sizes — the charge contract, a function of the bytes emitted
// alone.
func TestArenaLadder(t *testing.T) {
	type rec struct{ klen, plen int }
	// fill is a record that takes n bytes of arena, header included.
	fill := func(n int) rec {
		for klen := 3; klen < 8; klen++ {
			for plen := n - klen - 8; plen < n-klen; plen++ {
				if plen >= 0 && recLen(klen, plen, 8+int64(klen)) == n {
					return rec{klen, plen}
				}
			}
		}
		t.Fatalf("no record encodes to %d bytes", n)
		return rec{}
	}
	small := make([]rec, 100_000)
	for i := range small {
		small[i] = rec{1 + i%11, i % 5}
	}
	cases := []struct {
		name   string
		recs   []rec
		chunks []int // expected chunk sizes
	}{
		{"exactly fills the first chunk", []rec{fill(300), fill(ladderSize(0) - 300)}, []int{ladderSize(0)}},
		{"one byte more", []rec{fill(300), fill(ladderSize(0) - 300 + 1)}, []int{ladderSize(0), ladderSize(1)}},
		{"exactly fills the second chunk", []rec{fill(ladderSize(0)), fill(ladderSize(1)), {0, 1}},
			[]int{ladderSize(0), ladderSize(1), ladderSize(2)}},
		{"oversize first", []rec{fill(arenaChunk + 17), {2, 3}}, []int{arenaChunk + 17, ladderSize(1)}},
		{"oversize later", []rec{{2, 3}, fill(arenaChunk + 17), {2, 3}, fill(arenaChunk + 1)},
			[]int{ladderSize(0), arenaChunk + 17, ladderSize(2), arenaChunk + 1}},
		{"larger than its rung only", []rec{fill(ladderSize(0) + 1), fill(ladderSize(1) + 1)},
			[]int{ladderSize(0) + 1, ladderSize(1) + 1}},
		{"zero-length key and payload", []rec{{0, 0}, {0, 0}, {0, 4}, {4, 0}, {0, 0}}, []int{ladderSize(0)}},
		{"1e5 small records", small, nil}, // sizes checked against the ladder below
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			budget := NewBudget(0)
			em := Emitter{budget: budget}
			content := func(i, n int, salt byte) []byte {
				return bytes.Repeat([]byte{byte(i)*7 + salt}, n)
			}
			for i, r := range tc.recs {
				em.Emit(content(i, r.klen, 1), byte(i), 8, content(i, r.plen, 2))
			}
			set := arenaRecords(t, &em)
			if len(set.recs) != len(tc.recs) {
				t.Fatalf("%d records stored, want %d", len(set.recs), len(tc.recs))
			}
			first := make(map[uint32]int) // chunk → bytes of the record that opened it
			for i, r := range tc.recs {
				key := content(i, r.klen, 1)
				got := set.recs[i]
				if !bytes.Equal(set.key(i), key) || !bytes.Equal(set.payload(i), content(i, r.plen, 2)) ||
					got.tag != byte(i) || got.size != 8+keyBytes(key) {
					t.Fatalf("record %d does not read back", i)
				}
				n := recLen(r.klen, r.plen, got.size)
				if start := int(got.off) - (n - r.klen - r.plen); start == 0 {
					first[got.src] = n
					if prev := int(got.src) - 1; prev >= 0 && len(em.chunks[prev])+n <= cap(em.chunks[prev]) {
						t.Errorf("record %d (%d bytes) opened chunk %d with %d bytes left in chunk %d", i, n, got.src, cap(em.chunks[prev])-len(em.chunks[prev]), prev)
					}
				}
			}
			var sum int64
			got := make([]int, len(em.chunks))
			for i, b := range em.chunks {
				got[i] = cap(b)
				sum += int64(cap(b))
				if want := max(ladderSize(i), first[uint32(i)]); cap(b) != want {
					t.Errorf("chunk %d is %d bytes, ladder wants %d", i, cap(b), want)
				}
			}
			if tc.chunks != nil && fmt.Sprint(got) != fmt.Sprint(tc.chunks) {
				t.Errorf("chunk sizes %v, want %v", got, tc.chunks)
			}
			if charged := budget.Stats().ChargedBytes; charged != sum {
				t.Errorf("charged %d bytes for %d bytes of chunks", charged, sum)
			}
		})
	}
}

// TestArenaIsolation guards the arena's chunk-rollover contract: bytes
// handed out earlier must stay intact when later records force new
// chunks, neighbours must not overlap, and a record larger than the
// chunk size gets a chunk of its own.
func TestArenaIsolation(t *testing.T) {
	var em Emitter
	big := bytes.Repeat([]byte{0xab}, arenaChunk/2+1)
	huge := bytes.Repeat([]byte{0x01}, arenaChunk+17)
	keys := [][]byte{[]byte("first-key"), big, big, big, []byte("aa"), []byte("bb"), huge}
	for i, k := range keys {
		em.Emit(k, tagInt, 8, []byte{byte(i)})
	}
	if len(em.chunks) < 4 {
		t.Fatalf("%d chunks: the large keys did not roll the arena over", len(em.chunks))
	}
	set := arenaRecords(t, &em)
	for i, k := range keys {
		if !bytes.Equal(set.key(i), k) || !bytes.Equal(set.payload(i), []byte{byte(i)}) {
			t.Fatalf("record %d corrupted: key %q payload %v", i, set.key(i), set.payload(i))
		}
		if want := keyBytes(k) + 8; set.recs[i].size != want {
			t.Errorf("record %d: size %d, want %d", i, set.recs[i].size, want)
		}
	}
}

// TestGroupedEmit holds a one-reducer task's Emit, which writes no record
// header, to its record array: over splits of small, repeated, empty and
// oversize records, packing on and off, every record's (src, off, klen,
// plen) reads back exactly the key and payload emitted, with its tag;
// each split's arena holds exactly Σ(len(key)+len(payload)) bytes; and
// the budget was charged the ladder over those lengths (ladderCharge).
func TestGroupedEmit(t *testing.T) {
	type rec struct {
		key, payload []byte
		tag          byte
	}
	content := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	var small, mixed, fill []rec
	for i := 0; i < 500; i++ {
		small = append(small, rec{[]byte(fmt.Sprint("k", i%37)), content(i%9, byte(i)), byte(i)})
	}
	mixed = []rec{{nil, nil, 1}, {[]byte("k1"), content(arenaChunk+5, 2), 2}, {nil, content(3, 3), 3},
		{[]byte("k1"), nil, 4}, {content(arenaChunk, 5), content(1, 5), 5}, {[]byte("k2"), content(7, 6), 6}}
	for i := 0; i < 3; i++ { // each fills its rung to the last byte
		fill = append(fill, rec{[]byte{byte(i)}, content(ladderSize(i)-1, byte(i)), byte(i)})
	}
	splits := [][]rec{small, nil, mixed, fill, small}
	for _, pack := range []bool{false, true} {
		budget := NewBudget(0)
		var sc taskScratch
		ks := sc.keySet(4, false)
		var recs []record
		var bufs [][]byte
		var stamps []int32
		var want []rec
		for si, split := range splits {
			em := Emitter{chunks: bufs, base: len(bufs), budget: budget, keys: ks,
				grouped: &recs, stamps: stamps, split: int32(si), pack: pack}
			before := budget.Stats().ChargedBytes
			needs := make([]int, len(split))
			total := 0
			for i, r := range split {
				em.Emit(r.key, r.tag, 8, r.payload)
				needs[i] = len(r.key) + len(r.payload)
				total += needs[i]
			}
			held := 0
			for _, b := range em.chunks[em.base:] {
				held += len(b)
			}
			if held != total {
				t.Errorf("pack %v split %d: arena holds %d bytes, want Σ(key+payload) = %d", pack, si, held, total)
			}
			if got, want := budget.Stats().ChargedBytes-before, ladderCharge(needs); got != want {
				t.Errorf("pack %v split %d: charged %d bytes, the ladder over its records wants %d", pack, si, got, want)
			}
			bufs, stamps = em.chunks, em.stamps
			want = append(want, split...)
		}
		if len(recs) != len(want) {
			t.Fatalf("pack %v: %d records in the array, want %d", pack, len(recs), len(want))
		}
		set := recordSet{bufs: bufs, recs: recs}
		for i, r := range want {
			if !bytes.Equal(set.key(i), r.key) || !bytes.Equal(set.payload(i), r.payload) || recs[i].tag != r.tag {
				t.Fatalf("pack %v: record %d does not read back", pack, i)
			}
		}
	}
}
