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

// Charges returns what the split's records cost the arenas of the two
// job shapes. bare is each record's length in its one-reducer task's
// arena, in emit order: its payload, plus its key when it opened its key
// group — the task lays every split's records on one ladder, so the
// caller replays LadderCharge over the bare lengths of all of a job's
// splits in order. headed is what the split's arena is charged as a map
// task's, which writes each record's header and key ahead of its
// payload: the ladder replayed over those lengths. encoded is the
// headed records' bytes, what the map task's shuffle task charges for
// the buffer it copies them into.
func (s InlineSplit) Charges() (bare []int, headed, encoded int64) {
	recs := s.recs[s.from:]
	bare, h := make([]int, len(recs)), make([]int, len(recs))
	for i, r := range recs {
		bare[i] = int(r.plen)
		if int(r.group) == s.from+i {
			bare[i] += int(r.klen)
		}
		h[i] = recLen(int(r.klen), int(r.plen), r.size)
		encoded += int64(h[i])
	}
	return bare, ladderCharge(h), encoded
}

// LadderCharge is ladderCharge for the package's external tests.
func LadderCharge(needs []int) int64 { return ladderCharge(needs) }

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
				if start := int(got.off) - (n - r.plen); start == 0 {
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

// TestGroupedEmit pins the layout of a one-reducer task's Emit, which
// writes no record header and each distinct key once: over splits of
// small, repeated, empty and oversize records, packing on and off, from
// an empty record array, after every split the arena holds exactly the
// split's and its predecessors' payload bytes plus the bytes of the
// distinct keys among them, and the budget was charged one ladder
// (ladderCharge) over those records' bare lengths across the splits —
// a key's bytes go with the record that opens its group. Every record's
// payload, tag and modelled size read back, its key group is the index
// of its key's first record, whose stored key — and the key set's entry
// for the group — read back the key emitted.
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
	for i := 0; i < 3; i++ { // fresh keys whose records fill the first three rungs, were they alone
		fill = append(fill, rec{[]byte{'f', byte(i)}, content(ladderSize(i)-2, byte(i)), byte(i)})
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
		var needs []int           // every record's bare length, across the splits
		first := map[string]int{} // a key's first record
		total := 0
		for si, split := range splits {
			em := Emitter{chunks: bufs, budget: budget, keys: ks,
				grouped: &recs, stamps: stamps, split: int32(si), pack: pack}
			seen := map[string]bool{} // the split's keys
			for _, r := range split {
				em.Emit(r.key, r.tag, 8, r.payload)
				need := len(r.payload)
				if _, ok := first[string(r.key)]; !ok {
					first[string(r.key)] = len(want)
					need += len(r.key)
				}
				size := int64(8)
				if !pack || !seen[string(r.key)] {
					size += keyBytes(r.key)
				}
				seen[string(r.key)] = true
				if got := recs[len(want)].size; got != size {
					t.Fatalf("pack %v split %d: record %d has size %d, want %d", pack, si, len(want), got, size)
				}
				needs = append(needs, need)
				total += need
				want = append(want, r)
			}
			bufs, stamps = em.chunks, em.stamps
			held := 0
			for _, b := range bufs {
				held += len(b)
			}
			if held != total {
				t.Errorf("pack %v after split %d: arena holds %d bytes, want Σ payload + Σ distinct key = %d", pack, si, held, total)
			}
			if got, want := budget.Stats().ChargedBytes, ladderCharge(needs); got != want {
				t.Errorf("pack %v after split %d: charged %d bytes, one ladder over the task's records wants %d", pack, si, got, want)
			}
		}
		if len(recs) != len(want) {
			t.Fatalf("pack %v: %d records in the array, want %d", pack, len(recs), len(want))
		}
		set := recordSet{bufs: bufs, recs: recs}
		for i, r := range want {
			g := int(recs[i].group)
			if g != first[string(r.key)] || !bytes.Equal(set.key(g), r.key) ||
				!bytes.Equal(set.payload(i), r.payload) || recs[i].tag != r.tag {
				t.Fatalf("pack %v: record %d does not read back (group %d)", pack, i, g)
			}
		}
		if len(ks.locs) != len(first) {
			t.Fatalf("pack %v: %d key set entries, want %d distinct keys", pack, len(ks.locs), len(first))
		}
		for _, l := range ks.locs {
			if k := want[l.first].key; !bytes.Equal(bufs[l.src][l.off:l.off+l.klen], k) || first[string(k)] != int(l.first) {
				t.Fatalf("pack %v: the entry of key %q does not read back", pack, k)
			}
		}
	}
}

// encodeRecord is the record wire form written the plain way, a
// uvarint per header field: the oracle for Emit's header.
func encodeRecord(dst, key []byte, tag byte, size int64, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = binary.AppendUvarint(dst, uint64(size))
	dst = append(dst, tag)
	dst = append(dst, key...)
	return append(dst, payload...)
}

// TestRecordHeaderFastPath holds Emit's four-byte header to the uvarint
// encoding at the edges of its fast path: key lengths, payload lengths
// and modelled sizes of 127 (the last one-byte uvarint), 128 (the first
// two-byte one) and 16 384 (the first three-byte one), each alone past
// the edge and all mixed within one arena. The arena's bytes must equal
// encodeRecord's byte for byte — a record never spans chunks, so the
// chunks' fills laid end to end are the records back to back — and every
// record must decode through readRecord from the arena, and through the
// shuffle task and the one reader, resident and spilled.
func TestRecordHeaderFastPath(t *testing.T) {
	type rec struct {
		klen, plen int
		size       int64 // the modelled size Emit stores: it adds keyBytes(key) to what it is given
	}
	edges := []int{0, 1, 127, 128, 16384}
	var mixed []rec
	for _, k := range edges {
		for _, p := range edges {
			for _, s := range []int64{127, 128, 16384} {
				mixed = append(mixed, rec{k, p, max(s, keyBytes(make([]byte, k)))})
			}
		}
	}
	cases := []struct {
		name string
		recs []rec
	}{
		{"all one byte", []rec{{0, 0, 2}, {1, 1, 127}, {127, 127, 127}}},
		{"key length 128", []rec{{127, 3, 127}, {128, 3, 128}, {127, 3, 127}}},
		{"payload length 128", []rec{{5, 127, 127}, {5, 128, 127}, {5, 127, 127}}},
		{"size 128", []rec{{5, 5, 127}, {5, 5, 128}, {5, 5, 127}}},
		{"16 384 each", []rec{{16384, 1, 16384}, {1, 16384, 127}, {1, 1, 16384}, {1, 1, 127}}},
		{"mixed in one arena", mixed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			em := Emitter{budget: NewBudget(0)}
			var want []byte
			for i, r := range tc.recs {
				key := bytes.Repeat([]byte{byte(i)}, r.klen)
				payload := bytes.Repeat([]byte{byte(i) + 1}, r.plen)
				em.Emit(key, byte(i), r.size-keyBytes(key), payload)
				want = encodeRecord(want, key, byte(i), r.size, payload)
			}
			if got := bytes.Join(em.chunks, nil); !bytes.Equal(got, want) {
				t.Fatalf("arena holds %d bytes, the uvarint encoding %d; first difference at byte %d",
					len(got), len(want), firstDiff(got, want))
			}
			check := func(where string, set *recordSet) {
				t.Helper()
				if len(set.recs) != len(tc.recs) {
					t.Fatalf("%s: %d records decode, want %d", where, len(set.recs), len(tc.recs))
				}
				for i, r := range tc.recs {
					got := set.recs[i]
					if len(set.key(i)) != r.klen || len(set.payload(i)) != r.plen || got.size != r.size || got.tag != byte(i) ||
						!bytes.Equal(set.key(i), bytes.Repeat([]byte{byte(i)}, r.klen)) ||
						!bytes.Equal(set.payload(i), bytes.Repeat([]byte{byte(i) + 1}, r.plen)) {
						t.Fatalf("%s: record %d decodes as key %d, payload %d, size %d, tag %d; want %+v, tag %d",
							where, i, len(set.key(i)), len(set.payload(i)), got.size, got.tag, r, byte(i))
					}
				}
			}
			check("arena", arenaRecords(t, &em))
			for _, spill := range []bool{false, true} {
				got, err := readAll(shuffleOne(t, &em, spill))
				if err != nil {
					t.Fatalf("spill %v: %v", spill, err)
				}
				check(fmt.Sprintf("spill %v", spill), &got)
			}
		})
	}
}

// firstDiff is the index of the first byte where a and b differ, or the
// shorter one's length.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
