package mr

import (
	"bytes"
	"fmt"
	"testing"
)

// ladderSize is the size the i-th chunk of a task's arena has unless a
// record larger than that opens it.
func ladderSize(i int) int {
	if i < len(arenaLadder) {
		return arenaLadder[i]
	}
	return arenaChunk
}

// TestArenaLadder walks the arena's edges: for every emit sequence all
// stored keys and payloads read back, chunk i has its ladder size (or
// exactly the size of the oversize record that opened it), records fill
// a chunk to the last byte before the next one opens, and the budget was
// charged the sum of the chunk lengths — the charge contract, a function
// of the bytes emitted alone.
func TestArenaLadder(t *testing.T) {
	type rec struct{ klen, plen int }
	fill := func(n int) rec { return rec{n / 3, n - n/3} }
	small := make([]rec, 100_000)
	for i := range small {
		small[i] = rec{1 + i%11, i % 5}
	}
	cases := []struct {
		name   string
		recs   []rec
		chunks []int // expected chunk lengths
	}{
		{"exactly fills the first chunk", []rec{fill(1000), fill(arenaLadder[0] - 1000)}, []int{arenaLadder[0]}},
		{"one byte more", []rec{fill(1000), fill(arenaLadder[0] - 1000 + 1)}, []int{arenaLadder[0], arenaLadder[1]}},
		{"exactly fills the second chunk", []rec{fill(arenaLadder[0]), fill(arenaLadder[1]), {0, 1}},
			[]int{arenaLadder[0], arenaLadder[1], arenaChunk}},
		{"oversize first", []rec{fill(arenaChunk + 17), {2, 3}}, []int{arenaChunk + 17, arenaLadder[1]}},
		{"oversize later", []rec{{2, 3}, fill(arenaChunk + 17), {2, 3}, fill(arenaChunk + 1)},
			[]int{arenaLadder[0], arenaChunk + 17, arenaChunk, arenaChunk + 1}},
		{"larger than its rung only", []rec{fill(arenaLadder[0] + 1), fill(arenaLadder[1] + 1)},
			[]int{arenaLadder[0] + 1, arenaLadder[1] + 1}},
		{"zero-length key and payload", []rec{{0, 0}, {0, 0}, {0, 4}, {4, 0}, {0, 0}}, []int{arenaLadder[0]}},
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
				em.Emit(content(i, r.klen, 1), tagInt, 8, content(i, r.plen, 2))
			}
			if len(em.set.recs) != len(tc.recs) {
				t.Fatalf("%d records stored, want %d", len(em.set.recs), len(tc.recs))
			}
			first := make(map[uint32]int) // chunk → bytes of the record that opened it
			for i, r := range tc.recs {
				if !bytes.Equal(em.set.key(i), content(i, r.klen, 1)) || !bytes.Equal(em.set.payload(i), content(i, r.plen, 2)) {
					t.Fatalf("record %d does not read back", i)
				}
				if src := em.set.recs[i].src; em.set.recs[i].off == 0 {
					first[src] = r.klen + r.plen
				}
			}
			var sum int64
			got := make([]int, len(em.set.bufs))
			for i, b := range em.set.bufs {
				got[i] = len(b)
				sum += int64(len(b))
				if want := max(ladderSize(i), first[uint32(i)]); len(b) != want {
					t.Errorf("chunk %d is %d bytes, ladder wants %d", i, len(b), want)
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
