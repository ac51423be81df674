package mr

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"
)

// genAdversarialKeys builds shuffle keys that stress every branch of the
// key order: empty keys, keys straddling the packed 8-byte prefix
// (lengths 7, 8 and 9+), long shared prefixes that differ only past the
// prefix, zero bytes that collide with the prefix's right-padding, and
// heavy duplication (the small suffix alphabet guarantees repeats).
func genAdversarialKeys(rng *rand.Rand, n int) [][]byte {
	prefixes := [][]byte{
		nil, // empty / suffix-only keys
		{0x00},
		{0x00, 0x00},
		[]byte("shared"), // 6 bytes
		{0x80, 0xff, 0x00, 0x01, 0x7f, 0xfe, 0x02},       // 7 bytes
		{0x80, 0xff, 0x00, 0x01, 0x7f, 0xfe, 0x02, 0x81}, // exactly 8
		[]byte("shared-prefix-longer-than-8"),
	}
	alphabet := []byte{0x00, 0x01, 0x7f, 0x80, 0xff}
	keys := make([][]byte, n)
	for i := range keys {
		k := append([]byte(nil), prefixes[rng.Intn(len(prefixes))]...)
		for j := rng.Intn(4); j > 0; j-- {
			k = append(k, alphabet[rng.Intn(len(alphabet))])
		}
		keys[i] = k
	}
	return keys
}

func recsFromKeys(keys [][]byte) []record {
	recs := make([]record, len(keys))
	for i, k := range keys {
		recs[i] = record{key: k, msg: intMsg(i), size: KeyBytes(k) + 8}
	}
	return recs
}

// TestRadixMatchesComparisonSort is the old-vs-new differential for the
// sort itself: the radix path must visit keys in exactly the order of the string-key implementation it replaced —
// plain lexicographic order, pinned here by sort.Strings — and must be
// a permutation of the input.
func TestRadixMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		// Mix sizes straddling radixMinLen so both entry paths run.
		n := rng.Intn(radixMinLen * 4)
		keys := genAdversarialKeys(rng, n)
		recs := recsFromKeys(keys)

		want := make([]string, n)
		for i, k := range keys {
			want[i] = string(k)
		}
		sort.Strings(want)

		idx := sortIndexByKey(recs)
		if len(idx) != n {
			t.Fatalf("trial %d: index len %d, want %d", trial, len(idx), n)
		}
		seen := make([]bool, n)
		for pos, id := range idx {
			if seen[id] {
				t.Fatalf("trial %d: index %d visited twice", trial, id)
			}
			seen[id] = true
			if got := string(recs[id].key); got != want[pos] {
				t.Fatalf("trial %d: key %d = %q, want %q", trial, pos, got, want[pos])
			}
		}
	}
}

// TestForEachGroupBoundariesAdversarialKeys extends the grouping
// differential to the adversarial key mix: run boundaries, key order and
// per-key message arrival order must match the map-based string-key
// oracle on empty keys, 8-byte-boundary lengths and shared prefixes, at
// sizes that engage the radix sorter.
func TestForEachGroupBoundariesAdversarialKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		n := radixMinLen + rng.Intn(radixMinLen*2)
		keys := genAdversarialKeys(rng, n)
		recs := make([]record, n)
		for i, k := range keys {
			var msg Message = intMsg(i)
			if rng.Intn(5) == 0 {
				msg = Packed{Msgs: []Message{intMsg(1000 * i), intMsg(1000*i + 1)}}
			}
			recs[i] = record{key: k, msg: msg, size: KeyBytes(k) + 8}
		}
		want := groupTrace(refGroup, append([]record(nil), recs...))
		got := groupTrace(forEachGroup, append([]record(nil), recs...))
		if got != want {
			t.Fatalf("trial %d: grouping diverged:\n got %s\nwant %s", trial, got, want)
		}
	}
}

// TestHashKeyPartitionMatchesStringImpl pins shuffle partition
// assignment across the string→[]byte key migration: FNV-1a over the
// key bytes — and therefore hash%reducers for every reducer count —
// must match the string-key implementation (hash/fnv over the same
// bytes) on the adversarial key mix.
func TestHashKeyPartitionMatchesStringImpl(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	keys := genAdversarialKeys(rng, 2000)
	keys = append(keys, nil, []byte{}, bytes.Repeat([]byte{0xff}, 40))
	for _, k := range keys {
		h := fnv.New32a()
		h.Write(k)
		want := h.Sum32()
		if got := hashKey(k); got != want {
			t.Fatalf("hashKey(%q) = %d, want %d", k, got, want)
		}
		for _, reducers := range []uint32{1, 2, 7, 33, 509} {
			if hashKey(k)%reducers != want%reducers {
				t.Fatalf("partition of %q drifted at r=%d", k, reducers)
			}
		}
	}
}

// TestEmitPathZeroKeyAllocs is the allocation regression guard for the
// tentpole: emitting a record on the engine's production emit path
// (emitInto — arena key copy, sized record append) must allocate
// nothing per record once the task's arena chunk and record buffer
// exist.
func TestEmitPathZeroKeyAllocs(t *testing.T) {
	var arena keyArena
	recs := make([]record, 0, 4)
	emit := emitInto(&arena, &recs)
	var msg Message = intMsg(7)
	key := []byte(tup(42, 7).Key())
	emit(key, msg) // warm: allocates the first arena chunk
	recs = recs[:0]
	allocs := testing.AllocsPerRun(5000, func() {
		recs = recs[:0]
		emit(key, msg)
	})
	if allocs != 0 {
		t.Errorf("emit path allocates %v per record, want 0", allocs)
	}
}

// TestKeyArenaIsolation guards the arena's chunk-rollover contract:
// keys handed out earlier must stay intact when later keys force new
// chunks, and held keys must be capped so appends cannot clobber a
// neighbour.
func TestKeyArenaIsolation(t *testing.T) {
	var arena keyArena
	first := arena.hold([]byte("first-key"))
	// Force several chunk rollovers with large keys.
	big := bytes.Repeat([]byte{0xab}, keyArenaChunk/2+1)
	for i := 0; i < 5; i++ {
		if got := arena.hold(big); !bytes.Equal(got, big) {
			t.Fatalf("rollover %d corrupted the held key", i)
		}
	}
	if string(first) != "first-key" {
		t.Fatalf("chunk rollover corrupted an earlier key: %q", first)
	}
	a := arena.hold([]byte("aa"))
	_ = append(a, 'X') // must not touch the next key's bytes
	b := arena.hold([]byte("bb"))
	if string(b) != "bb" {
		t.Fatalf("append through a held key clobbered its neighbour: %q", b)
	}
	// A key larger than the chunk size gets its own chunk.
	huge := bytes.Repeat([]byte{0x01}, keyArenaChunk+17)
	if got := arena.hold(huge); !bytes.Equal(got, huge) {
		t.Fatal("oversized key corrupted")
	}
}
