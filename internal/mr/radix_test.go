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

func kvsFromKeys(keys [][]byte) []kv {
	kvs := make([]kv, len(keys))
	for i, k := range keys {
		kvs[i] = kv{string(k), int64(i)}
	}
	return kvs
}

// TestRadixMatchesComparisonSort is the old-vs-new differential for the
// key order itself: a reduce task must visit keys in exactly the order of
// the string-key implementation it replaced — plain lexicographic order,
// pinned here by sort.Strings — whichever sort orders its distinct keys,
// deliver every record once, and deliver each key's records in arrival
// order.
func TestRadixMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc taskScratch // reused: a warm scratch must group like a cold one
	radix := 0
	for trial := 0; trial < 30; trial++ {
		// Mix sizes so the distinct keys straddle radixMinLen and both
		// sorts run.
		n := rng.Intn(radixMinLen * 4)
		keys := genAdversarialKeys(rng, n)
		em := setOf(kvsFromKeys(keys))
		recs := arenaRecords(t, em)

		want := make([]string, n)
		for i, k := range keys {
			want[i] = string(k)
		}
		sort.Strings(want)

		idx := groupOrder(t, &sc, em)
		if len(idx) != n {
			t.Fatalf("trial %d: %d records delivered, want %d", trial, len(idx), n)
		}
		seen := make([]bool, n)
		groups := 0
		for pos, id := range idx {
			if seen[id] {
				t.Fatalf("trial %d: record %d delivered twice", trial, id)
			}
			seen[id] = true
			if got := string(recs.key(int(id))); got != want[pos] {
				t.Fatalf("trial %d: key %d = %q, want %q", trial, pos, got, want[pos])
			}
			if pos == 0 || want[pos] != want[pos-1] {
				groups++
			} else if id < idx[pos-1] {
				t.Fatalf("trial %d: key %q delivers record %d after record %d: not arrival order", trial, want[pos], id, idx[pos-1])
			}
		}
		if groups >= radixMinLen {
			radix++
		}
	}
	if radix == 0 || radix == 30 {
		t.Errorf("%d of 30 trials had radixMinLen distinct keys: one of the two sorts never ran", radix)
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
		kvs := kvsFromKeys(keys)
		want := refTrace(kvs)
		got := groupTrace(t, setOf(kvs))
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
