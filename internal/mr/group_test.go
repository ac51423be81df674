package mr

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/relation"
)

// kv is one test record: a key and an int message (see emitInt).
type kv struct {
	key string
	v   int64
}

// setOf builds a record set the way a map task does: through the
// production Emitter, sizes fixed at emit.
func setOf(kvs []kv) *recordSet {
	var em Emitter
	for _, r := range kvs {
		emitInt(&em, []byte(r.key), r.v)
	}
	return &em.set
}

// groupTrace renders the sort-based grouping of s as one string: key,
// then each message in delivery order. Comparing traces compares key
// order, group boundaries and message order at once.
func groupTrace(s *recordSet) string {
	var out string
	forEachGroup(s, sortIndexByKey(&taskScratch{}, s), func(key []byte, msgs *Group) {
		out += fmt.Sprintf("%q:", key)
		for i := 0; i < msgs.Len(); i++ {
			out += fmt.Sprintf("%v,", intAt(msgs, i))
		}
		out += ";"
	})
	return out
}

// refTrace is the engine's pre-sort-based reduce grouping (hash map +
// sorted key list) rendered like groupTrace: the oracle the sort-based
// grouping must reproduce byte for byte. It works on string keys — the
// engine's original key representation — so it also serves as the
// string-keyed oracle for the byte-slice key differential tests in
// radix_test.go.
func refTrace(kvs []kv) string {
	groups := make(map[string][]int64)
	var keys []string
	for _, r := range kvs {
		if _, seen := groups[r.key]; !seen {
			keys = append(keys, r.key)
		}
		groups[r.key] = append(groups[r.key], r.v)
	}
	sort.Strings(keys)
	var out string
	for _, k := range keys {
		out += fmt.Sprintf("%q:", k)
		for _, v := range groups[k] {
			out += fmt.Sprintf("%v,", v)
		}
		out += ";"
	}
	return out
}

func TestForEachGroupEmptyPartition(t *testing.T) {
	if got := groupTrace(&recordSet{}); got != "" {
		t.Errorf("forEachGroup called fn on an empty partition: %s", got)
	}
}

func TestForEachGroupSingleKeyRun(t *testing.T) {
	got := groupTrace(setOf([]kv{{"k", 1}, {"k", 2}, {"k", 3}}))
	if want := `"k":1,2,3,;`; got != want {
		t.Errorf("trace = %s, want %s", got, want)
	}
}

// randomKVs draws n records over the given number of distinct keys.
func randomKVs(rng *rand.Rand, n, keys int) []kv {
	kvs := make([]kv, n)
	for i := range kvs {
		kvs[i] = kv{fmt.Sprintf("k%03d", rng.Intn(keys)), int64(i)}
	}
	return kvs
}

// TestForEachGroupMatchesMapGrouping drives both groupings over
// randomized skewed-key partitions and requires identical traces: same
// key order, same group boundaries, same message order.
func TestForEachGroupMatchesMapGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		kvs := randomKVs(rng, rng.Intn(400), rng.Intn(20)+1)
		if got, want := groupTrace(setOf(kvs)), refTrace(kvs); got != want {
			t.Fatalf("trial %d: sort-based grouping diverged:\n got %s\nwant %s", trial, got, want)
		}
	}
}

// checkPacking runs packRecords over kvs on sc and holds it to the
// map-based definition of packing in first-occurrence terms: record
// order untouched, exactly the first record of each key keeps its key
// bytes, runs = distinct keys, and the groups a reducer sees unchanged.
func checkPacking(t *testing.T, sc *taskScratch, kvs []kv) {
	t.Helper()
	s := setOf(kvs)
	before := slices.Clone(s.recs)
	runs := packRecords(sc, s)
	if len(s.recs) != len(kvs) {
		t.Fatalf("packing left %d records of %d", len(s.recs), len(kvs))
	}
	seen := make(map[string]bool)
	for i, r := range kvs {
		want := before[i]
		if seen[r.key] {
			want.size -= KeyBytes([]byte(r.key))
		}
		seen[r.key] = true
		if s.recs[i] != want {
			t.Fatalf("record %d (key %q): %+v, want %+v", i, r.key, s.recs[i], want)
		}
	}
	if runs != int64(len(seen)) {
		t.Fatalf("packed %d runs, want %d distinct keys", runs, len(seen))
	}
	if gt, wt := groupTrace(s), refTrace(kvs); gt != wt {
		t.Fatalf("packing diverged after grouping:\n got %s\nwant %s", gt, wt)
	}
}

func TestPackRecordsMatchesMapPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var warm taskScratch
	for trial := 0; trial < 50; trial++ {
		kvs := randomKVs(rng, rng.Intn(300), rng.Intn(15)+1)
		checkPacking(t, &taskScratch{}, kvs)
		checkPacking(t, &warm, kvs)
	}
}

func TestPackRecordsEmptyAndSingle(t *testing.T) {
	checkPacking(t, &taskScratch{}, nil)
	checkPacking(t, &taskScratch{}, []kv{{"k", 1}})
}

// searchKeys returns the first n keys "c0", "c1", … that keep accepts.
func searchKeys(n int, keep func(key string) bool) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("c%d", i); keep(k) {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestPackRecordsCollidingKeys feeds the key set distinct keys that
// share a home slot — equal low hash bits at the table size their task
// gets, and pairs equal in all 32 bits of hashKey — each repeated, so
// only the key comparison on a hit tells them apart.
func TestPackRecordsCollidingKeys(t *testing.T) {
	repeated := func(keys []string) []kv {
		var kvs []kv
		for rep := 0; rep < 3; rep++ {
			for _, k := range keys {
				kvs = append(kvs, kv{k, int64(len(kvs))})
			}
		}
		return kvs
	}
	// 6 records get the minimum 16 slots for their count, 12 get 32;
	// all four keys have home slot 5 in both.
	low := searchKeys(4, func(k string) bool { return hashKey([]byte(k))&31 == 5 })
	checkPacking(t, &taskScratch{}, repeated(low[:2]))
	checkPacking(t, &taskScratch{}, repeated(low))

	byHash := make(map[uint32]string)
	var full []string
	searchKeys(4, func(k string) bool {
		h := hashKey([]byte(k))
		if other, dup := byHash[h]; dup {
			full = append(full, other, k)
			return true
		}
		byHash[h] = k
		return false
	})
	for i := 0; i < len(full); i += 2 {
		if full[i] == full[i+1] || hashKey([]byte(full[i])) != hashKey([]byte(full[i+1])) {
			t.Fatalf("search returned a non-collision: %q, %q", full[i], full[i+1])
		}
	}
	checkPacking(t, &taskScratch{}, repeated(full))
}

// TestPackRecordsProbeLength holds hashKey's low bits against dense
// integer keys, the shape a guard relation's key column has: tuple keys
// are varints, so consecutive ids differ in a byte or two. Uniform
// hashing at the set's load (n records in ≥ 2n slots) gives at most 1.5
// probes per hit; the bound is 2.
func TestPackRecordsProbeLength(t *testing.T) {
	const n = 24_500
	for _, g := range []struct {
		name string
		gen  func(i int64) relation.Tuple
	}{
		{"dense", func(i int64) relation.Tuple { return tup(i) }},
		{"table-multiple", func(i int64) relation.Tuple { return tup(i << 16) }},
		{"negative", func(i int64) relation.Tuple { return tup(-i - 1) }},
		{"first-of-two", func(i int64) relation.Tuple { return tup(i, 7) }},
		{"last-of-three", func(i int64) relation.Tuple { return tup(7, 7, i) }},
	} {
		name, gen := g.name, g.gen
		var em Emitter
		for i := int64(0); i < n; i++ {
			emitInt(&em, []byte(gen(i).Key()), i)
		}
		var sc taskScratch
		if runs := packRecords(&sc, &em.set); runs != n {
			t.Fatalf("%s: %d runs over %d distinct keys", name, runs, n)
		}
		mask := uint32(len(sc.keys) - 1)
		probes := 0
		for i := range em.set.recs {
			h := hashKey(em.set.key(i)) & mask
			for probes++; sc.keys[h] != int32(i+1); probes++ {
				h = (h + 1) & mask
			}
		}
		if got := float64(probes) / n; got > 2 {
			t.Errorf("%s: %.2f probes per hit in %d slots, want ≤ 2", name, got, len(sc.keys))
		}
	}
}

// TestPackRecordsWarmAllocatesNothing: on a scratch that has seen a
// task of the size, the accounting pass allocates nothing.
func TestPackRecordsWarmAllocatesNothing(t *testing.T) {
	s := setOf(randomKVs(rand.New(rand.NewSource(4)), 2000, 300))
	var sc taskScratch
	if got := testing.AllocsPerRun(10, func() { packRecords(&sc, s) }); got != 0 {
		t.Errorf("packRecords allocates %v times per task on a warm scratch, want 0", got)
	}
}
