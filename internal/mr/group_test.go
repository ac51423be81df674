package mr

import (
	"bytes"
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

// partitionOf lays s out the way a reduce task finds it: the real shuffle
// task encodes it as the one segment of a single-reducer partition.
func partitionOf(t testing.TB, s *recordSet) [][]taskPartition {
	t.Helper()
	return [][]taskPartition{{*shuffleOne(t, *s, false)}}
}

// reduceOn is the one door the grouping tests go through: the production
// reduce path — reduceGroups, the code reduceTask calls — over s on
// worker scratch sc. The whole-partition slot gathers s's records in s's
// order, so the record indices a Group carries are then s's own.
func reduceOn(t testing.TB, sc *taskScratch, s *recordSet, slot reduceSlot, fn func(key []byte, msgs *Group)) {
	t.Helper()
	if _, err := reduceGroups(sc, partitionOf(t, s), slot, nil, fn); err != nil {
		t.Fatal(err)
	}
}

// groupOrder returns the record indices of s in the order a reduce task
// on sc delivers them: group after group, each group's messages in turn.
func groupOrder(t testing.TB, sc *taskScratch, s *recordSet) []int32 {
	t.Helper()
	order := make([]int32, 0, len(s.recs))
	reduceOn(t, sc, s, reduceSlot{}, func(_ []byte, msgs *Group) { order = append(order, msgs.run...) })
	return order
}

// stableOrder is the oracle for groupOrder: s's record indices stably
// sorted by key bytes — ascending keys, and ascending record index
// (arrival order) inside every key.
func stableOrder(s *recordSet) []int32 {
	want := make([]int32, len(s.recs))
	for i := range want {
		want[i] = int32(i)
	}
	slices.SortStableFunc(want, func(a, b int32) int { return bytes.Compare(s.key(int(a)), s.key(int(b))) })
	return want
}

// slotTrace renders what a reduce task of the given slot over s hands its
// reducer as one string: key, then each message in delivery order.
// Comparing traces compares key order, group boundaries and message order
// at once.
func slotTrace(t testing.TB, s *recordSet, slot reduceSlot) string {
	t.Helper()
	var out string
	reduceOn(t, &taskScratch{}, s, slot, func(key []byte, msgs *Group) {
		out += fmt.Sprintf("%q:", key)
		for i := 0; i < msgs.Len(); i++ {
			out += fmt.Sprintf("%v,", intAt(msgs, i))
		}
		out += ";"
	})
	return out
}

// groupTrace is slotTrace over the whole partition.
func groupTrace(t testing.TB, s *recordSet) string {
	t.Helper()
	return slotTrace(t, s, reduceSlot{})
}

// refTrace is the engine's original reduce grouping (hash map + sorted
// key list) rendered like groupTrace: the oracle the reduce task's
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
	if got := groupTrace(t, &recordSet{}); got != "" {
		t.Errorf("forEachGroup called fn on an empty partition: %s", got)
	}
}

func TestForEachGroupSingleKeyRun(t *testing.T) {
	got := groupTrace(t, setOf([]kv{{"k", 1}, {"k", 2}, {"k", 3}}))
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
		if got, want := groupTrace(t, setOf(kvs)), refTrace(kvs); got != want {
			t.Fatalf("trial %d: grouping diverged:\n got %s\nwant %s", trial, got, want)
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
	if gt, wt := groupTrace(t, s), refTrace(kvs); gt != wt {
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

// collidingKVs returns two record lists over distinct keys that only the
// key comparison on a hit tells apart, each key three times: keys that
// share a home slot at the table sizes their task — a reduce task's
// gather if partitioned, else a packing pass — gets, and pairs equal in
// all 32 bits of hashKey.
func collidingKVs(t *testing.T, partitioned bool) (low, full []kv) {
	t.Helper()
	repeated := func(keys []string) []kv {
		var kvs []kv
		for rep := 0; rep < 3; rep++ {
			for _, k := range keys {
				kvs = append(kvs, kv{k, int64(len(kvs))})
			}
		}
		return kvs
	}
	// 12 records get 32 slots, and a prefix of 6 of them the minimum 16
	// for their count: all four keys have home slot 11 of 32, so 5 (top
	// bits) or 11 (low bits) of 16.
	in32 := new(taskScratch).keySet(12, partitioned)
	low = repeated(searchKeys(4, func(k string) bool { return in32.home([]byte(k)) == 11 }))

	byHash := make(map[uint32]string)
	var pairs []string
	searchKeys(4, func(k string) bool {
		h := hashKey([]byte(k))
		if other, dup := byHash[h]; dup {
			pairs = append(pairs, other, k)
			return true
		}
		byHash[h] = k
		return false
	})
	for i := 0; i < len(pairs); i += 2 {
		if pairs[i] == pairs[i+1] || hashKey([]byte(pairs[i])) != hashKey([]byte(pairs[i+1])) {
			t.Fatalf("search returned a non-collision: %q, %q", pairs[i], pairs[i+1])
		}
	}
	return low, repeated(pairs)
}

// TestPackRecordsCollidingKeys feeds the packing pass's key set the
// colliding keys.
func TestPackRecordsCollidingKeys(t *testing.T) {
	low, full := collidingKVs(t, false)
	checkPacking(t, &taskScratch{}, low[:6]) // two keys, three times each
	checkPacking(t, &taskScratch{}, low)
	checkPacking(t, &taskScratch{}, full)
}

// TestReduceGroupingCollidingKeys feeds them to the reduce task's gather:
// the groups are exactly the map oracle's.
func TestReduceGroupingCollidingKeys(t *testing.T) {
	low, full := collidingKVs(t, true)
	for _, kvs := range [][]kv{low[:6], low, full} {
		if got, want := groupTrace(t, setOf(kvs)), refTrace(kvs); got != want {
			t.Errorf("colliding keys grouped as\n got %s\nwant %s", got, want)
		}
	}
}

// probesPerHit returns the mean number of slots looked at to find each
// of s's records, all of distinct keys, from its key's home slot, in the
// key set a task over them filled. ks is that set as the test took it
// from the task's scratch before the task ran: the task's own, taken for
// as many records, is the same slots under the same index.
func probesPerHit(ks *keySet, s *recordSet) float64 {
	mask := uint32(len(ks.slots) - 1)
	probes := 0
	for i := range s.recs {
		h := ks.home(s.key(i))
		for probes++; ks.slots[h] != int32(i+1); probes++ {
			h = (h + 1) & mask
		}
	}
	return float64(probes) / float64(len(s.recs))
}

// denseKeyShapes are integer-keyed tuples of the shapes a guard
// relation's key column has: tuple keys are varints, so consecutive ids
// differ in a byte or two.
var denseKeyShapes = []struct {
	name string
	gen  func(i int64) relation.Tuple
}{
	{"dense", func(i int64) relation.Tuple { return tup(i) }},
	{"table-multiple", func(i int64) relation.Tuple { return tup(i << 16) }},
	{"negative", func(i int64) relation.Tuple { return tup(-i - 1) }},
	{"first-of-two", func(i int64) relation.Tuple { return tup(i, 7) }},
	{"last-of-three", func(i int64) relation.Tuple { return tup(7, 7, i) }},
}

// TestPackRecordsProbeLength holds hashKey's low bits, a map task's home
// slots, against dense integer keys. Uniform hashing at the set's load (n
// records in ≥ 2n slots) gives at most 1.5 probes per hit; the bound is 2.
func TestPackRecordsProbeLength(t *testing.T) {
	const n = 24_500
	for _, g := range denseKeyShapes {
		var em Emitter
		for i := int64(0); i < n; i++ {
			emitInt(&em, []byte(g.gen(i).Key()), i)
		}
		var sc taskScratch
		ks := sc.keySet(n, false)
		if runs := packRecords(&sc, &em.set); runs != n {
			t.Fatalf("%s: %d runs over %d distinct keys", g.name, runs, n)
		}
		if got := probesPerHit(&ks, &em.set); got > 2 {
			t.Errorf("%s: %.2f probes per hit in %d slots, want ≤ 2", g.name, got, len(ks.slots))
		}
	}
}

// TestReduceGroupingProbeLength holds them against what a reduce task
// gathers: the same dense keys, but only those the partitioner sent to
// one reducer — hashKey(key) % R == ri, so the map side's index, the
// hash's low bits, would have size/gcd(size, R) home slots to offer (at
// R = 64, 128 of the 8 192 these 2 400 keys get). The bound is the
// packing pass's.
func TestReduceGroupingProbeLength(t *testing.T) {
	const n = 2400
	for _, reducers := range []uint32{2, 42, 64, 1024} {
		ri := reducers / 3
		for _, g := range denseKeyShapes {
			var em Emitter
			for i := int64(0); len(em.set.recs) < n; i++ {
				if key := []byte(g.gen(i).Key()); hashKey(key)%reducers == ri {
					emitInt(&em, key, i)
				}
			}
			var sc taskScratch
			ks := sc.keySet(n, true)
			if got := groupOrder(t, &sc, &em.set); len(got) != n {
				t.Fatalf("R=%d %s: %d of %d records delivered", reducers, g.name, len(got), n)
			}
			if got := probesPerHit(&ks, &em.set); got > 2 {
				t.Errorf("R=%d %s: %.2f probes per hit in %d slots, want ≤ 2", reducers, g.name, got, len(ks.slots))
			}
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

// taskAllocs is what a reduce task over one segment allocates whatever the
// segment holds: its record set's header, that set's one-entry buffer
// list and the Group view — the three objects that carry pointers and so
// cannot be the worker's scratch.
const taskAllocs = 3

// TestReduceGroupingWarmAllocatesNothing: on a scratch that has seen a
// task of the size, a reduce task's grouping allocates nothing — the key
// set, the refs, the counts and the index are all the worker's — so the
// whole task allocates its taskAllocs fixed objects and no more, at any
// partition size.
func TestReduceGroupingWarmAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sc taskScratch
	for _, shape := range []struct{ n, keys int }{{20_000, 3000}, {2000, 300}, {2000, 2000}, {1, 1}} {
		parts := partitionOf(t, setOf(randomKVs(rng, shape.n, shape.keys)))
		got := testing.AllocsPerRun(10, func() {
			if _, err := reduceGroups(&sc, parts, reduceSlot{}, nil, func([]byte, *Group) {}); err != nil {
				t.Fatal(err)
			}
		})
		if got != taskAllocs {
			t.Errorf("%d records over %d keys: %v allocations per reduce task on a warm scratch, want %d", shape.n, shape.keys, got, taskAllocs)
		}
	}
}

// TestReduceGroupingShapes is the shape table: every partition shape the
// grouping has an edge at, against the map oracle.
func TestReduceGroupingShapes(t *testing.T) {
	distinct := func(n int, key func(i int) string) []kv {
		kvs := make([]kv, 0, 2*n)
		for i := 0; i < n; i++ {
			kvs = append(kvs, kv{key(n - 1 - i), int64(i)}) // descending: nothing arrives sorted
		}
		for i := 0; i < n; i += 3 {
			kvs = append(kvs, kv{key(i), int64(n + i)}) // a late second message for every third key
		}
		return kvs
	}
	short := func(i int) string { return fmt.Sprintf("%05d", i) }
	long := func(i int) string { return fmt.Sprintf("shared-8-byte-prefix-%05d", i) }
	shapes := map[string][]kv{
		"empty":        nil,
		"one record":   {{"k", 1}},
		"one key":      {{"k", 1}, {"k", 2}, {"k", 3}},
		"all distinct": {{"d", 1}, {"b", 2}, {"a", 3}, {"c", 4}},
		"lengths 0, 8, 9 and a shared 8-byte prefix": {
			{"12345678", 1}, {"", 2}, {"123456789", 3}, {"12345678\x00", 4}, {"1234567", 5},
			{"12345678", 6}, {"", 7}, {"123456789", 8}, {"12345678\x00", 9}, {"1234567\x00", 10}},
	}
	for _, groups := range []int{radixBucketCutoff, radixMinLen - 1, radixMinLen, radixMinLen + 1, 3 * radixMinLen} {
		shapes[fmt.Sprintf("%d groups, short keys", groups)] = distinct(groups, short)
		shapes[fmt.Sprintf("%d groups past one prefix", groups)] = distinct(groups, long)
	}
	for name, kvs := range shapes {
		if got, want := groupTrace(t, setOf(kvs)), refTrace(kvs); got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}

	// A sub-range slot a heavy key has to itself — [key, key·0x00), what
	// the skew splitter cuts around a fully-stored sketch key — between
	// its neighbours' slots: one group, in arrival order, after one pass.
	kvs := []kv{{"hos", 1}, {"hot", 2}, {"hot\x00", 3}, {"hot", 4}, {"a", 5}, {"hot", 6}, {"hou", 7}, {"hot", 8}}
	s := setOf(kvs)
	for _, c := range []struct {
		slot reduceSlot
		want string
	}{
		{reduceSlot{hi: []byte("hot")}, `"a":5,;"hos":1,;`},
		{reduceSlot{lo: []byte("hot"), hi: []byte("hot\x00")}, `"hot":2,4,6,8,;`},
		{reduceSlot{lo: []byte("hot\x00")}, `"hot\x00":3,;"hou":7,;`},
	} {
		if got := slotTrace(t, s, c.slot); got != c.want {
			t.Errorf("slot [%q, %q): trace %s, want %s", c.slot.lo, c.slot.hi, got, c.want)
		}
	}
}
