package mr

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/relation"
)

// kv is one test record: a key and an int message (see emitInt).
type kv struct {
	key string
	v   int64
}

// setOf emits kvs the way a map task does: through the production
// Emitter, into its arena, sizes fixed at emit.
func setOf(kvs []kv) *Emitter {
	em := new(Emitter)
	for _, r := range kvs {
		emitInt(em, []byte(r.key), r.v)
	}
	return em
}

// arenaRecords reads a map task's output back: every record of em's
// chunks, in emit order, through the production decoder — what the
// shuffle task sees.
func arenaRecords(t testing.TB, em *Emitter) *recordSet {
	t.Helper()
	set := &recordSet{bufs: em.chunks}
	for src, chunk := range em.chunks {
		for pos := 0; pos < len(chunk); {
			r, next, err := readRecord(chunk, pos)
			if err != nil {
				t.Fatalf("chunk %d does not decode at byte %d: %v", src, pos, err)
			}
			r.src = uint32(src)
			set.recs = append(set.recs, r)
			pos = next
		}
	}
	if int64(len(set.recs)) != em.records {
		t.Fatalf("arena holds %d records, the emitter counted %d", len(set.recs), em.records)
	}
	return set
}

// partitionOf lays s out the way a reduce task finds it: the real shuffle
// task hands its arena over as the one segment of a single-reducer
// partition.
func partitionOf(t testing.TB, s *Emitter) [][]taskPartition {
	t.Helper()
	return [][]taskPartition{{*shuffleOne(t, s, false)}}
}

// reduceOn is the one door the grouping tests go through: the production
// reduce path — reduceGroups, the gather reduceTask calls — over s on
// worker scratch sc. The partition's lone reducer gathers s's records in
// s's order, so the record indices a Group carries are then s's own.
func reduceOn(t testing.TB, sc *taskScratch, s *Emitter) *groupedSet {
	t.Helper()
	g, err := reduceGroups(sc, partitionOf(t, s), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// groupOrder returns the record indices of s in the order a reduce task
// on sc delivers them: group after group, each group's messages in turn.
func groupOrder(t testing.TB, sc *taskScratch, s *Emitter) []int32 {
	t.Helper()
	order := make([]int32, 0, s.records)
	g := reduceOn(t, sc, s)
	g.each(0, len(g.locs), func(_ []byte, msgs *Group) { order = append(order, msgs.run...) })
	return order
}

// arrivalOrder is the oracle for groupOrder: the indices of s's records,
// as read back from its arena, grouped by key through a map — keys in the
// order of their first record, and ascending record index (arrival order)
// inside every key.
func arrivalOrder(t testing.TB, em *Emitter) []int32 {
	t.Helper()
	s := arenaRecords(t, em)
	groups := make(map[string][]int32)
	var keys []string
	for i := range s.recs {
		k := string(s.key(i))
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], int32(i))
	}
	want := make([]int32, 0, len(s.recs))
	for _, k := range keys {
		want = append(want, groups[k]...)
	}
	return want
}

// traceGroups renders what groups [lo, hi) of g hand their reducer as
// one string: key, then each message in delivery order. Comparing traces
// compares key order, group boundaries and message order at once.
func traceGroups(g *groupedSet, lo, hi int) string {
	var out string
	g.each(lo, hi, func(key []byte, msgs *Group) {
		out += fmt.Sprintf("%q:", key)
		for i := 0; i < msgs.Len(); i++ {
			out += fmt.Sprintf("%v,", intAt(msgs, i))
		}
		out += ";"
	})
	return out
}

// groupTrace is traceGroups over every group of a reduce task over s.
func groupTrace(t testing.TB, s *Emitter) string {
	t.Helper()
	g := reduceOn(t, &taskScratch{}, s)
	return traceGroups(g, 0, len(g.locs))
}

// refTrace is the reduce grouping done with a hash map — keys in the
// order of their first record, messages in arrival order — rendered like
// groupTrace: the oracle the reduce task's grouping must reproduce byte
// for byte. It works on string keys, the engine's original key
// representation, so it is also the string-keyed oracle for the
// byte-slice keys of the adversarial key mix.
func refTrace(kvs []kv) string {
	groups := make(map[string][]int64)
	var keys []string
	for _, r := range kvs {
		if _, seen := groups[r.key]; !seen {
			keys = append(keys, r.key)
		}
		groups[r.key] = append(groups[r.key], r.v)
	}
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
	if got := groupTrace(t, &Emitter{}); got != "" {
		t.Errorf("each called fn on an empty partition: %s", got)
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
// key order (first arrival), same group boundaries, same message order.
func TestForEachGroupMatchesMapGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		kvs := randomKVs(rng, rng.Intn(400), rng.Intn(20)+1)
		if got, want := groupTrace(t, setOf(kvs)), refTrace(kvs); got != want {
			t.Fatalf("trial %d: grouping diverged:\n got %s\nwant %s", trial, got, want)
		}
	}
}

// checkPacking emits kvs with packing on — a map task on sc whose key set
// was sized for hint keys — and holds the emit-time decision to the
// map-based definition of packing, PR 21's accounting rule replayed over
// a test-local map from key to first arrival: records in arrival order
// with their bytes untouched, exactly the first record of each key
// charged its key bytes, the distinct-key count and the byte total those
// sizes sum to, and the groups a reducer sees unchanged.
func checkPacking(t *testing.T, sc *taskScratch, kvs []kv, hint int) {
	t.Helper()
	em := &Emitter{keys: sc.keySet(hint, false)}
	for _, r := range kvs {
		emitInt(em, []byte(r.key), r.v)
	}
	s := arenaRecords(t, em)
	if len(s.recs) != len(kvs) {
		t.Fatalf("packing left %d records of %d", len(s.recs), len(kvs))
	}
	seen := make(map[string]bool)
	var total int64
	for i, r := range kvs {
		want := int64(8)
		if !seen[r.key] {
			want += keyBytes([]byte(r.key))
		}
		seen[r.key] = true
		total += want
		if v, _ := binary.Varint(s.payload(i)); string(s.key(i)) != r.key || v != r.v || s.recs[i].tag != tagInt || s.recs[i].size != want {
			t.Fatalf("record %d (key %q): %q/%d/%d of size %d, want value %d, size %d",
				i, r.key, s.key(i), s.recs[i].tag, v, s.recs[i].size, r.v, want)
		}
	}
	if len(em.keys.locs) != len(seen) || em.bytes != total {
		t.Fatalf("packed %d keys in %d bytes, want %d distinct keys, %d bytes", len(em.keys.locs), em.bytes, len(seen), total)
	}
	if gt, wt := groupTrace(t, em), refTrace(kvs); gt != wt {
		t.Fatalf("packing diverged after grouping:\n got %s\nwant %s", gt, wt)
	}
}

func TestPackRecordsMatchesMapPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var warm taskScratch
	for trial := 0; trial < 50; trial++ {
		kvs := randomKVs(rng, rng.Intn(300), rng.Intn(15)+1)
		checkPacking(t, &taskScratch{}, kvs, len(kvs))
		checkPacking(t, &warm, kvs, len(kvs))
	}
}

// TestPackRecordsPastEstimate: a map task does not know its key count
// when it starts. Tasks that emit 20 times the keys their set was sized
// for — it doubles, rehashing what it holds, more than once on the way —
// decide exactly as a task sized right does, colliding keys included.
func TestPackRecordsPastEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var warm taskScratch
	for trial := 0; trial < 20; trial++ {
		keys := 20 * (1 + rng.Intn(60))
		kvs := randomKVs(rng, keys+rng.Intn(4*keys), keys)
		checkPacking(t, &taskScratch{}, kvs, keys/20)
		checkPacking(t, &warm, kvs, keys/20)
		if got := len(warm.keys.slots); got < 2*len(warm.keys.locs) || got < 8*(keys/20) {
			t.Fatalf("trial %d: %d keys in %d slots from an estimate of %d: the set did not double twice at load ≤ 1/2",
				trial, len(warm.keys.locs), got, keys/20)
		}
	}
	low, full := collidingKVs(t, false)
	for _, kvs := range [][]kv{low, full} {
		checkPacking(t, &taskScratch{}, kvs, 0)
	}
}

func TestPackRecordsEmptyAndSingle(t *testing.T) {
	checkPacking(t, &taskScratch{}, nil, 0)
	checkPacking(t, &taskScratch{}, []kv{{"k", 1}}, 1)
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
// gather if partitioned, else a packing map task — gets, and pairs equal in
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

// TestPackRecordsCollidingKeys feeds a packing map task's key set the
// colliding keys.
func TestPackRecordsCollidingKeys(t *testing.T) {
	low, full := collidingKVs(t, false)
	checkPacking(t, &taskScratch{}, low[:6], 6) // two keys, three times each
	checkPacking(t, &taskScratch{}, low, 12)
	checkPacking(t, &taskScratch{}, full, len(full))
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
// of the distinct keys ks holds, from the key's home slot. bufs are the
// buffers of the task that filled the set.
func probesPerHit(ks *keySet, bufs [][]byte) float64 {
	mask := uint32(len(ks.slots) - 1)
	probes := 0
	for i, l := range ks.locs {
		h := ks.home(bufs[l.src][l.off : l.off+l.klen])
		for probes++; ks.slots[h] != int32(i+1); probes++ {
			h = (h + 1) & mask
		}
	}
	return float64(probes) / float64(len(ks.locs))
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
// slots, against dense integer keys — in a set sized for them, and in one
// that started at a twentieth and doubled its way there. Uniform hashing
// at the set's load (n keys in ≥ 2n slots) gives at most 1.5 probes per
// hit; the bound is 2.
func TestPackRecordsProbeLength(t *testing.T) {
	const n = 24_500
	for _, g := range denseKeyShapes {
		for _, hint := range []int{n, n / 20} {
			var sc taskScratch
			em := Emitter{keys: sc.keySet(hint, false)}
			for i := int64(0); i < n; i++ {
				emitInt(&em, []byte(g.gen(i).Key()), i)
			}
			if keys := len(sc.keys.locs); keys != n || len(sc.keys.slots) < 2*n {
				t.Fatalf("%s: %d keys in %d slots over %d distinct keys", g.name, keys, len(sc.keys.slots), n)
			}
			if got := probesPerHit(&sc.keys, em.chunks); got > 2 {
				t.Errorf("%s, sized for %d: %.2f probes per hit in %d slots, want ≤ 2", g.name, hint, got, len(sc.keys.slots))
			}
		}
	}
}

// TestReduceGroupingProbeLength holds them against what a reduce task
// gathers: the same dense keys, but only those the partitioner sent to
// one reducer — hashKey(key) % R == ri, so the map side's index, the
// hash's low bits, would have size/gcd(size, R) home slots to offer (at
// R = 64, 128 of the 8 192 these 2 400 keys get). The bound is the map
// side's.
func TestReduceGroupingProbeLength(t *testing.T) {
	const n = 2400
	for _, reducers := range []uint32{2, 42, 64, 1024} {
		ri := reducers / 3
		for _, g := range denseKeyShapes {
			var em Emitter
			for i := int64(0); em.records < n; i++ {
				if key := []byte(g.gen(i).Key()); hashKey(key)%reducers == ri {
					emitInt(&em, key, i)
				}
			}
			var sc taskScratch
			parts := partitionOf(t, &em)
			if _, err := reduceGroups(&sc, parts, 0, nil); err != nil {
				t.Fatal(err)
			}
			if keys := len(sc.keys.locs); keys != n {
				t.Fatalf("R=%d %s: %d of %d keys gathered", reducers, g.name, keys, n)
			}
			if got := probesPerHit(&sc.keys, [][]byte{parts[0][0].buf}); got > 2 {
				t.Errorf("R=%d %s: %.2f probes per hit in %d slots, want ≤ 2", reducers, g.name, got, len(sc.keys.slots))
			}
		}
	}
}

// TestPackRecordsWarmAllocatesNothing: on a worker that has run a longer
// task, Emit allocates nothing per record — packing on or off, a key's
// first record or a later one. What a map task allocates is its arena:
// the emitter here is past the doubling, in a 64 KiB chunk the measured
// records fit in.
func TestPackRecordsWarmAllocatesNothing(t *testing.T) {
	for _, packing := range []bool{false, true} {
		var sc taskScratch
		var kb [12]byte
		next := int64(0)
		emit := func(em *Emitter, n int) {
			for i := 0; i < n; i++ {
				next++
				emitInt(em, relation.Value(next).AppendKey(kb[:0]), next)    // a new key
				emitInt(em, relation.Value(next/2).AppendKey(kb[:0]), -next) // one seen before
			}
		}
		var longer, em Emitter
		if packing {
			longer.keys = sc.keySet(0, false)
		}
		emit(&longer, 10_000)
		if packing {
			em.keys = sc.keySet(5000, false)
		}
		next = 0
		for len(em.chunks) <= arenaRungs {
			emit(&em, 100)
		}
		const records = 2 * 500
		if room := cap(em.chunks[len(em.chunks)-1]) - len(em.chunks[len(em.chunks)-1]); room < 4*records*12 { // AllocsPerRun warms up once: four runs of records ≤ 12 bytes
			t.Fatalf("packing %v: %d bytes left in the current chunk: the measured records would open another", packing, room)
		}
		if got := testing.AllocsPerRun(3, func() { emit(&em, records/2) }); got != 0 {
			t.Errorf("packing %v: %v allocations per %d records on a warm worker, want 0", packing, got, records)
		}
	}
}

// taskAllocs is what a reduce task over one segment allocates whatever the
// segment holds: its grouped set's header, that set's one-entry buffer
// list and the Group view — the three objects that carry pointers and so
// cannot be the worker's scratch.
const taskAllocs = 3

// TestReduceGroupingWarmAllocatesNothing: on a scratch that has seen a
// task of the size, a reduce task's grouping allocates nothing — the key
// set, the counts and the index are all the worker's — so the
// whole task allocates its taskAllocs fixed objects and no more, at any
// partition size.
func TestReduceGroupingWarmAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sc taskScratch
	for _, shape := range []struct{ n, keys int }{{20_000, 3000}, {2000, 300}, {2000, 2000}, {1, 1}} {
		parts := partitionOf(t, setOf(randomKVs(rng, shape.n, shape.keys)))
		got := testing.AllocsPerRun(10, func() {
			g, err := reduceGroups(&sc, parts, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			g.each(0, len(g.locs), func([]byte, *Group) {})
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
			kvs = append(kvs, kv{key(n - 1 - i), int64(i)}) // descending: arrival order is not key order
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
	for _, groups := range []int{96, 511, 512, 513, 1536} {
		shapes[fmt.Sprintf("%d groups, short keys", groups)] = distinct(groups, short)
		shapes[fmt.Sprintf("%d groups past one prefix", groups)] = distinct(groups, long)
	}
	for _, name := range slices.Sorted(maps.Keys(shapes)) {
		kvs := shapes[name]
		if got, want := groupTrace(t, setOf(kvs)), refTrace(kvs); got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}

	// A heavy partition cut at group boundaries (cut): its pieces split
	// the group sequence in first-arrival order, a piece never past L / k
	// unless it is one group. The records weigh 11, 11, 12, 11, 10, 11, 11
	// and 11 bytes (key, at least 2, + 8), L = 88: k = 2 gives the hot key
	// a piece to itself, k = 8 every group one.
	kvs := []kv{{"hos", 1}, {"hot", 2}, {"hot\x00", 3}, {"hot", 4}, {"a", 5}, {"hot", 6}, {"hou", 7}, {"hot", 8}}
	for _, c := range []struct {
		k    int64
		want []string
	}{
		{1, []string{`"hos":1,;"hot":2,4,6,8,;"hot\x00":3,;"a":5,;"hou":7,;`}},
		{2, []string{`"hos":1,;`, `"hot":2,4,6,8,;`, `"hot\x00":3,;"a":5,;"hou":7,;`}},
		{8, []string{`"hos":1,;`, `"hot":2,4,6,8,;`, `"hot\x00":3,;`, `"a":5,;`, `"hou":7,;`}},
	} {
		g := reduceOn(t, &taskScratch{}, setOf(kvs))
		var got []string
		for _, p := range g.cut(piece{hi: len(g.locs), load: g.load}, c.k) {
			got = append(got, traceGroups(g, p.lo, p.hi))
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("k = %d: pieces %q, want %q", c.k, got, c.want)
		}
	}
}

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

// TestForEachGroupBoundariesAdversarialKeys extends the grouping
// differential to the adversarial key mix: run boundaries, key order and
// per-key message arrival order must match the map-based string-key
// oracle on empty keys, 8-byte-boundary lengths and shared prefixes, over
// 512 to 1 535 records.
func TestForEachGroupBoundariesAdversarialKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		n := 512 + rng.Intn(1024)
		keys := genAdversarialKeys(rng, n)
		kvs := kvsFromKeys(keys)
		want := refTrace(kvs)
		got := groupTrace(t, setOf(kvs))
		if got != want {
			t.Fatalf("trial %d: grouping diverged:\n got %s\nwant %s", trial, got, want)
		}
	}
}
