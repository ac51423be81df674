package mr

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// TestDeterminismAcrossParallelism verifies that outputs and every
// measured statistic are identical whatever the host parallelism: the
// simulated metrics must not depend on how the engine happens to
// schedule goroutines.
func TestDeterminismAcrossParallelism(t *testing.T) {
	var tuples []relation.Tuple
	for i := int64(0); i < 3000; i++ {
		tuples = append(tuples, tup(i, i%17))
	}
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, tuples))
	db.Put(relation.FromTuples("S", 1, []relation.Tuple{tup(0), tup(3), tup(9)}))

	var baseline string
	var baseOut *relation.Relation
	for _, workers := range []int{1, 2, 8} {
		e := newTestEngine(cost.Default().Scaled(0.001))
		e.cfg.Workers = workers
		out, stats, err := runJob(context.Background(), e, semijoinJob(true), db)
		if err != nil {
			t.Fatal(err)
		}
		sig := fmt.Sprintf("%s|loads=%v", stats, stats.ReduceLoadMB)
		if baseline == "" {
			baseline = sig
			baseOut = out.Relation("Z")
			continue
		}
		if sig != baseline {
			t.Errorf("workers=%d: stats differ:\n%s\nvs\n%s", workers, sig, baseline)
		}
		if !out.Relation("Z").Equal(baseOut) {
			t.Errorf("workers=%d: output differs", workers)
		}
	}
}

// TestReduceLoadAccounting checks that per-reducer loads sum to the
// intermediate volume and that a skewed key concentrates load.
func TestReduceLoadAccounting(t *testing.T) {
	var tuples []relation.Tuple
	for i := int64(0); i < 5000; i++ {
		key := i % 50
		if i%2 == 0 {
			key = 7 // heavy key
		}
		tuples = append(tuples, tup(i, key))
	}
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, tuples))
	db.Put(relation.FromTuples("S", 1, []relation.Tuple{tup(7)}))
	e := newTestEngine(cost.Default().Scaled(0.0002))
	_, stats, err := runJob(context.Background(), e, semijoinJob(false), db)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range stats.ReduceLoadMB {
		sum += l
	}
	if diff := sum - stats.InterMB(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("reduce loads sum %v != intermediate %v", sum, stats.InterMB())
	}
	if stats.Reducers > 2 && stats.ReduceImbalance() < 1.5 {
		t.Errorf("expected skewed loads, imbalance = %v (r=%d)", stats.ReduceImbalance(), stats.Reducers)
	}
}

// TestGoldenStatsUnchanged pins outputs and JobStats to exact values
// captured from the pre-sort-based engine (hash/fnv hasher, map-based
// reduce grouping, first-occurrence packing): the engine refactor must
// be bit-for-bit invisible in everything it measures. Floats are
// compared through %v, which round-trips float64 exactly.
func TestGoldenStatsUnchanged(t *testing.T) {
	var tuples []relation.Tuple
	for i := int64(0); i < 5000; i++ {
		key := i % 50
		if i%2 == 0 {
			key = 7 // heavy key
		}
		tuples = append(tuples, tup(i, key))
	}
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, tuples))
	db.Put(relation.FromTuples("S", 1, []relation.Tuple{tup(7), tup(13)}))

	golden := map[bool]string{
		false: "[{Input:R InputMB:0.095367431640625 InterMB:0.0476837158203125 Records:5000 Mappers:4} {Input:S InputMB:1.9073486328125e-05 InterMB:1.9073486328125e-05 Records:2 Mappers:1}]|reducers=7,7|maps=5|out=0.0514984130859375|loads=[0.026712417602539062 0.00476837158203125 0.0038242340087890625 0.00286102294921875 0.00286102294921875 0.00286102294921875 0.003814697265625]",
		true:  "[{Input:R InputMB:0.095367431640625 InterMB:0.03833770751953125 Records:100 Mappers:4} {Input:S InputMB:1.9073486328125e-05 InterMB:1.9073486328125e-05 Records:2 Mappers:1}]|reducers=7,7|maps=5|out=0.0514984130859375|loads=[0.021394729614257812 0.00385284423828125 0.0030918121337890625 0.00231170654296875 0.00231170654296875 0.00231170654296875 0.003082275390625]",
	}
	const goldenZSize = 2700
	const goldenZHash = uint32(3135509740)

	for _, packing := range []bool{false, true} {
		for _, workers := range []int{1, 0} { // sequential and GOMAXPROCS
			e := newTestEngine(cost.Default().Scaled(0.0002))
			e.cfg.Workers = workers
			job := semijoinJob(packing)
			job.reducers = 7
			out, stats, err := runJob(context.Background(), e, job, db)
			if err != nil {
				t.Fatal(err)
			}
			sig := fmt.Sprintf("%+v|reducers=%d,%d|maps=%d|out=%v|loads=%v",
				stats.Parts, stats.Reducers, stats.ReduceTasks, stats.MapTasks, stats.OutputMB, stats.ReduceLoadMB)
			if sig != golden[packing] {
				t.Errorf("packing=%v workers=%d: stats drifted from pre-refactor golden:\n got %s\nwant %s",
					packing, workers, sig, golden[packing])
			}
			z := out.Relation("Z")
			if z.Size() != goldenZSize || orderedTupleHash(z) != goldenZHash {
				t.Errorf("packing=%v workers=%d: output drifted: size=%d hash=%d",
					packing, workers, z.Size(), orderedTupleHash(z))
			}
		}
	}
}

// orderedTupleHash hashes a relation's tuples in iteration order, so the
// golden test also pins the merged output's tuple order.
func orderedTupleHash(r *relation.Relation) uint32 {
	h := uint32(2166136261)
	for _, t := range r.Tuples() {
		key := t.Key()
		for i := 0; i < len(key); i++ {
			h ^= uint32(key[i])
			h *= 16777619
		}
		h ^= 0xff
		h *= 16777619
	}
	return h
}

// TestHashKeyMatchesFNV pins the inlined shuffle hash to hash/fnv's
// FNV-1a, which the engine used via fnv.New32a before inlining: a drift
// would silently re-partition every shuffle.
func TestHashKeyMatchesFNV(t *testing.T) {
	keys := []string{"", "a", "abc", tup(7).Key(), tup(123456, -42).Key(), "\x00\xff\x80"}
	for _, k := range keys {
		h := fnv.New32a()
		h.Write([]byte(k))
		if want := h.Sum32(); hashKey([]byte(k)) != want {
			t.Errorf("hashKey(%q) = %d, want %d", k, hashKey([]byte(k)), want)
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

// TestKeyBytesMinimum covers the keyBytes floor.
func TestKeyBytesMinimum(t *testing.T) {
	if keyBytes(nil) != 2 || keyBytes([]byte("a")) != 2 || keyBytes([]byte("abc")) != 3 {
		t.Errorf("keyBytes floor wrong: %d %d %d",
			keyBytes(nil), keyBytes([]byte("a")), keyBytes([]byte("abc")))
	}
}
