package mr

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// traceOnWorker runs one whole job over kvs — the real map task (with
// or without packing), shuffle task and reduce task, one reducer — on
// worker context c and returns what the reducer saw, rendered like
// groupTrace. The map task's record count is held to the oracle on the
// way: distinct keys under packing, messages without. The stage counters
// never reach zero, so nothing spawns and the pool is not needed.
func traceOnWorker(t *testing.T, c *poolCtx, kvs []kv, packing bool) string {
	t.Helper()
	tuples := make([]relation.Tuple, len(kvs))
	for i := range tuples {
		tuples[i] = tup(int64(i))
	}
	var trace string
	job := &Job{
		Inputs:  []string{"R"},
		Packing: packing,
		Mapper: MapperFunc(func(_ string, id int, _ relation.Tuple, em *Emitter) {
			emitInt(em, []byte(kvs[id].key), kvs[id].v)
		}),
		Reducer: ReducerFunc(func(key []byte, msgs *Group, _ *Output) {
			trace += fmt.Sprintf("%q:", key)
			for i := 0; i < msgs.Len(); i++ {
				trace += fmt.Sprintf("%v,", intAt(msgs, i))
			}
			trace += ";"
		}),
	}
	jr := NewEngine(Config{Cost: cost.Default()}).newJobRun(job, govern{}, nil, nil)
	jr.tasks[0] = []mapTaskSpec{{rel: relation.FromTuples("R", 1, tuples), to: len(kvs)}}
	jr.results[0] = make([]mapTaskResult, 1)
	jr.mapsLeft, jr.shufsLeft, jr.redsLeft = 2, 2, 2
	jr.mapTask(c, 0, 0)
	want := len(kvs)
	if packing {
		distinct := make(map[string]bool)
		for _, r := range kvs {
			distinct[r.key] = true
		}
		want = len(distinct)
	}
	if got := jr.results[0][0].records; got != int64(want) {
		t.Fatalf("map task over %d messages (packing %v) counted %d records, want %d", len(kvs), packing, got, want)
	}
	jr.reducers = 1
	jr.taskParts = [][]taskPartition{make([]taskPartition, 1)}
	jr.shuffleTask(c, 0, 0)
	jr.slots = unsplitSlots(1)
	jr.slotLoads = make([]int64, 1)
	jr.outs = make([]*Output, 1)
	jr.reduceTask(c, 0)
	return trace
}

// TestScratchRecycledArraysLeakNoRecords is the ownership contract of
// the record free list and the key set: a task that takes an array a
// longer task returned, and probes slots that task filled, sees its own
// records and nothing else. Task A's keys all sort after task B's, so a
// stale tail entry of A's array that B's sort or grouping could reach
// would show up as a trailing group; a stale slot of A's key set would
// index past B's records or miscount B's keys.
func TestScratchRecycledArraysLeakNoRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, packing := range []bool{false, true} {
		c := &poolCtx{}
		for i, n := range []int{3000, 37, radixMinLen + 1, 0, 1, 900} {
			kvs := randomKVs(rng, n, 40)
			if i == 0 {
				for j := range kvs {
					kvs[j].key = fmt.Sprintf("zzzz-stale-%04d", j) // distinct: A fills its key set
				}
			}
			if got, want := traceOnWorker(t, c, kvs, packing), refTrace(kvs); got != want {
				t.Fatalf("packing %v, task %d (%d records) on a warm worker diverged:\n got %s\nwant %s", packing, i, n, got, want)
			}
			if i == 0 && !slices.ContainsFunc(c.scratch.free, func(a []record) bool { return cap(a) >= n }) {
				t.Fatalf("packing %v: task A returned no array to the free list: the later tasks recycle nothing", packing)
			}
		}
	}
}

// TestScratchWarmEqualsCold: a reduce task on a scratch that has served
// a longer, different input delivers exactly what it delivers on a fresh
// one — the stable sort of its records — and packRecords on it still
// meets its oracle — over the adversarial key mix, at the sizes of
// TestForEachGroupBoundariesAdversarialKeys and across the radixMinLen
// boundary, where the refs buffer changes layout (groups vs 2 × groups).
func TestScratchWarmEqualsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sizes := []int{radixMinLen - 1, radixMinLen, radixMinLen + 1, 0, 1, radixBucketCutoff}
	for trial := 0; trial < 15; trial++ {
		sizes = append(sizes, radixMinLen+rng.Intn(radixMinLen*2))
	}
	var warm taskScratch
	long := setOf(kvsFromKeys(genAdversarialKeys(rng, radixMinLen*4)))
	groupOrder(t, &warm, long)
	packRecords(&warm, long)
	for _, n := range sizes {
		kvs := kvsFromKeys(genAdversarialKeys(rng, n))
		s := setOf(kvs)
		got, cold := groupOrder(t, &warm, s), groupOrder(t, &taskScratch{}, s)
		if !slices.Equal(got, cold) || !slices.Equal(got, stableOrder(s)) {
			t.Fatalf("n=%d: a reduce task on a warm scratch delivers\n%v, on a cold one\n%v, the stable sort is\n%v", n, got, cold, stableOrder(s))
		}
		checkPacking(t, &warm, kvs)
	}
}

// TestScratchFreeListBound: however many arrays come back, a worker
// holds at most scratchArrays of them — the largest — and takeRecords
// is best fit.
func TestScratchFreeListBound(t *testing.T) {
	var sc taskScratch
	for _, n := range rand.New(rand.NewSource(1)).Perm(100) {
		sc.putRecords(make([]record, n+1)) // capacities 1…100, shuffled
		if len(sc.free) > scratchArrays {
			t.Fatalf("free list holds %d arrays, bound is %d", len(sc.free), scratchArrays)
		}
	}
	var caps []int
	for _, a := range sc.free {
		caps = append(caps, cap(a))
	}
	slices.Sort(caps)
	if want := []int{93, 94, 95, 96, 97, 98, 99, 100}; !slices.Equal(caps, want) {
		t.Fatalf("free list kept capacities %v, want the largest %v", caps, want)
	}
	if a := sc.takeRecords(95); cap(a) != 95 || len(a) != 0 {
		t.Errorf("takeRecords(95) = len %d cap %d, want the best fit 0/95", len(a), cap(a))
	}
	if a := sc.takeRecords(1000); cap(a) != 1000 || len(sc.free) != scratchArrays-1 {
		t.Errorf("takeRecords(1000) = cap %d with %d arrays left, want a fresh array and the list untouched", cap(a), len(sc.free))
	}
}

// allocCeiling is the allocation ceiling TestAllocationCeiling holds:
// bytes allocated per run of the program, as a multiple of the
// program's modelled input + intermediate + output bytes. Measured 2.56
// without and 2.64 with the race detector (4.20 / 4.28 before the worker
// scratch and the arena ladder); the constant leaves 25 % headroom over
// the larger.
const allocCeiling = 3.3

// TestAllocationCeiling pins the engine's work-efficiency where CI sees
// it: one run of the diamond program over a few thousand tuples, at
// width 1 with spill and split off (so the figure is deterministic),
// allocates no more than allocCeiling × the bytes the program reads,
// shuffles and writes.
func TestAllocationCeiling(t *testing.T) {
	p, db := diamondProgram()
	var r, r2, s []relation.Tuple
	for i := int64(0); i < 6000; i++ {
		r = append(r, tup(i, i%500))
		r2 = append(r2, tup(i, i%13))
		if i%2 == 0 && i < 500 {
			s = append(s, tup(i))
		}
	}
	db.Put(relation.FromTuples("R", 2, r))
	db.Put(relation.FromTuples("R2", 2, r2))
	db.Put(relation.FromTuples("S", 1, s))
	e := NewEngine(Config{Cost: cost.Default().Scaled(0.001), Workers: 1})
	run := func() []JobStats {
		_, stats, _, err := e.Run(context.Background(), p, db, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	var data float64
	for _, st := range run() { // also warms lazily initialised runtime state
		data += (st.InputMB() + st.InterMB() + st.OutputMB) * MB
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes allocated per run over %.0f bytes of input + intermediate + output: %.2f×", perRun, data, perRun/data)
	if data < 200_000 || perRun > allocCeiling*data {
		t.Errorf("allocated %.2f× the program's %.0f data bytes per run, ceiling %v×", perRun/data, data, allocCeiling)
	}
}
