package mr

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
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
		Mapper: MapperFunc(func(_ int, id int, _ relation.Tuple, em *Emitter) {
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
	jr := NewEngine(Config{Cost: cost.Default()}).newJobRun(0, job, govern{}, nil)
	jr.tasks[0] = []mapTaskSpec{{rel: relation.FromTuples("R", 1, tuples), to: len(kvs)}}
	jr.results[0] = make([]mapTaskResult, 1)
	jr.left = 4 // never zero over the three tasks: nothing spawns
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
	jr.partitions()
	jr.shuffleTask(c, 0, 0)
	jr.pieces = [][]piece{make([]piece, 1)}
	jr.reduceTask(c, 0)
	return trace
}

// TestScratchRecycledArraysLeakNoRecords is the ownership contract of
// the reduce side's record buffer and the key set: a task that gathers
// into the array a longer task filled, and probes slots and entries that
// task left, sees its own records and nothing else. Task A's keys are
// none of task B's, so a stale tail entry of A's array that B's grouping
// could reach would show up as a group of its own; a stale slot or entry
// of A's key set would index past B's records or miscount B's keys.
func TestScratchRecycledArraysLeakNoRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, packing := range []bool{false, true} {
		c := &poolCtx{scratch: new(taskScratch)}
		for i, n := range []int{3000, 37, 513, 0, 1, 900} {
			kvs := randomKVs(rng, n, 40)
			if i == 0 {
				for j := range kvs {
					kvs[j].key = fmt.Sprintf("zzzz-stale-%04d", j) // distinct: A fills its key set
				}
			}
			if got, want := traceOnWorker(t, c, kvs, packing), refTrace(kvs); got != want {
				t.Fatalf("packing %v, task %d (%d records) on a warm worker diverged:\n got %s\nwant %s", packing, i, n, got, want)
			}
			if cap(c.scratch.recs) < 3000 {
				t.Fatalf("packing %v: the worker holds %d records after task A's 3000: the later tasks recycle nothing", packing, cap(c.scratch.recs))
			}
		}
	}
}

// TestScratchWarmEqualsCold: a reduce task on a scratch that has served
// a longer, different input delivers exactly what it delivers on a fresh
// one — its records in first-arrival order of their keys — and a packing
// map task on it still meets its oracle — over the adversarial key mix,
// at the sizes of TestForEachGroupBoundariesAdversarialKeys and below.
func TestScratchWarmEqualsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sizes := []int{511, 512, 513, 0, 1, 96}
	for trial := 0; trial < 15; trial++ {
		sizes = append(sizes, 512+rng.Intn(1024))
	}
	var warm taskScratch
	long := kvsFromKeys(genAdversarialKeys(rng, 2048))
	groupOrder(t, &warm, setOf(long))
	checkPacking(t, &warm, long, len(long))
	for _, n := range sizes {
		kvs := kvsFromKeys(genAdversarialKeys(rng, n))
		s := setOf(kvs)
		got, cold := groupOrder(t, &warm, s), groupOrder(t, &taskScratch{}, s)
		if want := arrivalOrder(arenaRecords(t, s)); !slices.Equal(got, cold) || !slices.Equal(got, want) {
			t.Fatalf("n=%d: a reduce task on a warm scratch delivers\n%v, on a cold one\n%v, first-arrival order is\n%v", n, got, cold, want)
		}
		checkPacking(t, &warm, kvs, n/3)
	}
}

// TestScratchFreeListBound: the worker keeps one record array, the reduce
// task's, and it is bounded by the largest task the worker ran — in
// whatever order tasks of whatever sizes come, nothing is kept per task.
func TestScratchFreeListBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sc taskScratch
	largest := 0
	for _, n := range rng.Perm(100) {
		groupOrder(t, &sc, setOf(randomKVs(rng, n, 10)))
		largest = max(largest, n)
		if cap(sc.recs) != largest {
			t.Fatalf("after a task of %d records the worker holds room for %d, the largest task it ran had %d", n, cap(sc.recs), largest)
		}
	}
}

// largeDiamond is diamondProgram over a few thousand tuples a relation:
// 6 000 in R and R2, 250 in S.
func largeDiamond() (*Program, *relation.Database) { return diamondOver(6000) }

// diamondOver is diamondProgram over n tuples in R and R2 and 250 in S.
func diamondOver(n int64) (*Program, *relation.Database) {
	p, db := diamondProgram()
	var r, r2, s []relation.Tuple
	for i := int64(0); i < n; i++ {
		r = append(r, tup(i, i%500))
		r2 = append(r2, tup(i, i%13))
		if i%2 == 0 && i < 500 {
			s = append(s, tup(i))
		}
	}
	db.Put(relation.FromTuples("R", 2, r))
	db.Put(relation.FromTuples("R2", 2, r2))
	db.Put(relation.FromTuples("S", 1, s))
	return p, db
}

// TestScratchCrossRunEqualsCold is the cross-run contract of the Engine's
// scratch: a program run on workers whose scratch a larger, different
// program sized — and the larger one again, on scratch the smaller one
// last touched — delivers outputs and JobStats bit-equal to a fresh
// Engine's, at widths 1 and 4. newTestEngine puts it under CI's four
// reader configurations.
func TestScratchCrossRunEqualsCold(t *testing.T) {
	run := func(e *Engine, program func() (*Program, *relation.Database)) (string, []JobStats) {
		p, db := program()
		outs, stats, _, err := e.Run(context.Background(), p, db, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return programSignature(t, outs), stats
	}
	for _, width := range []int{1, 4} {
		fresh := func() *Engine {
			e := newTestEngine(cost.Default().Scaled(0.001))
			e.cfg.Workers = width
			return e
		}
		warm := fresh()
		run(warm, largeDiamond)
		for _, program := range []struct {
			name string
			fn   func() (*Program, *relation.Database)
		}{{"skewed after large", skewedProgram}, {"large after skewed", largeDiamond}} {
			got, gotStats := run(warm, program.fn)
			want, wantStats := run(fresh(), program.fn)
			if got != want {
				t.Errorf("width %d, %s: outputs differ from a fresh Engine's", width, program.name)
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Errorf("width %d, %s: stats differ from a fresh Engine's:\n%+v\nvs\n%+v", width, program.name, gotStats, wantStats)
			}
		}
	}
}

// TestScratchPointerFree: every field of taskScratch is a slice of
// pointer-free elements other than bytes, or a struct of such slices and
// pointer-free scalars. A scratch the Engine keeps between runs then
// cannot pin a shuffle buffer, a relation or a tenant's bytes.
func TestScratchPointerFree(t *testing.T) {
	var pointerFree func(typ reflect.Type) bool
	pointerFree = func(typ reflect.Type) bool {
		switch k := typ.Kind(); {
		case k >= reflect.Bool && k <= reflect.Complex128:
			return true
		case k == reflect.Array:
			return pointerFree(typ.Elem())
		case k == reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !pointerFree(typ.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	var check func(path string, typ reflect.Type, nested bool)
	check = func(path string, typ reflect.Type, nested bool) {
		switch k := typ.Kind(); {
		case k == reflect.Slice && typ.Elem().Kind() == reflect.Uint8:
			t.Errorf("%s is %v: scratch never holds bytes", path, typ)
		case k == reflect.Slice && !pointerFree(typ.Elem()):
			t.Errorf("%s is %v: its elements hold pointers", path, typ)
		case k == reflect.Slice, nested && k != reflect.Struct && pointerFree(typ):
			// an array, or a scalar of a struct of arrays (the key set's shift)
		case k == reflect.Struct && !nested:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type, true)
			}
		default:
			t.Errorf("%s is %v: want a slice of pointer-free elements or a struct of them", path, typ)
		}
	}
	typ := reflect.TypeOf(taskScratch{})
	for i := 0; i < typ.NumField(); i++ {
		check("taskScratch."+typ.Field(i).Name, typ.Field(i).Type, false)
	}
}

// scratchBacking renders the backing array and capacity of every slice of
// sc, field by field, and sums the bytes they hold.
func scratchBacking(sc *taskScratch) (arrays []string, held int64) {
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Slice:
			arrays = append(arrays, fmt.Sprintf("%s %#x cap %d", path, v.Pointer(), v.Cap()))
			held += int64(v.Cap()) * int64(v.Type().Elem().Size())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		}
	}
	walk("taskScratch", reflect.ValueOf(sc).Elem())
	return arrays, held
}

// TestWarmRunAllocatesNoScratch: with the collector off (it would empty
// the Engine's pool), a second identical run on one Engine takes the
// scratch the first one grew and regrows none of it — the same arrays come
// back at the same capacities — so it allocates the first run's bytes less
// at least the scratch's: what it charges to its Budget (arena, segments,
// merged outputs), its reducers' outputs and its bookkeeping. One P, so the
// run's one worker and this test reach the same pool slot. The race
// detector's sync.Pool drops a quarter of Puts at random, so a run handed
// a cold scratch, or whose scratch was dropped, is retried.
func TestWarmRunAllocatesNoScratch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p, db := largeDiamond()
	e := NewEngine(Config{Cost: cost.Default().Scaled(0.001), Workers: 1})
	run := func() (alloc, charged int64) {
		b := NewBudget(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, _, err := e.Run(context.Background(), p, db, RunOptions{Budget: b}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc), b.Stats().ChargedBytes
	}
	cold, _ := run()
	for attempt := 1; ; attempt++ {
		sc := e.scratch.Get().(*taskScratch)
		arrays, held := scratchBacking(sc)
		e.scratch.Put(sc)
		warm, charged := run()
		got := e.scratch.Get().(*taskScratch)
		e.scratch.Put(got)
		if got != sc || held == 0 {
			if attempt == 20 {
				t.Fatalf("no run in %d was handed a warm scratch and put it back", attempt)
			}
			continue
		}
		if now, _ := scratchBacking(got); !slices.Equal(now, arrays) {
			t.Errorf("the warm run regrew its scratch:\n got %v\nwant %v", now, arrays)
		}
		t.Logf("cold run %d bytes, warm run %d (%d charged), scratch %d", cold, warm, charged, held)
		if warm > cold-held {
			t.Errorf("the warm run allocated %d bytes, the cold one %d: it saved less than the %d bytes of scratch it reused", warm, cold, held)
		}
		return
	}
}

// TestAllocationCeiling pins the engine's work-efficiency where CI sees
// it: a warm run of a program over several thousand tuples, at width 1
// with spill and split off (so the figure is deterministic), allocates
// no more than its ceiling × the bytes the program reads, shuffles and
// writes. The diamond program over 6 000 tuples at scale 0.001 runs every
// job in the one-reducer shape; over 12 000 at scale 0.0001 its inputs
// outgrow one reducer, and every job runs staged, r > 1. A run's figure
// is the least of five: the race detector's sync.Pool drops a random
// quarter of Puts, so some runs start on a cold scratch (a mean of five
// read 1.29–2.02 under it for the one-reducer shape, 1.20–1.42 for the
// staged one). Each ceiling is the larger of two measurements × 1.25:
// without the race detector, and with it. One-reducer: 1.27 and 1.35,
// ceiling 1.69, set when a one-reducer task came to store each key once,
// on one arena ladder for all its splits; it read 1.29 and 1.37, ceiling
// 1.71, before. Staged: 1.12 and 1.20, ceiling 1.50, set when a staged
// task came to write its arena and its output buffers through worker
// staging, keeping one exact copy; it read 1.67 and 1.75 before.
func TestAllocationCeiling(t *testing.T) {
	for _, c := range []struct {
		name    string
		tuples  int64
		scale   float64
		staged  bool
		ceiling float64
	}{
		{"one-reducer", 6000, 0.001, false, 1.69},
		{"staged", 12000, 0.0001, true, 1.50},
	} {
		p, db := diamondOver(c.tuples)
		e := NewEngine(Config{Cost: cost.Default().Scaled(c.scale), Workers: 1})
		run := func(prog *Progress) []JobStats {
			_, stats, _, err := e.Run(context.Background(), p, db, RunOptions{Progress: prog})
			if err != nil {
				t.Fatal(err)
			}
			return stats
		}
		var data float64
		prog := new(Progress)
		for _, st := range run(prog) { // also warms the Engine's scratch and lazily initialised runtime state
			data += (st.InputMB() + st.InterMB() + st.OutputMB) * MB
		}
		if staged := prog.Snapshot().ShuffleTasksTotal > 0; staged != c.staged {
			t.Fatalf("%s: staged = %v", c.name, staged)
		}
		perRun := math.Inf(1)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(nil)
			runtime.ReadMemStats(&after)
			perRun = min(perRun, float64(after.TotalAlloc-before.TotalAlloc))
		}
		t.Logf("%s: %.0f bytes allocated per run over %.0f bytes of input + intermediate + output: %.2f×", c.name, perRun, data, perRun/data)
		if data < 200_000 || perRun > c.ceiling*data {
			t.Errorf("%s: allocated %.2f× the program's %.0f data bytes per run, ceiling %v×", c.name, perRun/data, data, c.ceiling)
		}
	}
}
