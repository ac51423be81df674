package mr

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// skewedProgram builds a one-job program with one dominant key: 40% of
// R's tuples share join value 7, the rest spread over 0..96, so one
// reduce partition carries several times the mean load and the runtime
// splitter has something real to cut. Job.reducers is fixed so the skew
// ratio doesn't depend on the cost model's reducer derivation.
func skewedProgram() (*Program, *relation.Database) { return skewedProgramOf(2000, 8) }

// skewedProgramOf is skewedProgram over n tuples of R, with Job.reducers
// set to reducers (0 = derived from the intermediate size).
func skewedProgramOf(n int64, reducers int) (*Program, *relation.Database) {
	var tuples []relation.Tuple
	for i := int64(0); i < n; i++ {
		v := i % 97
		if i%5 < 2 { // 40% hot
			v = 7
		}
		tuples = append(tuples, tup(i, v))
	}
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, tuples))
	db.Put(relation.FromTuples("S", 1, []relation.Tuple{
		tup(7), tup(11), tup(42),
	}))
	sj := semijoinJob(false)
	sj.reducers = reducers
	return &Program{Jobs: []*Job{sj}}, db
}

// TestOrderedFoldDifferential is the contract of the one ordered-fold
// reader (taskPartition.appendTo, docs/INVARIANTS.md): however a reduce
// partition's input is held — in memory or spilled — and however its
// groups are reduced — by one task or cut into pieces after one gather
// (the "sub-range" shapes, named for the key ranges the split used to
// cut at) — the run's outputs and deep per-job stats are bit-for-bit
// those of a split-off, spill-off, width-1 oracle, at pool widths 1, 4
// and GOMAXPROCS. The split observability fields (removed by
// StripSplitInfo) and the memory stats are the only quantities allowed
// to differ from the oracle, and both must be identical at every width;
// the memory stats also between two runs on one engine, and, since a
// split partition is gathered, and its spilled segments read back, once,
// with those of a split-off run in the same store. The single-reducer
// rows — 30 000 tuples over 6 map tasks, so every R arena spans 6 chunks
// and its shuffle task copies them all into one segment — hold a lone
// reducer's partition, split off and cut into pieces (0.5), to the same
// contract, and their outputs to those of the same program at its
// derived reducer count, which is 2.
func TestOrderedFoldDifferential(t *testing.T) {
	singleReducer := func() (*Program, *relation.Database) { return skewedProgramOf(30000, 1) }
	derivedReducers := func() (*Program, *relation.Database) { return skewedProgramOf(30000, 0) }
	shapes := []struct {
		name    string
		program func() (*Program, *relation.Database)
		split   float64
		derived func() (*Program, *relation.Database) // non-nil: outputs must equal this program's
	}{
		{"whole", diamondProgram, -1, nil},
		{"sub-range", skewedProgram, 1.3, nil},
		{"single-reducer", singleReducer, -1, derivedReducers},
		{"single-reducer-sub-range", singleReducer, 0.5, derivedReducers},
	}
	stores := []struct {
		name  string
		spill int64
	}{{"memory", -1}, {"spill", 1}} // 1 byte: every non-empty spillable partition goes to disk
	for _, store := range stores {
		for _, shape := range shapes {
			t.Run(store.name+"/"+shape.name, func(t *testing.T) {
				p, db := shape.program()
				oracle := newTestEngine(cost.Default().Scaled(0.001))
				oracle.cfg.Workers = 1
				oracle.cfg.SkewSplit = -1 // off even under the CI reader-configuration loop
				oracle.cfg.SpillThreshold = -1
				wantOuts, wantStats, _, err := oracle.Run(context.Background(), p, db, RunOptions{})
				if err != nil {
					t.Fatalf("oracle run failed: %v", err)
				}
				wantSig := programSignature(t, wantOuts)
				if shape.derived != nil {
					dp, ddb := shape.derived()
					outs, stats, _, err := oracle.Run(context.Background(), dp, ddb, RunOptions{})
					if err != nil {
						t.Fatalf("derived-r run failed: %v", err)
					}
					if stats[0].Reducers < 2 {
						t.Fatalf("derived r = %d: the comparison needs more than one reducer", stats[0].Reducers)
					}
					if programSignature(t, outs) != wantSig {
						t.Errorf("outputs at r = 1 differ from those at the derived r = %d", stats[0].Reducers)
					}
				}

				seen := map[int]bool{}
				var splitTasks []int // per job, from the first width
				charged := int64(-1)
				for _, width := range []int{1, 4, runtime.GOMAXPROCS(0)} {
					if seen[width] {
						continue
					}
					seen[width] = true
					dir := t.TempDir()
					e := newTestEngine(cost.Default().Scaled(0.001))
					e.cfg.Workers = width
					e.cfg.SkewSplit = shape.split
					e.cfg.SpillThreshold = store.spill
					e.cfg.SpillDir = dir
					budget := NewBudget(0) // count-only: MemStats without a limit
					outs, stats, _, err := e.Run(context.Background(), p, db, RunOptions{Budget: budget})
					if err != nil {
						t.Fatalf("width %d: run failed: %v", width, err)
					}
					if sig := programSignature(t, outs); sig != wantSig {
						t.Errorf("width %d: outputs differ from the oracle", width)
					}
					if len(stats) != len(wantStats) {
						t.Fatalf("width %d: %d job stats, want %d", width, len(stats), len(wantStats))
					}
					var tasks []int
					splitTotal := 0
					for i, s := range stats {
						if got, want := s.StripSplitInfo(), wantStats[i].StripSplitInfo(); !reflect.DeepEqual(got, want) {
							t.Errorf("width %d job %d: stats differ:\n%+v\nvs\n%+v", width, i, got, want)
						}
						tasks = append(tasks, s.SplitReduceTasks)
						splitTotal += s.SplitReduceTasks
						if s.SplitReduceTasks == 0 {
							// Unsplit jobs owe the oracle the observability fields too.
							if s.MaxReduceTaskMB != wantStats[i].MaxReduceTaskMB {
								t.Errorf("width %d job %d: unsplit MaxReduceTaskMB %v, oracle %v",
									width, i, s.MaxReduceTaskMB, wantStats[i].MaxReduceTaskMB)
							}
						} else if s.MaxReduceTaskMB >= s.MaxReduceLoadMB() {
							t.Errorf("width %d job %d: MaxReduceTaskMB %.4f did not drop below MaxReduceLoadMB %.4f",
								width, i, s.MaxReduceTaskMB, s.MaxReduceLoadMB())
						}
					}
					if shape.split > 0 && splitTotal < 2 {
						t.Errorf("width %d: SplitReduceTasks = %d, want >= 2", width, splitTotal)
					}
					if shape.split <= 0 && splitTotal != 0 {
						t.Errorf("width %d: %d split tasks with splitting off", width, splitTotal)
					}
					if splitTasks == nil {
						splitTasks = tasks
					} else if !reflect.DeepEqual(tasks, splitTasks) {
						t.Errorf("width %d: SplitReduceTasks %v, differs from %v at another width", width, tasks, splitTasks)
					}

					mem := budget.Stats()
					if mem.ChargedBytes <= 0 {
						t.Errorf("width %d: run charged no bytes", width)
					}
					if charged == -1 {
						charged = mem.ChargedBytes
					} else if mem.ChargedBytes != charged {
						t.Errorf("width %d: charged %d bytes, %d at another width", width, mem.ChargedBytes, charged)
					}
					// ... and between runs: worker scratch and arena sizing carry
					// nothing from one run of an engine to its next.
					again := NewBudget(0)
					if _, _, _, err := e.Run(context.Background(), p, db, RunOptions{Budget: again}); err != nil {
						t.Fatalf("width %d: second run failed: %v", width, err)
					}
					if got := again.Stats(); got != mem {
						t.Errorf("width %d: second run on the same engine: memory stats %+v, first run %+v", width, got, mem)
					}
					if shape.split > 0 {
						off := newTestEngine(cost.Default().Scaled(0.001))
						off.cfg.Workers = width
						off.cfg.SkewSplit = -1
						off.cfg.SpillThreshold = store.spill
						off.cfg.SpillDir = dir
						unsplit := NewBudget(0)
						if _, _, _, err := off.Run(context.Background(), p, db, RunOptions{Budget: unsplit}); err != nil {
							t.Fatalf("width %d: split-off run failed: %v", width, err)
						}
						if got := unsplit.Stats(); got != mem {
							t.Errorf("width %d: memory stats %+v split, %+v split off", width, mem, got)
						}
					}
					if store.spill > 0 {
						if mem.SpilledParts == 0 || mem.SpilledBytes <= 0 {
							t.Errorf("width %d: threshold 1 spilled %d partitions, %d bytes", width, mem.SpilledParts, mem.SpilledBytes)
						}
					} else if mem.SpilledParts != 0 {
						t.Errorf("width %d: spilled %d partitions with spill off", width, mem.SpilledParts)
					}
					// Consumed spill files are dropped the moment the reduce stage
					// finishes with them — a completed run leaves nothing behind.
					if files := spillFilesIn(t, dir); len(files) != 0 {
						t.Errorf("width %d: completed run left spill files %v", width, files)
					}
				}
			})
		}
	}
}

// TestSkewSplitOffMatchesLoads pins the splitting-off invariant the
// differential relies on: MaxReduceTaskMB equals MaxReduceLoadMB
// exactly (every slot is a whole partition) and no tasks are split.
func TestSkewSplitOffMatchesLoads(t *testing.T) {
	p, db := skewedProgram()
	e := newTestEngine(cost.Default().Scaled(0.001))
	e.cfg.SkewSplit = -1
	_, stats, _, err := e.Run(context.Background(), p, db, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := stats[0]
	if s.SplitReduceTasks != 0 {
		t.Errorf("SplitReduceTasks = %d with splitting off", s.SplitReduceTasks)
	}
	if s.MaxReduceTaskMB != s.MaxReduceLoadMB() {
		t.Errorf("MaxReduceTaskMB %.6f != MaxReduceLoadMB %.6f with splitting off",
			s.MaxReduceTaskMB, s.MaxReduceLoadMB())
	}
}

// TestSkewSplitTiming: the time of a heavy partition's reduce tasks is
// recorded as a subset of reduce time, leaving TotalSeconds the sum of the four task kinds.
func TestSkewSplitTiming(t *testing.T) {
	p, db := skewedProgram()
	e := newTestEngine(cost.Default().Scaled(0.001))
	e.cfg.SkewSplit = 1.3
	_, stats, timings, err := e.Run(context.Background(), p, db, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].SplitReduceTasks < 2 {
		t.Fatalf("program did not split (SplitReduceTasks = %d)", stats[0].SplitReduceTasks)
	}
	tm := timings[0]
	if tm.SplitSeconds <= 0 {
		t.Errorf("SplitSeconds = %v after a split run", tm.SplitSeconds)
	}
	if tm.SplitSeconds > tm.ReduceSeconds {
		t.Errorf("SplitSeconds %v exceeds ReduceSeconds %v (must be a subset)",
			tm.SplitSeconds, tm.ReduceSeconds)
	}
	want := tm.MapSeconds + tm.ShuffleSeconds + tm.ReduceSeconds + tm.MergeSeconds
	if tm.TotalSeconds() != want {
		t.Errorf("TotalSeconds %v != sum of kinds %v", tm.TotalSeconds(), want)
	}
}

// TestSkewSplitPlanLayout checks the piece geometry of a real run:
// every reducer's pieces cover its groups contiguously from the first, in
// order; the hot key's partition — the one heavy one — is cut, into
// pieces no heavier than L / k unless they are one group; light
// partitions stay whole; and the loads the pieces carry fold into
// ReduceLoadMB as the pieces' sum.
func TestSkewSplitPlanLayout(t *testing.T) {
	p, db := skewedProgram()
	e := newTestEngine(cost.Default().Scaled(0.001))
	e.cfg.SkewSplit = 1.3
	var jr *jobRun
	var pieces [][]piece // as the merge stage finds them
	jr = e.newJobRun(0, p.Jobs[0], e.newGovern(nil), func(*poolCtx, string, *relation.Relation) { pieces = jr.pieces })
	err := e.runTasks(context.Background(), 4, new(Progress), func(c *poolCtx) {
		for part, name := range p.Jobs[0].Inputs {
			jr.inputReady(c, part, db.Relation(name))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != jr.reducers {
		t.Fatalf("%d reducers' pieces for %d reducers", len(pieces), jr.reducers)
	}
	var total int64
	for _, ps := range pieces {
		for _, pc := range ps {
			total += pc.load
		}
	}
	mean := float64(total) / float64(jr.reducers)
	split := 0
	for ri, ps := range pieces {
		var load int64
		next := 0
		for pi, pc := range ps {
			if pc.lo != next || pc.hi <= pc.lo {
				t.Errorf("reducer %d piece %d: groups [%d, %d) after %d", ri, pi, pc.lo, pc.hi, next)
			}
			next = pc.hi
			load += pc.load
		}
		heavy := float64(load) > 1.3*mean
		k := int64(math.Ceil(float64(load) / (1.3 * mean)))
		switch {
		case !heavy && len(ps) != 1:
			t.Errorf("reducer %d: light partition (%d of mean %.0f) cut into %d pieces", ri, load, mean, len(ps))
		case heavy && len(ps) < 2:
			t.Errorf("reducer %d: heavy partition (%d of mean %.0f) not cut", ri, load, mean)
		case heavy:
			split++
			for pi, pc := range ps {
				if pc.hi-pc.lo > 1 && pc.load*k > load {
					t.Errorf("reducer %d piece %d: %d groups weigh %d, past L / k = %d / %d", ri, pi, pc.hi-pc.lo, pc.load, load, k)
				}
			}
		}
		if got, want := jr.stats.ReduceLoadMB[ri], mbOf(load)*jr.inflate; got != want {
			t.Errorf("reducer %d: ReduceLoadMB %v, its pieces fold to %v", ri, got, want)
		}
	}
	if split != 1 {
		t.Errorf("%d partitions cut, want the hot key's one", split)
	}
}

// TestSplitOutputOrder is split invariance at the engine level, on the
// shape that separates first-arrival order from key order: keys arrive
// "z…" before "hot" before "a…". Every group adds two tuples of its own,
// and every group adds one shared tuple, which groups in different pieces
// therefore both add. The merged relation must be the split-off run's
// tuple for tuple: the pieces' outputs concatenate in piece order, which
// is first-arrival order. The hot key's partition is cut into three
// pieces at r = 1 (k = ⌈1 / 0.5⌉ = 2: the groups before "hot", "hot"'s
// group alone, the groups after it) and two at r = 3 (ratio 1.3).
func TestSplitOutputOrder(t *testing.T) {
	const n = 3000
	keys := make([][]byte, n)
	prefixes := []string{"z", "a", "m"}
	for i := range keys {
		if i%2 == 1 {
			keys[i] = []byte("hot")
		} else {
			keys[i] = fmt.Appendf(nil, "%s%03d", prefixes[i/2%3], i/6%97)
		}
	}
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 1, tuples(n)))
	job := func(reducers int) *Job {
		return &Job{
			Name:     "order",
			Inputs:   []string{"R"},
			Outputs:  map[string]int{"Z": 2},
			reducers: reducers,
			Mapper: MapperFunc(func(_ string, id int, _ relation.Tuple, em *Emitter) {
				emitInt(em, keys[id], int64(id))
			}),
			Reducer: ReducerFunc(func(_ []byte, msgs *Group, out *Output) {
				first, last := intAt(msgs, 0), intAt(msgs, msgs.Len()-1)
				out.Add("Z", tup(first, int64(msgs.Len())))
				out.Add("Z", tup(-1, -1))
				out.Add("Z", tup(first, last))
			}),
		}
	}
	for _, c := range []struct {
		reducers int
		split    float64
		pieces   int
	}{{1, 0.5, 3}, {3, 1.3, 2}} {
		run := func(split float64) (*relation.Relation, JobStats) {
			e := NewEngine(Config{Cost: cost.Default().Scaled(0.001), Workers: 2, SkewSplit: split})
			outs, stats, _, err := e.Run(context.Background(), &Program{Jobs: []*Job{job(c.reducers)}}, db, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return outs.Relation("Z"), stats[0]
		}
		want, _ := run(-1)
		got, stats := run(c.split)
		if stats.SplitReduceTasks != c.pieces {
			t.Fatalf("r = %d: %d split reduce tasks, want the hot key's partition cut in %d", c.reducers, stats.SplitReduceTasks, c.pieces)
		}
		if got.Size() != want.Size() {
			t.Fatalf("r = %d: split run has %d tuples, unsplit %d", c.reducers, got.Size(), want.Size())
		}
		for i := 0; i < want.Size(); i++ {
			if !got.Tuple(i).Equal(want.Tuple(i)) {
				t.Fatalf("r = %d: tuple %d is %v split, %v unsplit", c.reducers, i, got.Tuple(i), want.Tuple(i))
			}
		}
	}
}

// TestSplitWays pins the heaviness test and k: a partition is heavy when
// its load exceeds ratio × the mean — a test no NaN or infinite ratio
// passes — and is cut k = ⌈L / (ratio × mean)⌉ ways, capped at its
// record count, which also bounds a ratio so small that k overflows.
func TestSplitWays(t *testing.T) {
	loads, counts := []int64{10, 20, 90}, []int64{1, 2, 9} // a mean of 40
	jr := &jobRun{}
	for _, c := range []struct {
		ratio float64
		want  []int64
	}{
		{0, []int64{0, 0, 0}},
		{-1, []int64{0, 0, 0}},
		{math.NaN(), []int64{0, 0, 0}},
		{math.Inf(1), []int64{0, 0, 0}},
		{math.Inf(-1), []int64{0, 0, 0}},
		{1.5, []int64{0, 0, 2}},    // 90 > 60
		{0.5, []int64{0, 0, 5}},    // 20 is not over 20; ⌈90 / 20⌉
		{1e-320, []int64{1, 2, 9}}, // every load over the limit, k past every record count
	} {
		jr.e = NewEngine(Config{SkewSplit: c.ratio})
		got := make([]int64, len(loads))
		for ri, l := range loads {
			got[ri] = jr.ways(l, counts[ri], 40)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("ratio %v: ways %v, want %v", c.ratio, got, c.want)
		}
	}
}

// TestSplitReusesLentScratch: the scratch a split partition lends its
// pieces comes back to the run, and the run's next split takes it rather
// than asking the Engine. Two jobs on one worker, each cutting its lone
// partition: the Engine's pool makes two scratches — the worker's and the
// first lend's — not three.
func TestSplitReusesLentScratch(t *testing.T) {
	p, db := skewedProgramOf(2000, 1)
	count := *p.Jobs[0]
	count.Name, count.Outputs = "count", map[string]int{"W": 1}
	count.Reducer = ReducerFunc(func(_ []byte, msgs *Group, out *Output) { out.Add("W", tup(int64(msgs.Len()))) })
	p.Jobs = append(p.Jobs, &count)
	e := NewEngine(Config{Cost: cost.Default().Scaled(0.001), Workers: 1, SkewSplit: 0.5})
	made := 0
	e.scratch.New = func() any { made++; return new(taskScratch) }
	_, stats, _, err := e.Run(context.Background(), p, db, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if s.SplitReduceTasks < 2 {
			t.Fatalf("job %s: %d split reduce tasks, want its partition cut", s.Name, s.SplitReduceTasks)
		}
	}
	if made != 2 {
		t.Errorf("the run made %d scratches, want 2: the worker's and the first lend's", made)
	}
}
