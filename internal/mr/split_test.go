package mr

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// skewedProgram builds a one-job program with one dominant key: 40% of
// R's tuples share join value 7, the rest spread over 0..96, so one
// reduce partition carries several times the mean load and the runtime
// splitter has something real to cut. Reducers is fixed so the skew
// ratio doesn't depend on the cost model's reducer derivation.
func skewedProgram() (*Program, *relation.Database) { return skewedProgramOf(2000, 8) }

// skewedProgramOf is skewedProgram over n tuples of R, with Job.Reducers
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
	sj.Reducers = reducers
	return &Program{Jobs: []*Job{sj}}, db
}

// TestOrderedFoldDifferential is the contract of the one ordered-fold
// reader (taskPartition.count/appendTo, docs/INVARIANTS.md): however a
// reduce slot's input is held — in memory or spilled — and whatever it
// covers — a whole partition or a key sub-range of a split one — the
// run's outputs and deep per-job stats are bit-for-bit those of a
// split-off, spill-off, width-1 oracle, at pool widths 1, 4 and
// GOMAXPROCS. The split observability fields (removed by
// StripSplitInfo) and the charged bytes are the only quantities allowed
// to differ from the oracle, and both must be identical at every width;
// the charged bytes also between two runs on one engine. The
// single-reducer rows — 30 000 tuples over 6 map tasks, so every R arena
// spans 6 chunks — hold the partition that is its map task's arena (split
// off) and the placed lone partition that splits (0.5) to the same
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

// TestSkewSplitTiming: split sub-task time is recorded as a subset of
// reduce time, leaving TotalSeconds the sum of the four task kinds.
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

// TestSkewSplitPlanLayout unit-tests planReduceSlots' slot geometry
// directly: slots are reducer-major, a split partition's sub-ranges
// are ascending and contiguous (each slot's hi is the next slot's lo,
// with unbounded outer edges), and light partitions stay whole.
func TestSkewSplitPlanLayout(t *testing.T) {
	p, db := skewedProgram()
	e := newTestEngine(cost.Default().Scaled(0.001))
	e.cfg.SkewSplit = 1.3
	gov := e.newGovern(nil)
	var slots []reduceSlot
	jr := e.newJobRun(0, p.Jobs[0], gov, nil, func(c *poolCtx, jr *jobRun) {
		slots = jr.slots
	})
	err := e.runTasks(context.Background(), 4, new(Progress), func(c *poolCtx) {
		jr.seed(c)
		for part, name := range p.Jobs[0].Inputs {
			jr.inputReady(c, part, db.Relation(name))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) <= jr.reducers {
		t.Fatalf("%d slots for %d reducers: nothing split", len(slots), jr.reducers)
	}
	prevRi := -1
	for si := 0; si < len(slots); si++ {
		s := slots[si]
		if s.ri < prevRi {
			t.Fatalf("slot %d: reducer %d after %d (not reducer-major)", si, s.ri, prevRi)
		}
		if s.ri != prevRi {
			// First slot of a partition: unbounded low edge.
			if s.lo != nil {
				t.Errorf("slot %d: partition %d starts at lo %q, want unbounded", si, s.ri, s.lo)
			}
		}
		last := si+1 == len(slots) || slots[si+1].ri != s.ri
		if last {
			if s.hi != nil {
				t.Errorf("slot %d: partition %d ends at hi %q, want unbounded", si, s.ri, s.hi)
			}
			if !s.split() && s.lo != nil {
				t.Errorf("slot %d: unsplit slot has a bound", si)
			}
		} else {
			if !s.split() || !slots[si+1].split() {
				t.Errorf("slot %d: multi-slot partition %d has unsplit slots", si, s.ri)
			}
			if string(slots[si+1].lo) != string(s.hi) || s.hi == nil {
				t.Errorf("slot %d: hi %q does not chain to next lo %q", si, s.hi, slots[si+1].lo)
			}
		}
		prevRi = s.ri
	}
}
