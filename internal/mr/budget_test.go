package mr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// chargedBytes runs the golden diamond program to completion under a
// count-only budget and returns its cumulative charge. spillThreshold
// -1 keeps spill off regardless of the CI gate's environment override.
func chargedBytes(t *testing.T, width int, spillThreshold int64, spillDir string) int64 {
	t.Helper()
	p, db := diamondProgram()
	e := newTestEngine(cost.Default().Scaled(0.001))
	e.cfg.Workers = width
	e.cfg.SpillThreshold = spillThreshold
	e.cfg.SpillDir = spillDir
	budget := NewBudget(0)
	if _, _, _, err := e.Run(context.Background(), p, db, RunOptions{Budget: budget}); err != nil {
		t.Fatalf("width %d: clean governed run failed: %v", width, err)
	}
	return budget.Stats().ChargedBytes
}

// TestBudgetChargedDeterministicAcrossWidths pins the accounting
// contract's core property: the total charged over a clean run is a
// function of the plan and the data alone — identical at every pool
// width, with spill off and with every partition spilling. (This is
// what makes the over-budget trip deterministic rather than a
// high-water-mark race.)
func TestBudgetChargedDeterministicAcrossWidths(t *testing.T) {
	for _, spill := range []struct {
		name      string
		threshold int64
	}{{"nospill", -1}, {"spill", 1}} {
		t.Run(spill.name, func(t *testing.T) {
			dir := ""
			if spill.threshold > 0 {
				dir = t.TempDir()
			}
			base := chargedBytes(t, 1, spill.threshold, dir)
			if base <= 0 {
				t.Fatalf("sequential run charged %d bytes", base)
			}
			for _, width := range []int{4, runtime.GOMAXPROCS(0)} {
				if got := chargedBytes(t, width, spill.threshold, dir); got != base {
					t.Errorf("width %d charged %d bytes, width 1 charged %d", width, got, base)
				}
			}
		})
	}
}

// TestSpillReadBackCharged pins the spill side of the accounting
// contract: a reduce task is charged for every segment it reads back
// from a spill file. Every non-empty segment is read back exactly once —
// with skew splitting off, and with it on, where a heavy partition is
// gathered once and cut into pieces after — so a run with every
// partition spilled charges its spill-off total plus exactly the bytes
// it spilled, and, when the spill-off run took the one-reducer shape,
// the shuffle-partition charges of the staged jobs that spill — the
// same bytes again, since each shuffle task charges its partition's
// encoded bytes and spills them whole — and those staged jobs' map-task
// arenas less their one-reducer tasks': per map task, the ladder over
// its headed records; per one-reducer task, one ladder over its splits'
// bare records (InlineSplit.Charges).
func TestSpillReadBackCharged(t *testing.T) {
	for _, c := range []struct {
		name    string
		program func() (*Program, *relation.Database)
		split   float64
	}{{"split off", diamondProgram, -1}, {"split on", skewedProgram, 1.3}} {
		run := func(width int, threshold int64, h FaultHooks) (MemStats, ProgressSnapshot) {
			t.Helper()
			defer SetFaultHooks(h)()
			p, db := c.program()
			e := NewEngine(Config{Cost: cost.Default().Scaled(0.001), Workers: width,
				SpillThreshold: threshold, SpillDir: t.TempDir(), SkewSplit: c.split})
			budget := NewBudget(0)
			var prog Progress
			_, stats, _, err := e.Run(context.Background(), p, db, RunOptions{Budget: budget, Progress: &prog})
			if err != nil {
				t.Fatalf("%s, width %d, spill threshold %d: %v", c.name, width, threshold, err)
			}
			if split := stats[0].SplitReduceTasks; (split > 0) != (c.split > 0) {
				t.Fatalf("%s, width %d: %d split reduce tasks", c.name, width, split)
			}
			return budget.Stats(), prog.Snapshot()
		}
		for _, width := range []int{1, 4} {
			var mu sync.Mutex
			bare, headed := map[int][]int{}, int64(0) // the splits mapped inline: per job, and all
			off, offSnap := run(width, -1, FaultHooks{Inline: func(job int, split InlineSplit) {
				b, h, _ := split.Charges()
				mu.Lock()
				bare[job] = append(bare[job], b...)
				headed += h
				mu.Unlock()
			}})
			on, _ := run(width, 1, FaultHooks{})
			if on.SpilledParts == 0 || on.SpilledBytes == 0 {
				t.Fatalf("%s, width %d: nothing spilled (%+v)", c.name, width, on)
			}
			want := on.SpilledBytes
			if offSnap.ShuffleTasksTotal == 0 {
				want *= 2
			}
			want += headed
			for _, b := range bare {
				want -= ladderCharge(b)
			}
			if got := on.ChargedBytes - off.ChargedBytes; got != want {
				t.Errorf("%s, width %d: spilling every partition added %d charged bytes, want %d (%d bytes read back, %d shuffle tasks spill off)",
					c.name, width, got, want, on.SpilledBytes, offSnap.ShuffleTasksTotal)
			}
		}
	}
}

// TestShuffleBufferCharged pins the shuffle-partition site of the
// accounting contract: at r = 1 as at r = 7, a shuffle task charges its
// partition's segments, laid out in the worker's staging buffer and
// copied back into its map task's sealed arena — exactly the encoded
// bytes of the map task's records.
func TestShuffleBufferCharged(t *testing.T) {
	arena := NewBudget(0)
	em := multiChunkArena(arena)
	var encoded, capacity int64
	for _, c := range em.chunks {
		encoded += int64(len(c))
		capacity += int64(cap(c))
	}
	if got := arena.Stats().ChargedBytes; got != capacity || len(em.chunks) < 3 {
		t.Fatalf("the arena's %d chunks charged %d bytes, want their %d bytes of capacity, over at least 3 chunks", len(em.chunks), got, capacity)
	}
	for _, reducers := range []int{1, 7} {
		budget := NewBudget(0)
		jr := &jobRun{e: NewEngine(Config{Cost: cost.Default()}), job: &Job{}, gov: govern{budget: budget},
			reducers: reducers, left: 2} // never the last shuffle, so nothing spawns
		jr.results = [][]mapTaskResult{{{arena: sealed(em.chunks), msgs: em.records, bytes: em.bytes}}}
		jr.partitions()
		jr.shuffleTask(&poolCtx{scratch: new(taskScratch)}, 0, 0)
		if got := budget.Stats().ChargedBytes; got != encoded {
			t.Errorf("%d reducers: shuffle task charged %d bytes, want the %d encoded", reducers, got, encoded)
		}
	}
}

// TestBudgetExceeded is the over-budget differential: a limit below a
// clean run's total charge aborts the run at every pool width with an
// error matching ErrBudgetExceeded, nil outputs, nil stats and nil
// timings, and the input database untouched. A clean re-run afterwards
// matching the sequential oracle and a settled goroutine count pin that
// nothing leaks across the aborts.
func TestBudgetExceeded(t *testing.T) {
	oracle := oracleStats(t)
	baseline := runtime.NumGoroutine()
	charged := chargedBytes(t, 4, -1, "")
	if charged < 2 {
		t.Fatalf("clean run charged only %d bytes", charged)
	}
	limit := charged / 2

	seen := map[int]bool{}
	for _, width := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		if width < 1 || seen[width] {
			continue
		}
		seen[width] = true
		p, db := diamondProgram()
		before := dbSignature(db)
		e := newTestEngine(cost.Default().Scaled(0.001))
		e.cfg.Workers = width
		e.cfg.SpillThreshold = -1
		budget := NewBudget(limit)
		outs, stats, timings, err := e.Run(context.Background(), p, db, RunOptions{Budget: budget})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("width %d: err = %v, want ErrBudgetExceeded", width, err)
		}
		var be *BudgetExceededError
		if !errors.As(err, &be) {
			t.Fatalf("width %d: err %v does not unwrap to *BudgetExceededError", width, err)
		}
		if be.Limit != limit || be.Charged <= be.Limit || be.Requested <= 0 {
			t.Errorf("width %d: implausible abort detail %+v (limit %d)", width, be, limit)
		}
		if outs != nil || stats != nil || timings != nil {
			t.Fatalf("width %d: over-budget run returned outputs %v, stats %v, timings %v; want all nil",
				width, outs, stats, timings)
		}
		if dbSignature(db) != before {
			t.Fatalf("width %d: over-budget run mutated the input database", width)
		}
	}

	// Clean re-run: the aborts polluted no process-global state.
	p, db := diamondProgram()
	e := newTestEngine(cost.Default().Scaled(0.001))
	e.cfg.Workers = 4
	e.cfg.SpillThreshold = -1
	_, stats, _, err := e.Run(context.Background(), p, db, RunOptions{})
	if err != nil {
		t.Fatalf("clean re-run failed: %v", err)
	}
	if len(stats) != len(oracle) {
		t.Fatalf("clean re-run completed %d jobs, oracle has %d", len(stats), len(oracle))
	}
	for _, st := range stats {
		if !statsEqual(st, oracle[st.Name]) {
			t.Errorf("clean re-run job %s stats diverge from oracle", st.Name)
		}
	}
	waitGoroutinesSettle(t, baseline)
}

// TestBudgetNilAndUnlimited: a nil *Budget is inert everywhere, and a
// zero-limit budget counts without ever aborting.
func TestBudgetNilAndUnlimited(t *testing.T) {
	var b *Budget
	b.charge(1 << 30) // must not panic
	b.noteSpill(42)
	if got := b.Stats(); got != (MemStats{}) {
		t.Errorf("nil budget stats = %+v, want zero", got)
	}
	u := NewBudget(0)
	u.charge(1 << 40) // unlimited: counts, never aborts
	u.charge(1 << 40)
	u.noteSpill(7)
	got := u.Stats()
	if got.ChargedBytes != 2<<40 || got.LimitBytes != 0 || got.SpilledBytes != 7 || got.SpilledParts != 1 {
		t.Errorf("unlimited budget stats = %+v", got)
	}
	if n := NewBudget(-5); n.limit != 0 {
		t.Errorf("negative limit normalized to %d, want 0 (count-only)", n.limit)
	}
}

// TestBudgetErrorIs pins the errors.Is contract through wrapping: the
// typed error matches the sentinel bare and however many fmt layers the
// engine and API stack add.
func TestBudgetErrorIs(t *testing.T) {
	be := &BudgetExceededError{Limit: 10, Charged: 12, Requested: 4}
	if !errors.Is(be, ErrBudgetExceeded) {
		t.Fatalf("bare BudgetExceededError does not match the sentinel")
	}
	wrapped := fmt.Errorf("mr: program aborted: %w", fmt.Errorf("mr: job x: %w", be))
	if !errors.Is(wrapped, ErrBudgetExceeded) {
		t.Fatalf("wrapped BudgetExceededError does not match the sentinel")
	}
	var out *BudgetExceededError
	if !errors.As(wrapped, &out) || out.Charged != 12 {
		t.Fatalf("wrapped error does not unwrap to the typed value")
	}
}

// TestPoolTaskAbort drives the pool seam the budget rides on directly:
// a task panicking with taskAbort fails the run — runTasks returns the
// carried error instead of re-raising — while a genuine task panic
// still propagates to the caller with its original payload.
func TestPoolTaskAbort(t *testing.T) {
	sentinel := errors.New("boom")
	err := NewEngine(Config{}).runTasks(context.Background(), 4, new(Progress), func(c *poolCtx) {
		for i := 0; i < 8; i++ {
			c.spawn(taskLabel{}, func(c *poolCtx) {})
		}
		c.spawn(taskLabel{}, func(c *poolCtx) { panic(taskAbort{err: sentinel}) })
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("runTasks err = %v, want the taskAbort payload", err)
	}

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_ = NewEngine(Config{}).runTasks(context.Background(), 4, new(Progress), func(c *poolCtx) {
			c.spawn(taskLabel{}, func(c *poolCtx) { panic("kaboom") })
		})
	}()
	if recovered != "kaboom" {
		t.Fatalf("real task panic surfaced as %v, want the original payload", recovered)
	}
}

// TestBudgetChargeAbortsFromTask: Budget.charge is only legal inside a
// pool task — crossing the limit panics taskAbort, which the pool
// converts into a run failure matching the sentinel.
func TestBudgetChargeAbortsFromTask(t *testing.T) {
	b := NewBudget(1)
	err := NewEngine(Config{}).runTasks(context.Background(), 2, new(Progress), func(c *poolCtx) {
		c.spawn(taskLabel{}, func(c *poolCtx) { b.charge(100) })
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("charge past limit inside a task: err = %v, want ErrBudgetExceeded", err)
	}
}
