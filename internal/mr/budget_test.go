package mr

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cost"
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
// from a spill file, and spilling changes no other charge. With skew
// splitting off every non-empty segment is read back exactly once, so a
// run with every partition spilled charges its spill-off total plus
// exactly the bytes it spilled.
func TestSpillReadBackCharged(t *testing.T) {
	run := func(width int, threshold int64) MemStats {
		t.Helper()
		p, db := diamondProgram()
		e := NewEngine(Config{Cost: cost.Default().Scaled(0.001), Workers: width,
			SpillThreshold: threshold, SpillDir: t.TempDir(), SkewSplit: -1})
		budget := NewBudget(0)
		if _, _, _, err := e.Run(context.Background(), p, db, RunOptions{Budget: budget}); err != nil {
			t.Fatalf("width %d, spill threshold %d: %v", width, threshold, err)
		}
		return budget.Stats()
	}
	for _, width := range []int{1, 4} {
		off, on := run(width, -1), run(width, 1)
		if on.SpilledParts == 0 || on.SpilledBytes == 0 {
			t.Fatalf("width %d: nothing spilled (%+v)", width, on)
		}
		if got := on.ChargedBytes - off.ChargedBytes; got != on.SpilledBytes {
			t.Errorf("width %d: spilling every partition added %d charged bytes, want the %d bytes read back", width, got, on.SpilledBytes)
		}
	}
}

// TestShuffleBufferCharged pins the shuffle-partition site of the
// accounting contract, per reducer count. At r = 7 a shuffle task
// charges the one buffer holding its segments, which is exactly the
// encoded bytes of its map task's records. At r = 1 it charges nothing:
// the partition is the map task's arena chunks themselves, charged once,
// when Emit started them.
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
		jr.results = [][]mapTaskResult{{{chunks: slices.Clone(em.chunks), msgs: em.records, bytes: em.bytes}}}
		jr.taskParts = [][]taskPartition{make([]taskPartition, 1)}
		jr.shuffleTask(&poolCtx{scratch: new(taskScratch)}, 0, 0)
		want := encoded
		if reducers == 1 {
			want = 0
			bufs := jr.taskParts[0][0].bufs
			same := len(bufs) == len(em.chunks)
			for i := 0; same && i < len(bufs); i++ {
				same = &bufs[i][0] == &em.chunks[i][0] && len(bufs[i]) == len(em.chunks[i])
			}
			if !same {
				t.Fatalf("1 reducer: the partition is not the arena's %d chunks as Emit left them", len(em.chunks))
			}
		}
		if got := budget.Stats().ChargedBytes; got != want {
			t.Errorf("%d reducers: shuffle task charged %d bytes, want %d (%d encoded)", reducers, got, want, encoded)
		}
	}
}

// TestBudgetExceeded is the over-budget differential: a limit below a
// clean run's total charge aborts the run at every pool width with an
// error matching ErrBudgetExceeded, a nil outputs database, completed
// jobs' stats bit-for-bit identical to the sequential oracle, and the
// input database untouched. A clean re-run afterwards and a settled
// goroutine count pin that nothing leaks across the aborts.
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
		outs, stats, _, err := e.Run(context.Background(), p, db, RunOptions{Budget: budget})
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
		if outs != nil {
			t.Fatalf("width %d: over-budget run returned an outputs database", width)
		}
		for _, st := range stats {
			want, ok := oracle[st.Name]
			if !ok {
				t.Fatalf("width %d: completed job %q unknown to the oracle", width, st.Name)
			}
			if !statsEqual(st, want) {
				t.Errorf("width %d: job %s stats diverge from oracle:\n%+v\nvs\n%+v",
					width, st.Name, st, want)
			}
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
