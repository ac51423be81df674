package lab

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	gumbo "repro"

	"repro/internal/mr"
)

// The fault sweep: where the cancel sweep checks clean teardown under
// external cancellation, the fault sweep checks the memory-governance
// and panic-containment contracts under injected failures. Each
// scenario first runs clean — with spill forced on by a tiny threshold,
// so the sweep also exercises the spill read/write path — to record its
// golden result, task-grant count and charged-byte total. Then two
// faults are injected and, after each, the full teardown contract is
// re-checked (typed error, untouched input data, goroutines settled, no
// spill temp files left) and a clean re-run must reproduce the golden
// result bit for bit:
//
//   - panic: a task granted at a seeded random index panics with a
//     sentinel value; the engine must re-raise exactly that value on
//     the caller (the seam the server's query-boundary recover pins).
//   - budget exhaustion: the run repeats under a budget seeded strictly
//     below the golden charged total; it must abort with an error
//     matching gumbo.ErrBudgetExceeded.
//
// Scenarios run serially — the fault-injection seam (mr.SetFaultHooks)
// is process-wide.

// faultSpillThreshold forces lab-sized shuffle partitions to spill, so
// the leak check actually has temp files to observe in flight.
const faultSpillThreshold = 256

// FaultFailure is one violated check.
type FaultFailure struct {
	Scenario string
	Mode     string // "panic" | "budget"
	Boundary int    // grant index (panic) or budget limit in bytes (budget)
	Detail   string
}

// FaultReport aggregates a fault sweep.
type FaultReport struct {
	Scenarios int
	Checks    int // fault injections performed
	Failures  []FaultFailure
}

// RunFaultSweep runs the fault checks for every scenario at the widest
// configured pool width (the most scheduling interleavings).
func RunFaultSweep(scenarios []Scenario, cfg SweepConfig) *FaultReport {
	cfg = cfg.normalized()
	width := cfg.Widths[len(cfg.Widths)-1]
	rep := &FaultReport{Scenarios: len(scenarios)}
	spillDir, err := os.MkdirTemp("", "gumbo-lab-faults-")
	if err != nil {
		rep.Failures = append(rep.Failures, FaultFailure{Mode: "setup", Detail: "spill dir: " + err.Error()})
		return rep
	}
	defer os.RemoveAll(spillDir)
	sys := gumbo.New(
		gumbo.WithHostWorkers(width),
		gumbo.WithScale(cfg.Scale),
		gumbo.WithSpill(faultSpillThreshold, spillDir),
	)
	for _, sc := range scenarios {
		checks, fails := faultScenario(sys, sc, spillDir)
		rep.Checks += checks
		rep.Failures = append(rep.Failures, fails...)
	}
	return rep
}

// faultScenario injects both fault modes into one scenario.
func faultScenario(sys *gumbo.System, sc Scenario, spillDir string) (checks int, fails []FaultFailure) {
	fail := func(mode string, boundary int, format string, args ...any) {
		fails = append(fails, FaultFailure{Scenario: sc.Name, Mode: mode, Boundary: boundary,
			Detail: fmt.Sprintf(format, args...)})
	}
	q, err := gumbo.Parse(sc.Source())
	if err != nil {
		fail("setup", 0, "parse: %v", err)
		return
	}
	db := sc.Build()
	plan, err := sys.Plan(q, db, sys.Auto(q))
	if err != nil {
		fail("setup", 0, "plan: %v", err)
		return
	}
	baseline := runtime.NumGoroutine()

	// Golden run: grant count, charged total, reference result.
	var grants atomic.Int64
	restore := mr.SetFaultHooks(mr.FaultHooks{Grant: func(context.Context, int) { grants.Add(1) }})
	golden, err := sys.RunPlan(plan, db)
	restore()
	if err != nil {
		fail("setup", 0, "golden run: %v", err)
		return
	}
	total := int(grants.Load())
	if total == 0 {
		fail("setup", 0, "golden run granted no tasks")
		return
	}
	gen := db.Generation()
	rnd := rand.New(rand.NewSource(sc.Seed ^ 0xfa017))

	// aftermath re-checks the teardown contract after one injected
	// fault: goroutines settled, input data untouched, no spill temp
	// files left, and a clean re-run bit-for-bit against golden.
	aftermath := func(mode string, boundary int) {
		settleBy := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(settleBy) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > baseline {
			fail(mode, boundary, "goroutines did not settle: %d, baseline %d", got, baseline)
		}
		if db.Generation() != gen {
			fail(mode, boundary, "faulted run mutated the input database")
		}
		if leaked := spillFiles(spillDir); len(leaked) > 0 {
			fail(mode, boundary, "spill temp files leaked: %v", leaked)
		}
		again, err := sys.RunPlan(plan, db)
		if err != nil {
			fail(mode, boundary, "post-fault re-run: %v", err)
			return
		}
		if d := diffBitForBit(golden, again); d != "" {
			fail(mode, boundary, "post-fault re-run diverges from golden: %s", d)
		}
	}

	// Mode 1: a task panics at a seeded random grant index.
	checks++
	k := rnd.Intn(total)
	sentinel := fmt.Sprintf("lab: injected fault %s@%d", sc.Name, k)
	restore = mr.SetFaultHooks(mr.FaultHooks{Grant: func(_ context.Context, i int) {
		if i == k {
			panic(sentinel)
		}
	}})
	var runErr error
	v := capturePanic(func() { _, runErr = sys.RunPlan(plan, db) })
	restore()
	if v == nil {
		fail("panic", k, "injected panic was not re-raised (err=%v)", runErr)
	} else if v != sentinel {
		fail("panic", k, "re-raised panic %v, want injected sentinel", v)
	}
	aftermath("panic", k)

	// Mode 2: a budget seeded strictly below the golden charged total.
	charged := golden.Mem.ChargedBytes
	if charged < 2 {
		// Degenerate scenario with no accounted allocations: nothing to
		// exhaust.
		return
	}
	checks++
	limit := 1 + rnd.Int63n(charged-1)
	// The fault sweep owns the run it aborts; there is no caller context to thread.
	_, err = sys.RunPlanCtx(context.Background(), plan, db, gumbo.RunOptions{Budget: gumbo.NewBudget(limit)})
	if !errors.Is(err, gumbo.ErrBudgetExceeded) {
		fail("budget", int(limit), "over-budget run returned %v, want ErrBudgetExceeded", err)
	}
	aftermath("budget", int(limit))
	return
}

// capturePanic runs fn and returns the value it panicked with (nil if
// it returned normally).
func capturePanic(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// spillFiles lists the engine spill files present under dir.
func spillFiles(dir string) []string {
	matches, _ := filepath.Glob(filepath.Join(dir, "gumbo-spill-*"))
	for i, m := range matches {
		matches[i] = filepath.Base(m)
	}
	return matches
}
