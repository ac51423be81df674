package lab

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	gumbo "repro"

	"repro/internal/mr"
)

// The cancellation sweep: where sweep.go checks that every strategy
// and width computes the same thing, the cancel sweep checks that
// stopping a run mid-flight is clean. Each scenario is run once to
// count its task grants, then canceled at a seeded random grant index
// and checked for the engine's cancellation contract: the run returns
// context.Canceled within a bounded number of further grants, the
// input database is untouched, no goroutines leak, and a clean re-run
// afterwards reproduces the golden result bit for bit (no pollution of
// process or plan state). Scenarios run serially — the fault-injection
// seam (mr.SetFaultHooks) is process-wide.

// CancelFailure is one scenario that violated the contract.
type CancelFailure struct {
	Scenario string
	Boundary int // grant index the run was canceled at
	Detail   string
}

// CancelReport aggregates a cancellation sweep.
type CancelReport struct {
	Scenarios int
	Failures  []CancelFailure
}

// RunCancelSweep runs the cancellation check for every scenario at the
// widest configured pool width (the most scheduling interleavings).
func RunCancelSweep(scenarios []Scenario, cfg SweepConfig) *CancelReport {
	cfg = cfg.normalized()
	width := cfg.Widths[len(cfg.Widths)-1]
	sys := gumbo.New(gumbo.WithHostWorkers(width), gumbo.WithScale(cfg.Scale))
	rep := &CancelReport{Scenarios: len(scenarios)}
	for _, sc := range scenarios {
		if boundary, detail := cancelScenario(sys, sc, width); detail != "" {
			rep.Failures = append(rep.Failures, CancelFailure{Scenario: sc.Name, Boundary: boundary, Detail: detail})
		}
	}
	return rep
}

// cancelScenario checks one scenario; returns the chosen boundary and
// a non-empty detail on violation.
func cancelScenario(sys *gumbo.System, sc Scenario, width int) (int, string) {
	q, err := gumbo.Parse(sc.Source())
	if err != nil {
		return 0, "parse: " + err.Error()
	}
	db := sc.Build()
	plan, err := sys.Plan(q, db, sys.Auto(q))
	if err != nil {
		return 0, "plan: " + err.Error()
	}
	baseline := runtime.NumGoroutine()

	// Golden run, counting task grants (deterministic per plan+data).
	var grants atomic.Int64
	restore := mr.SetFaultHooks(mr.FaultHooks{Grant: func(context.Context, int) { grants.Add(1) }})
	golden, err := sys.RunPlan(plan, db)
	restore()
	if err != nil {
		return 0, "golden run: " + err.Error()
	}
	total := int(grants.Load())
	if total == 0 {
		return 0, "golden run granted no tasks"
	}

	// Cancel at a seeded random task boundary.
	k := rand.New(rand.NewSource(sc.Seed ^ 0xcab005e)).Intn(total)
	gen := db.Generation()
	// The cancel sweep owns the lifetime of the run it cancels; it manufactures the very context under test.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	restore = mr.SetFaultHooks(mr.FaultHooks{Grant: func(_ context.Context, i int) {
		n.Add(1)
		if i == k {
			cancel()
		}
	}})
	_, err = sys.RunPlanCtx(ctx, plan, db, gumbo.RunOptions{})
	restore()
	if !errors.Is(err, context.Canceled) {
		return k, fmt.Sprintf("canceled run returned %v, want context.Canceled", err)
	}
	if got := int(n.Load()); got > k+width {
		return k, fmt.Sprintf("%d grants after cancel at %d, want <= %d", got, k, k+width)
	}
	if db.Generation() != gen {
		return k, "canceled run mutated the input database"
	}
	settleBy := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(settleBy) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		return k, fmt.Sprintf("goroutines did not settle: %d, baseline %d", got, baseline)
	}

	// Clean re-run: bit-for-bit against the golden result.
	again, err := sys.RunPlan(plan, db)
	if err != nil {
		return k, "post-cancel re-run: " + err.Error()
	}
	if d := diffBitForBit(golden, again); d != "" {
		return k, "post-cancel re-run diverges from golden: " + d
	}
	return k, ""
}
