// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the in-process MapReduce engine and cluster
// simulator. Each experiment has a runner returning a Table with the
// same rows/series the paper reports; cmd/gumbo-bench drives the full
// set and bench_test.go exposes one benchmark per artifact.
//
// Experiments run at a configurable fraction of the paper's data sizes:
// cost-model buffers, split sizes and per-reducer allocations are
// scaled by the same factor (cost.Config.Scaled), so merge passes and
// task waves behave as at full scale.
package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/mr"
	"repro/internal/refeval"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale multiplies the paper's data cardinalities (1.0 = 100M-tuple
	// guards). The cost configuration must be scaled consistently; use
	// At().
	Scale   float64
	CostCfg cost.Config
	Cluster cluster.Config
	// Verify cross-checks every strategy's output against the reference
	// evaluator (slower; on by default at small scales).
	Verify bool
	// HostWorkers sizes the engine's unified worker pool: every task of
	// a plan, across all of its jobs, shares these goroutines
	// (0 = GOMAXPROCS, 1 = strictly sequential). Simulated results are
	// identical at every setting; only wall-clock time changes.
	HostWorkers int
	// Progress, when non-nil, receives one line per run.
	Progress io.Writer
}

// At returns the standard configuration at the given scale.
func At(scale float64) Config {
	return Config{
		Scale:   scale,
		CostCfg: cost.Default().Scaled(scale),
		Cluster: cluster.DefaultConfig(),
		Verify:  scale <= 0.002,
	}
}

// DefaultConfig runs at 1/1000 of the paper's data sizes.
func DefaultConfig() Config { return At(0.001) }

// TestConfig is a fast configuration for unit tests.
func TestConfig() Config { return At(0.0001) }

// SmokeConfig is a minimal configuration for quick end-to-end smoke
// checks (e.g. `go test -short`): tiny data, reference verification on.
func SmokeConfig() Config { return At(0.00005) }

func (c Config) runner() *exec.Runner {
	return exec.NewRunner(mr.Config{Cost: c.CostCfg, Workers: c.HostWorkers}, c.Cluster)
}

func (c Config) logf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// runResult couples a strategy with its measured metrics.
type runResult struct {
	Strategy core.Strategy
	Metrics  mr.Metrics
}

// paperSeconds converts simulated seconds at the configured scale into
// paper-equivalent seconds: the cost model is exactly scale-invariant
// (cost.Config.Scaled), so dividing by the scale recovers the times the
// configuration would produce at the paper's full data sizes.
func (c Config) paperSeconds(simulated float64) float64 {
	if c.Scale <= 0 {
		return simulated
	}
	return simulated / c.Scale
}

// paperMetrics rescales a metrics record to paper-equivalent units
// (times divided by scale, byte volumes divided by scale).
func (c Config) paperMetrics(m mr.Metrics) mr.Metrics {
	if c.Scale <= 0 {
		return m
	}
	m.NetTime /= c.Scale
	m.TotalTime /= c.Scale
	m.InputMB /= c.Scale
	m.CommMB /= c.Scale
	m.OutputMB /= c.Scale
	return m
}

// runStrategies executes the given strategies on one workload database,
// verifying outputs against the reference evaluator when configured.
func (c Config) runStrategies(ctx context.Context, wl workload.Workload, db *relation.Database, strategies []core.Strategy) ([]runResult, error) {
	var want *relation.Database
	if c.Verify {
		var err error
		want, err = refeval.EvalProgram(wl.Program, db)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: reference evaluation: %w", wl.Name, err)
		}
	}
	runner := c.runner()
	out := make([]runResult, 0, len(strategies))
	for _, strat := range strategies {
		plan, err := exec.BuildPlan(strat, fmt.Sprintf("%s-%s", wl.Name, strat), c.CostCfg, wl.Program, db)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s: %w", wl.Name, strat, err)
		}
		res, err := runner.Run(ctx, plan, db, mr.RunOptions{})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s: %w", wl.Name, strat, err)
		}
		if want != nil {
			for _, q := range wl.Program.Queries {
				got := res.Outputs.Relation(q.Name)
				if got == nil || !got.Equal(want.Relation(q.Name)) {
					return nil, fmt.Errorf("experiments: %s/%s: output %s deviates from reference",
						wl.Name, strat, q.Name)
				}
			}
		}
		c.logf("%-10s %-10s %s", wl.Name, strat, res.Metrics)
		out = append(out, runResult{Strategy: strat, Metrics: c.paperMetrics(res.Metrics)})
	}
	return out, nil
}
