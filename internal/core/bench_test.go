package core

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
	"repro/internal/workload"
)

// The two single-job benchmarks: one paper job through Engine.Run with
// B/op and allocs/op reported, so the mapper-side key building and the
// engine's record flow are tracked together (internal/mr's benchmarks
// isolate the engine from key and tuple construction).

func benchJob(b *testing.B, job *mr.Job, wl workload.Workload) {
	db := wl.Build(0.0005)
	engine := mr.NewEngine(mr.Config{Cost: cost.Default().Scaled(0.0005)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runJob(context.Background(), engine, job, db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSJJob measures the multi-semi-join job on A1 (4 semi-joins,
// one guard, 50k-tuple relations).
func BenchmarkMSJJob(b *testing.B) {
	wl := workload.A1()
	job, err := NewMSJJob("bench", ExtractEquations(wl.Program.Queries))
	if err != nil {
		b.Fatal(err)
	}
	benchJob(b, job, wl)
	b.SetBytes(5 * 50000 * 10)
}

// BenchmarkOneRoundJob measures the fused MSJ+EVAL job on A3.
func BenchmarkOneRoundJob(b *testing.B) {
	wl := workload.A3()
	job, err := NewOneRoundJob("bench", wl.Program.Queries)
	if err != nil {
		b.Fatal(err)
	}
	benchJob(b, job, wl)
}

// The planner benchmarks: one plan per op, each with a fresh Estimator,
// so every stream is sampled again — what a plan-cache miss pays.

// BenchmarkPlanGreedySGF plans C3 under Greedy-SGF at 15 000 guard
// tuples: seven queries in three groups, the nested-sgf workload's size.
func BenchmarkPlanGreedySGF(b *testing.B) {
	benchPlan(b, 15000, []workload.Workload{workload.C3()}, func(e *Estimator, p *sgf.Program) (*Plan, error) {
		return e.GreedySGFPlan("bench", p)
	})
}

// BenchmarkPlanGreedy plans A1 and A2 under GREEDY at 2 000 guard tuples:
// the served corpus's GREEDY queries.
func BenchmarkPlanGreedy(b *testing.B) {
	benchPlan(b, 2000, []workload.Workload{workload.A1(), workload.A2()}, func(e *Estimator, p *sgf.Program) (*Plan, error) {
		return e.GreedyPlan("bench", p.Queries)
	})
}

func benchPlan(b *testing.B, guard int, wls []workload.Workload, plan func(*Estimator, *sgf.Program) (*Plan, error)) {
	scale := float64(guard) / workload.PaperGuardTuples
	cfg := cost.Default().Scaled(scale)
	dbs := make([]*relation.Database, len(wls))
	for i, wl := range wls {
		dbs[i] = wl.Build(scale)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, wl := range wls {
			if _, err := plan(NewEstimator(cfg, cost.Gumbo, dbs[k], wl.Program), wl.Program); err != nil {
				b.Fatal(err)
			}
		}
	}
}
