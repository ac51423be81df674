package core

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/mr"
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
