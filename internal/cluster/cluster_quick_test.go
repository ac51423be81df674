package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/cost"
)

// randomDAG builds a random job DAG with random task durations.
func randomDAG(rng *rand.Rand, n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		var maps, reds []float64
		for m := 0; m < 1+rng.Intn(5); m++ {
			maps = append(maps, float64(1+rng.Intn(5)))
		}
		for r := 0; r < rng.Intn(3); r++ {
			reds = append(reds, float64(1+rng.Intn(5)))
		}
		var deps []int
		for d := 0; d < i; d++ {
			if rng.Intn(4) == 0 {
				deps = append(deps, d)
			}
		}
		jobs[i] = Job{
			Name: "j",
			Plan: cost.TaskPlan{MapTasks: maps, ReduceTasks: reds, Overhead: float64(rng.Intn(3))},
			Deps: deps,
		}
	}
	return jobs
}

// TestRandomDAGInvariants checks the scheduler's core invariants on
// random DAGs: every job completes; total time equals the sum of all
// durations plus overheads; net time is bounded below by the critical
// path of any single chain and above by full serialization; more slots
// never increase net time; net time never exceeds total time.
func TestRandomDAGInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		jobs := randomDAG(rng, n)
		var wantTotal float64
		for _, j := range jobs {
			wantTotal += j.Plan.Overhead
			for _, d := range j.Plan.MapTasks {
				wantTotal += d
			}
			for _, d := range j.Plan.ReduceTasks {
				wantTotal += d
			}
		}
		small := Simulate(Config{Nodes: 1, SlotsPerNode: 1}, jobs)
		big := Simulate(Config{Nodes: 4, SlotsPerNode: 8}, jobs)
		for _, res := range []Result{small, big} {
			if len(res.Jobs) != n {
				t.Fatalf("trial %d: %d jobs finished, want %d", trial, len(res.Jobs), n)
			}
			if !almostEq(res.TotalTime, wantTotal) {
				t.Fatalf("trial %d: total %v, want %v", trial, res.TotalTime, wantTotal)
			}
			if res.NetTime > res.TotalTime+1e-9 {
				t.Fatalf("trial %d: net %v > total %v", trial, res.NetTime, res.TotalTime)
			}
		}
		if big.NetTime > small.NetTime+1e-9 {
			t.Fatalf("trial %d: more slots increased net time (%v -> %v)",
				trial, small.NetTime, big.NetTime)
		}
		// Single-slot run serializes all tasks; job-start overheads may
		// overlap other jobs' running tasks (the AM gate is not
		// slot-bound), so net lies between Σ task durations and total.
		var taskSum float64
		for _, j := range jobs {
			for _, d := range j.Plan.MapTasks {
				taskSum += d
			}
			for _, d := range j.Plan.ReduceTasks {
				taskSum += d
			}
		}
		if small.NetTime < taskSum-1e-9 {
			t.Fatalf("trial %d: single slot net %v below task sum %v",
				trial, small.NetTime, taskSum)
		}
		// Job end times respect dependencies.
		for i, j := range jobs {
			for _, d := range j.Deps {
				if big.Jobs[d].End > big.Jobs[i].Start+1e-9 {
					t.Fatalf("trial %d: job %d started before dep %d ended", trial, i, d)
				}
			}
		}
	}
}

// TestRandomDAGStartsAtGate: with more slots than tasks nothing queues,
// so every job starts exactly when its gate opens — the latest End
// among its dependencies plus its own overhead.
func TestRandomDAGStartsAtGate(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		jobs := randomDAG(rng, 50)
		res := Simulate(Config{Nodes: 1, SlotsPerNode: 1000}, jobs)
		for i, j := range jobs {
			gate := 0.0
			for _, d := range j.Deps {
				gate = max(gate, res.Jobs[d].End)
			}
			if want := gate + j.Plan.Overhead; !almostEq(res.Jobs[i].Start, want) {
				t.Fatalf("trial %d: job %d started at %v, want %v", trial, i, res.Jobs[i].Start, want)
			}
		}
	}
}
