package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cost"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func planOf(overhead float64, maps, reds []float64) cost.TaskPlan {
	return cost.TaskPlan{Overhead: overhead, MapTasks: maps, ReduceTasks: reds}
}

func TestSingleJobSingleTask(t *testing.T) {
	res := Simulate(Config{Nodes: 1, SlotsPerNode: 1}, []Job{
		{Name: "j", Plan: planOf(2, []float64{3}, []float64{4})},
	})
	// overhead 2 gates start; map 3; reduce 4 -> net 9.
	if !almostEq(res.NetTime, 9) {
		t.Errorf("NetTime = %v, want 9", res.NetTime)
	}
	if !almostEq(res.TotalTime, 2+3+4) {
		t.Errorf("TotalTime = %v", res.TotalTime)
	}
}

func TestMapWavesRespectSlots(t *testing.T) {
	// 4 maps of 1s on 2 slots: two waves -> maps end at 2, reduce at 3.
	res := Simulate(Config{Nodes: 1, SlotsPerNode: 2}, []Job{
		{Name: "j", Plan: planOf(0, []float64{1, 1, 1, 1}, []float64{1})},
	})
	if !almostEq(res.NetTime, 3) {
		t.Errorf("NetTime = %v, want 3", res.NetTime)
	}
}

func TestReducersWaitForAllMaps(t *testing.T) {
	// slowstart=1: even with free slots, the reduce cannot overlap maps.
	res := Simulate(Config{Nodes: 1, SlotsPerNode: 10}, []Job{
		{Name: "j", Plan: planOf(0, []float64{5, 1}, []float64{1})},
	})
	if !almostEq(res.NetTime, 6) {
		t.Errorf("NetTime = %v, want 6", res.NetTime)
	}
}

func TestIndependentJobsRunConcurrently(t *testing.T) {
	jobs := []Job{
		{Name: "a", Plan: planOf(0, []float64{4}, nil)},
		{Name: "b", Plan: planOf(0, []float64{4}, nil)},
	}
	res := Simulate(Config{Nodes: 1, SlotsPerNode: 2}, jobs)
	if !almostEq(res.NetTime, 4) {
		t.Errorf("concurrent NetTime = %v, want 4", res.NetTime)
	}
	res1 := Simulate(Config{Nodes: 1, SlotsPerNode: 1}, jobs)
	if !almostEq(res1.NetTime, 8) {
		t.Errorf("serialized NetTime = %v, want 8", res1.NetTime)
	}
	// Total time is slot-independent.
	if !almostEq(res.TotalTime, res1.TotalTime) {
		t.Errorf("TotalTime differs: %v vs %v", res.TotalTime, res1.TotalTime)
	}
}

func TestDependencyGating(t *testing.T) {
	jobs := []Job{
		{Name: "a", Plan: planOf(0, []float64{2}, []float64{2})},
		{Name: "b", Plan: planOf(0, []float64{3}, nil), Deps: []int{0}},
	}
	res := Simulate(Config{Nodes: 1, SlotsPerNode: 4}, jobs)
	if !almostEq(res.NetTime, 7) {
		t.Errorf("NetTime = %v, want 7", res.NetTime)
	}
	if !almostEq(res.Jobs[1].Start, 4) {
		t.Errorf("dependent job started at %v, want 4", res.Jobs[1].Start)
	}
}

func TestDiamondDependencies(t *testing.T) {
	jobs := []Job{
		{Name: "src", Plan: planOf(0, []float64{1}, nil)},
		{Name: "l", Plan: planOf(0, []float64{2}, nil), Deps: []int{0}},
		{Name: "r", Plan: planOf(0, []float64{5}, nil), Deps: []int{0}},
		{Name: "sink", Plan: planOf(0, []float64{1}, nil), Deps: []int{1, 2}},
	}
	res := Simulate(Config{Nodes: 1, SlotsPerNode: 4}, jobs)
	if !almostEq(res.NetTime, 7) {
		t.Errorf("NetTime = %v, want 7", res.NetTime)
	}
}

func TestOverheadDelaysDependentJobs(t *testing.T) {
	jobs := []Job{
		{Name: "a", Plan: planOf(1, []float64{1}, nil)},
		{Name: "b", Plan: planOf(1, []float64{1}, nil), Deps: []int{0}},
	}
	res := Simulate(Config{Nodes: 1, SlotsPerNode: 1}, jobs)
	// a: gate 1, map to 2. b: gate to 3, map to 4.
	if !almostEq(res.NetTime, 4) {
		t.Errorf("NetTime = %v, want 4", res.NetTime)
	}
	// Overheads count toward total time.
	if !almostEq(res.TotalTime, 1+1+1+1) {
		t.Errorf("TotalTime = %v, want 4", res.TotalTime)
	}
}

// TestOverheadGateOpensWhileOthersRun: a dependent job's gate opens
// while an unrelated long task runs, with slots free. It starts at its
// gate, not at the next task completion.
func TestOverheadGateOpensWhileOthersRun(t *testing.T) {
	jobs := []Job{
		{Name: "a", Plan: planOf(0, []float64{1}, nil)},
		{Name: "b", Plan: planOf(1, []float64{1}, nil), Deps: []int{0}},
		{Name: "c", Plan: planOf(0, []float64{10}, nil)},
	}
	res := Simulate(Config{Nodes: 1, SlotsPerNode: 10}, jobs)
	// a: map to 1. b: gate to 2, map to 3. c: map to 10.
	if !almostEq(res.Jobs[1].Start, 2) {
		t.Errorf("b started at %v, want 2", res.Jobs[1].Start)
	}
	if !almostEq(res.NetTime, 10) {
		t.Errorf("NetTime = %v, want 10", res.NetTime)
	}
}

func TestEmptyJobCompletes(t *testing.T) {
	jobs := []Job{
		{Name: "empty", Plan: planOf(2, nil, nil)},
		{Name: "after", Plan: planOf(0, []float64{1}, nil), Deps: []int{0}},
	}
	res := Simulate(DefaultConfig(), jobs)
	if !almostEq(res.NetTime, 3) {
		t.Errorf("NetTime = %v, want 3", res.NetTime)
	}
}

func TestNoJobs(t *testing.T) {
	res := Simulate(DefaultConfig(), nil)
	if res.NetTime != 0 || res.TotalTime != 0 {
		t.Errorf("empty simulation: %+v", res)
	}
}

func TestCapacityWallEffect(t *testing.T) {
	// The Figure 7a effect: when one strategy's map demand exceeds the
	// slot pool, its net time jumps while a grouped strategy with fewer
	// tasks is unaffected.
	mapsFor := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 1
		}
		return out
	}
	cfg := Config{Nodes: 2, SlotsPerNode: 5} // 10 slots
	within := Simulate(cfg, []Job{{Name: "j", Plan: planOf(0, mapsFor(10), nil)}})
	over := Simulate(cfg, []Job{{Name: "j", Plan: planOf(0, mapsFor(11), nil)}})
	if !almostEq(within.NetTime, 1) || !almostEq(over.NetTime, 2) {
		t.Errorf("wave wall: within=%v over=%v", within.NetTime, over.NetTime)
	}
}

func TestSimulatePanicsOnSelfDep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-dependency did not panic")
		}
	}()
	Simulate(DefaultConfig(), []Job{{Name: "x", Deps: []int{0}}})
}

func TestQuickTotalTimeInvariant(t *testing.T) {
	// Total time equals the sum of all durations + overheads regardless
	// of slot count; net time is monotone non-increasing in slots.
	f := func(durRaw []uint8, slots1, slots2 uint8) bool {
		if len(durRaw) == 0 {
			return true
		}
		if len(durRaw) > 12 {
			durRaw = durRaw[:12]
		}
		var maps []float64
		var want float64
		for _, d := range durRaw {
			v := float64(d%7) + 1
			maps = append(maps, v)
			want += v
		}
		s1 := int(slots1%8) + 1
		s2 := s1 + int(slots2%8) + 1
		job := []Job{{Name: "j", Plan: planOf(0, maps, nil)}}
		r1 := Simulate(Config{Nodes: 1, SlotsPerNode: s1}, job)
		r2 := Simulate(Config{Nodes: 1, SlotsPerNode: s2}, job)
		return almostEq(r1.TotalTime, want) && almostEq(r2.TotalTime, want) &&
			r2.NetTime <= r1.NetTime+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
