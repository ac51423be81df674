package cluster

import (
	"math"
	"slices"
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

// TestScheduleTieOrder pins, with hand-computed per-job start and end
// times, the tie rules the schedule rests on: events at one instant are
// handled one at a time in job-index order with a launch pass after
// each, a job counts as ready from its gate time on, and a job's reduces
// wait for its last map to complete.
func TestScheduleTieOrder(t *testing.T) {
	for _, c := range []struct {
		name  string
		slots int
		jobs  []Job
		want  []JobTimes
		net   float64
	}{
		{
			// At 2 a and b complete together. a's slot is filled first,
			// before b's completion gates c, so d gets it; b's slot then
			// goes to c. c's second map waits for its first.
			name:  "two completions at one instant",
			slots: 2,
			jobs: []Job{
				{Name: "a", Plan: planOf(0, []float64{2}, nil)},
				{Name: "b", Plan: planOf(0, []float64{2}, nil)},
				{Name: "c", Plan: planOf(0, []float64{1, 1}, nil), Deps: []int{1}},
				{Name: "d", Plan: planOf(0, []float64{3, 3}, nil)},
			},
			want: []JobTimes{{"a", 0, 2}, {"b", 0, 2}, {"c", 2, 4}, {"d", 2, 7}},
			net:  7,
		},
		{
			// g's gate opens at 2, the instant a's map completes: g is
			// ready for the freed slot and, lower-indexed, takes it from z.
			name:  "gate opens as a task completes",
			slots: 1,
			jobs: []Job{
				{Name: "a", Plan: planOf(0, []float64{2}, nil)},
				{Name: "g", Plan: planOf(2, []float64{1}, nil)},
				{Name: "z", Plan: planOf(0, []float64{1}, nil)},
			},
			want: []JobTimes{{"a", 0, 2}, {"g", 2, 3}, {"z", 3, 4}},
			net:  4,
		},
		{
			// Slots are free from 1 on, but a's reduce waits for its last
			// map at 3.
			name:  "reduces wait for the last map",
			slots: 3,
			jobs: []Job{
				{Name: "a", Plan: planOf(0, []float64{1, 3}, []float64{2})},
				{Name: "b", Plan: planOf(0, []float64{2, 2}, nil)},
			},
			want: []JobTimes{{"a", 0, 5}, {"b", 0, 3}},
			net:  5,
		},
		{
			// A job with reduces and no maps runs its reduces at its gate.
			name:  "reduce-only job",
			slots: 1,
			jobs: []Job{
				{Name: "r", Plan: planOf(1, nil, []float64{2, 3})},
				{Name: "b", Plan: planOf(0, []float64{1}, nil), Deps: []int{0}},
			},
			want: []JobTimes{{"r", 1, 6}, {"b", 6, 7}},
			net:  7,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := Simulate(Config{Nodes: 1, SlotsPerNode: c.slots}, c.jobs)
			if res.NetTime != c.net {
				t.Errorf("NetTime = %v, want %v", res.NetTime, c.net)
			}
			if !slices.Equal(res.Jobs, c.want) {
				t.Errorf("Jobs = %v, want %v", res.Jobs, c.want)
			}
		})
	}
}
