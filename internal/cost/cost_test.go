package cost

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDefaultMatchesTable5(t *testing.T) {
	c := Default()
	if c.LocalRead != 0.03 || c.LocalWrite != 0.085 || c.HDFSRead != 0.15 ||
		c.HDFSWrite != 0.25 || c.Transfer != 0.017 || c.MergeFactor != 10 ||
		c.BufMapMB != 409 || c.BufRedMB != 512 {
		t.Errorf("Default() deviates from Table 5: %+v", c)
	}
}

func TestMergePasses(t *testing.T) {
	c := Default()
	cases := []struct {
		runs float64
		want float64
	}{
		{0.5, 0}, {1, 0}, {2, math.Log10(2)}, {10, 1}, {100, 2}, {40.2, math.Log10(41)},
	}
	for _, cse := range cases {
		if got := c.mergePasses(cse.runs); !almostEq(got, cse.want) {
			t.Errorf("mergePasses(%v) = %v, want %v", cse.runs, got, cse.want)
		}
	}
}

func TestMapCostNoMergeWhenFitsInBuffer(t *testing.T) {
	c := Default()
	// 100MB input, 100MB intermediate, 1 mapper: fits in 409MB buffer.
	got := c.MapCost(100, 100, 0, 1)
	want := c.HDFSRead*100 + c.LocalWrite*100
	if !almostEq(got, want) {
		t.Errorf("MapCost = %v, want %v", got, want)
	}
}

func TestMapCostWithMergePass(t *testing.T) {
	c := Default()
	// One mapper, 5000MB intermediate: ceil(5000/409)=13 runs, so the
	// merge factor is log_10(13).
	got := c.MergeMap(5000, 0, 1)
	want := (c.LocalRead + c.LocalWrite) * 5000 * (math.Log(13) / math.Log(10))
	if !almostEq(got, want) {
		t.Errorf("MergeMap = %v, want %v", got, want)
	}
	// Spreading over 13 mappers removes the merge cost entirely.
	if got := c.MergeMap(5000, 0, 13); got != 0 {
		t.Errorf("MergeMap with many mappers = %v, want 0", got)
	}
}

func TestMetadataIncreasesMergeCost(t *testing.T) {
	c := Default()
	// Right at the buffer boundary, metadata tips it into a merge pass.
	base := c.MergeMap(409, 0, 1)
	withMeta := c.MergeMap(409, 10, 1)
	if base != 0 {
		t.Errorf("base merge = %v, want 0", base)
	}
	if withMeta <= 0 {
		t.Errorf("metadata did not trigger a merge pass: %v", withMeta)
	}
}

func TestRedCost(t *testing.T) {
	c := Default()
	got := c.RedCost(1000, 200, 4)
	// 1000/4 = 250MB per reducer < 512 buffer: no merge.
	want := c.Transfer*1000 + c.HDFSWrite*200
	if !almostEq(got, want) {
		t.Errorf("RedCost = %v, want %v", got, want)
	}
}

func TestMappersAndReducers(t *testing.T) {
	c := Default()
	if got := c.Mappers(0); got != 1 {
		t.Errorf("Mappers(0) = %d", got)
	}
	if got := c.Mappers(129); got != 2 {
		t.Errorf("Mappers(129) = %d", got)
	}
	if got := c.Reducers(0); got != 1 {
		t.Errorf("Reducers(0) = %d", got)
	}
	if got := c.Reducers(257); got != 2 {
		t.Errorf("Reducers(257) = %d", got)
	}
}

func TestGumboVsWangDivergence(t *testing.T) {
	// The motivating example of §3.3: one relation whose map output is
	// large and one that filters everything. The aggregate (Wang) model
	// averages the intermediate data over all mappers, missing the
	// map-side merges of the expanding part.
	c := Default()
	job := JobSpec{
		Partitions: []Partition{
			// Small input exploding to 4000MB from 1 mapper.
			{Name: "R", InputMB: 100, InterMB: 4000, Records: 4e6, Mappers: 1},
			// Large input filtered to nothing across many mappers.
			{Name: "S", InputMB: 4000, InterMB: 0, Records: 0, Mappers: 32},
		},
		OutputMB: 10,
	}
	gumbo := c.JobCost(Gumbo, job)
	wang := c.JobCost(Wang, job)
	if gumbo <= wang {
		t.Errorf("expected per-partition model to price the merge: gumbo=%v wang=%v", gumbo, wang)
	}
}

func TestModelsAgreeOnSinglePartition(t *testing.T) {
	c := Default()
	f := func(nRaw, mRaw uint16) bool {
		n := float64(nRaw%2000) + 1
		m := float64(mRaw % 4000)
		job := JobSpec{
			Partitions: []Partition{{Name: "R", InputMB: n, InterMB: m, Records: int64(m * 100)}},
			OutputMB:   n / 2,
		}
		return almostEq(c.JobCost(Gumbo, job), c.JobCost(Wang, job))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJobCostMonotoneInInput(t *testing.T) {
	c := Default()
	f := func(nRaw uint16, extra uint8) bool {
		n := float64(nRaw) + 1
		base := JobSpec{Partitions: []Partition{{InputMB: n, InterMB: n, Records: int64(n)}}}
		more := JobSpec{Partitions: []Partition{{InputMB: n + float64(extra), InterMB: n + float64(extra), Records: int64(n) + int64(extra)}}}
		return c.JobCost(Gumbo, more) >= c.JobCost(Gumbo, base)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendixAGadgetCosts(t *testing.T) {
	// Appendix A: all constants 0 except hr = 1; then the cost of a job
	// with input a_i MB equals cost_h + a_i = a_i.
	c := Zero()
	c.HDFSRead = 1
	job := JobSpec{
		Partitions: []Partition{{Name: "S1", InputMB: 42, InterMB: 42, Records: 42}},
		OutputMB:   42,
	}
	if got := c.JobCost(Gumbo, job); !almostEq(got, 42) {
		t.Errorf("gadget job cost = %v, want 42", got)
	}
}

func TestScaled(t *testing.T) {
	c := Default().Scaled(0.01)
	if !almostEq(c.BufMapMB, 4.09) || !almostEq(c.SplitMB, 1.28) || !almostEq(c.ReducerDataMB, 2.56) {
		t.Errorf("Scaled wrong: %+v", c)
	}
	// I/O constants unchanged.
	if c.HDFSRead != 0.15 {
		t.Errorf("Scaled changed I/O constants")
	}
}

func TestTasksSumToJobCost(t *testing.T) {
	c := Default()
	c.TaskOverhead = 0
	job := JobSpec{
		Partitions: []Partition{
			{Name: "R", InputMB: 500, InterMB: 700, Records: 1e6},
			{Name: "S", InputMB: 300, InterMB: 100, Records: 2e5},
		},
		OutputMB: 50,
	}
	plan := c.TasksLoaded(job, nil)
	var sum float64
	for _, d := range plan.MapTasks {
		sum += d
	}
	for _, d := range plan.ReduceTasks {
		sum += d
	}
	sum += plan.Overhead
	if !almostEq(sum, c.JobCost(Gumbo, job)) {
		t.Errorf("task sum %v != job cost %v", sum, c.JobCost(Gumbo, job))
	}
	if len(plan.MapTasks) != c.Mappers(500)+c.Mappers(300) {
		t.Errorf("map task count = %d", len(plan.MapTasks))
	}
}

func TestTaskOverheadAdds(t *testing.T) {
	c := Default()
	job := JobSpec{Partitions: []Partition{{InputMB: 1, InterMB: 1, Records: 10}}}
	plan := c.TasksLoaded(job, nil)
	if len(plan.MapTasks) != 1 || len(plan.ReduceTasks) != 1 {
		t.Fatalf("task counts: %d maps %d reds", len(plan.MapTasks), len(plan.ReduceTasks))
	}
	if plan.MapTasks[0] < c.TaskOverhead {
		t.Error("task overhead missing")
	}
}
