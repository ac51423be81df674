package gumbo

import (
	"context"
	"reflect"
	"testing"
)

// TestRunDoorsAgree pins the one-run-path contract: every public door
// into the engine — Run, RunPlan, and RunPlanCtx with zero and with
// populated RunOptions — returns the same Result at pool widths 1 and
// 4, in every field under the determinism contract.
func TestRunDoorsAgree(t *testing.T) {
	q, db := skewedWorkload(6000, 16)
	doors := []struct {
		name string
		run  func(*System, *Plan) (*Result, error)
	}{
		{"Run", func(s *System, _ *Plan) (*Result, error) { return s.Run(q, db, Greedy) }},
		{"RunPlan", func(s *System, p *Plan) (*Result, error) { return s.RunPlan(p, db) }},
		{"RunPlanCtx/zero", func(s *System, p *Plan) (*Result, error) {
			return s.RunPlanCtx(context.Background(), p, db, RunOptions{})
		}},
		{"RunPlanCtx/populated", func(s *System, p *Plan) (*Result, error) {
			prog := new(Progress)
			res, err := s.RunPlanCtx(context.Background(), p, db, RunOptions{Progress: prog, Budget: NewBudget(0)})
			if snap := prog.Snapshot(); err == nil && (snap.JobsTotal == 0 || snap.JobsDone != snap.JobsTotal) {
				t.Errorf("progress observed %d of %d jobs", snap.JobsDone, snap.JobsTotal)
			}
			return res, err
		}},
	}
	var want *Result
	for _, width := range []int{1, 4} {
		sys := New(WithScale(0.0001), WithHostWorkers(width))
		plan, err := sys.Plan(q, db, Greedy)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range doors {
			got, err := d.run(sys, plan)
			if err != nil {
				t.Fatalf("width %d %s: %v", width, d.name, err)
			}
			if want == nil {
				want = got
				continue
			}
			for _, f := range []struct {
				field     string
				got, want any
			}{
				{"Relation", got.Relation, want.Relation},
				{"Outputs", got.Outputs.Relations(), want.Outputs.Relations()},
				{"JobStats", got.JobStats, want.JobStats},
				{"Metrics", got.Metrics, want.Metrics},
				{"Mem", got.Mem, want.Mem},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("width %d %s: %s differs from width 1 Run", width, d.name, f.field)
				}
			}
		}
	}
}

// TestEnvironmentDoesNotConfigure pins that the configuration is
// resolved at New from options alone: the CI gates' GUMBO_* variables
// are a test-helper lever (internal/mr, internal/core) and must not
// reach a System.
func TestEnvironmentDoesNotConfigure(t *testing.T) {
	t.Setenv("GUMBO_SPILL_THRESHOLD", "1")
	t.Setenv("GUMBO_SKEW_SPLIT", "1.1")
	q, db := skewedWorkload(6000, 16)
	res, err := New(WithScale(0.0001)).Run(q, db, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.SpilledParts != 0 {
		t.Errorf("default System spilled %d partitions", res.Mem.SpilledParts)
	}
	for _, st := range res.JobStats {
		if st.SplitReduceTasks != 0 {
			t.Errorf("default System split job %s into %d split reduce tasks", st.Name, st.SplitReduceTasks)
		}
	}
}

// skewedWorkload builds a skewed input for the run-path tests: a semi-join
// whose guard's join column follows a harmonic (zipf-like) frequency
// law over `keys` distinct values — value k carries ~1/k of the hot
// mass. The handful of heavy values land in whichever reduce
// partitions their hashes pick, making those partitions cross the
// split threshold while still holding many separable key groups (the
// shape runtime splitting exists for: a single dominant key is one
// atomic group and can only be isolated, not divided).
func skewedWorkload(tuples, keys int64) (*Query, *Database) {
	q := MustParse("Z := SELECT x, y FROM R(x, y) WHERE S(x);")
	db := NewDatabase()
	g := NewRelation("R", 2)
	j := int64(0)
	for j < tuples {
		for k := int64(1); k <= keys && j < tuples; k++ {
			n := tuples / (k * 6)
			if n == 0 {
				n = 1
			}
			for i := int64(0); i < n && j < tuples; i++ {
				g.Add(Tuple{Int(k), Int(j)})
				j++
			}
		}
	}
	s := NewRelation("S", 1)
	for k := int64(0); k <= keys; k++ {
		s.Add(Tuple{Int(k)})
	}
	db.Put(g)
	db.Put(s)
	return q, db
}
