package exec

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// retainProbe wraps a production reducer and takes a weak pointer to
// every key, payload and group view the engine hands it.
type retainProbe struct {
	inner  mr.Reducer
	mu     sync.Mutex
	bytes  []weak.Pointer[byte]
	groups []weak.Pointer[mr.Group]
}

func (p *retainProbe) Reduce(key []byte, msgs *mr.Group, out *mr.Output) {
	p.mu.Lock()
	if len(key) > 0 {
		p.bytes = append(p.bytes, weak.Make(&key[0]))
	}
	for i := 0; i < msgs.Len(); i++ {
		if _, pl := msgs.At(i); len(pl) > 0 {
			p.bytes = append(p.bytes, weak.Make(&pl[0]))
		}
	}
	p.groups = append(p.groups, weak.Make(msgs))
	p.mu.Unlock()
	p.inner.Reduce(key, msgs, out)
}

// live counts the probed buffers and views still reachable.
func (p *retainProbe) live() (bytes, groups int) {
	for _, w := range p.bytes {
		if w.Value() != nil {
			bytes++
		}
	}
	for _, w := range p.groups {
		if w.Value() != nil {
			groups++
		}
	}
	return bytes, groups
}

// TestReducersRetainNothing pins the key and message ownership contract
// (mr.Reducer) for every production reducer: the reducers of every
// strategy's plan, resident and spilled. Keys and payloads are slices of
// the engine's single-use shuffle buffers and a group view is re-pointed
// at each key run, so a reducer that keeps one past its callback reads
// no wrong bytes; what it does is pin the buffer it points into for as
// long as the plan lives — and the server's plan cache keeps plans.
// While the jobs are still reachable, a collection after the run must
// free every buffer and view the reducers were handed.
//
// Each plan runs twice, resident then spilled, and both runs must give
// the same answer: a mapper or reducer that keeps state across runs —
// a relation captured at plan time, say, instead of one read through
// the job's Inputs — answers a cached plan's second run differently.
func TestReducersRetainNothing(t *testing.T) {
	db := relation.NewDatabase()
	guard := data.GuardSpec{Name: "R", Arity: 4, Tuples: 600, Seed: 1}.Generate()
	db.Put(guard)
	for i, name := range []string{"S", "T"} {
		db.Put(data.CondSpec{Name: name, Arity: 1, Tuples: 600, Guard: guard, Col: i, MatchFrac: 0.5, Seed: int64(i + 2)}.Generate())
	}
	prog := sgf.MustParse(`Z := SELECT x, y FROM R(x, y, z, w) WHERE S(x) OR NOT T(y);`)
	for _, strat := range Strategies() {
		plan, err := BuildPlan(strat, "retain", cost.Default(), prog, db)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		var first *relation.Relation
		for _, spill := range []bool{false, true} {
			jobs := make([]*mr.Job, len(plan.Jobs))
			probes := make([]*retainProbe, len(plan.Jobs))
			for i, j := range plan.Jobs {
				wrapped := *j
				probes[i] = &retainProbe{inner: j.Reducer}
				wrapped.Reducer = probes[i]
				jobs[i] = &wrapped
			}
			cfg := mr.Config{Cost: cost.Default().Scaled(0.001), Workers: 2}
			if spill {
				cfg.SpillThreshold, cfg.SpillDir = 1, t.TempDir()
			}
			outs, _, _, err := mr.NewEngine(cfg).Run(context.Background(), &mr.Program{Jobs: jobs}, db, mr.RunOptions{})
			if err != nil {
				t.Fatalf("%s, spill %v: %v", strat, spill, err)
			}
			if z := outs.Relation("Z"); first == nil {
				first = z
			} else if !z.Equal(first) {
				t.Errorf("%s: the plan's second run answers %d tuples, its first %d", strat, z.Size(), first.Size())
			}
			runtime.GC()
			runtime.GC()
			for i, p := range probes {
				if b, g := p.live(); b > 0 || g > 0 {
					t.Errorf("%s, spill %v: job %s's reducer keeps %d of %d key and payload buffers and %d of %d group views reachable after the run",
						strat, spill, jobs[i].Name, b, len(p.bytes), g, len(p.groups))
				}
			}
			runtime.KeepAlive(jobs)
		}
	}
}
