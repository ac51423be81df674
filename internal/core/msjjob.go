package core

import (
	"fmt"

	"repro/internal/mr"
	"repro/internal/sgf"
)

// NewMSJJob builds the single MapReduce job MSJ(S) of Algorithm 1,
// evaluating every semi-join equation of eqs at once. The mapper emits,
// for each guard-conforming fact, one request message per equation
// (keyed by the equation's join-key projection) and, for each
// conditional-conforming fact, one assert message per distinct assert
// class. The reducer reconciles requests with asserts and writes guard
// tuple ids to the equations' output relations.
//
// Gumbo's optimizations are applied: message packing (opt 1), tuple-id
// references (opt 2), and intermediate-size-based reducer allocation
// (opt 3, inside the engine). Shared conditional atoms across equations
// produce one assert stream instead of several.
//
// Shared input relations are read once: an input's facts play every
// role the equations give them (reconcile.go has the one mapper and
// the one reducer).
func NewMSJJob(name string, eqs []Equation) (*mr.Job, error) {
	return NewMSJJobSkew(name, eqs, nil)
}

// NewMSJJobSkew builds an MSJ job with heavy-hitter mitigation: a
// request whose join key is in heavy is salted by its guard tuple id,
// and asserts on a heavy key are replicated to every salt. Keys outside
// the heavy set behave exactly as in NewMSJJob, which is this with an
// empty set.
func NewMSJJobSkew(name string, eqs []Equation, heavy map[string]bool) (*mr.Job, error) {
	if len(eqs) == 0 {
		return nil, fmt.Errorf("core: MSJ job %s has no equations", name)
	}
	t := newReconcile("MSJ job", name)
	if len(heavy) > 0 {
		t.name, t.heavy = name+"+skew", heavy
	}
	for _, e := range eqs {
		if err := t.output(e.Out, 1); err != nil {
			return nil, err
		}
	}
	for _, e := range eqs {
		if e.Guard.Rel == e.Out || e.Cond.Rel == e.Out {
			return nil, fmt.Errorf("core: MSJ job %s: output %s occurs in a right-hand side", name, e.Out)
		}
		t.input(e.Guard.Rel) // guards lead the read set
	}
	for _, e := range eqs {
		err := t.request(request{
			input: e.Guard.Rel, guard: e.Guard,
			key:   on(e.Guard, e.JoinVars),
			carry: fields{id: true}, size: reqIDBytes, // optimization (2): a reference, not the tuple
			cond: sgf.AtomCond{Atom: e.Cond},
			bits: map[string]int32{e.Cond.Key(): t.class(e.Cond, e.JoinVars)},
			out:  e.Out,
		})
		if err != nil {
			return nil, err
		}
	}
	return t.job(), nil
}
