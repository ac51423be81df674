package gumbo

import (
	"fmt"
	"strings"
	"testing"
)

// wideCase is one condition of n unary conditional atoms C0..Cn-1 over
// the guard R(x, y).
type wideCase struct {
	n       int
	or      bool // atoms combined with OR (else AND)
	negate  bool // every third literal is negated
	sharedX bool // every atom joins on x (else on x and y alternately)
	greedy  bool // also run under GREEDY (see TestWideConditions)
}

func (c wideCase) String() string {
	op, join := "and", "xy"
	if c.or {
		op = "or"
	}
	if c.sharedX {
		join = "x"
	}
	return fmt.Sprintf("n=%d/%s/neg=%v/join=%s", c.n, op, c.negate, join)
}

// wideDomain is the value domain of both guard columns.
const wideDomain = 200

// build returns the query and its database. Every conditional relation
// is either dense (the whole domain but one value) or sparse (that one
// value), chosen so that each literal on its own is mostly true under
// AND and mostly false under OR: the answer is a proper, non-empty
// subset of the guard's projection in every case.
func (c wideCase) build() (*Query, *Database) {
	db := NewDatabase()
	guard := NewRelation("R", 2)
	for j := int64(0); j < 300; j++ {
		guard.Add(Tuple{Int(j % wideDomain), Int((j*7 + j/wideDomain) % wideDomain)})
	}
	db.Put(guard)
	lits := make([]string, c.n)
	for i := range lits {
		negated := c.negate && i%3 == 0
		hole := int64(i*7+3) % wideDomain
		rel := NewRelation(fmt.Sprintf("C%d", i), 1)
		if dense := c.or == negated; dense {
			for v := int64(0); v < wideDomain; v++ {
				if v != hole {
					rel.Add(Tuple{Int(v)})
				}
			}
		} else {
			rel.Add(Tuple{Int(hole)})
		}
		db.Put(rel)
		v := "x"
		if !c.sharedX && i%2 == 1 {
			v = "y"
		}
		lits[i] = fmt.Sprintf("C%d(%s)", i, v)
		if negated {
			lits[i] = "NOT " + lits[i]
		}
	}
	op := " AND "
	if c.or {
		op = " OR "
	}
	return MustParse("Z := SELECT x, y FROM R(x, y) WHERE " + strings.Join(lits, op) + ";"), db
}

// TestWideConditions is the differential test of the reconcile
// reducer's one path across the word boundaries of its bit set: EVAL and
// the 1-ROUND job collect verdicts into one uint64 word up to 64 atoms /
// assert classes, two up to 128 (both on the stack) and a heap slice
// beyond, and MSJ does the same once GREEDY groups more than 64
// equations into one job (at the default scale it groups them all).
// Every side of both boundaries must agree with the reference evaluator
// under every strategy that applies.
//
// Greedy-BSGF planning is cubic in the number of atoms — 0.2 s at 64,
// 1.8 s at 130, whatever the relation sizes — and the MSJ job it builds
// sees neither the connectives nor the negations (EVAL does), so GREEDY
// runs on the plain AND case either side of the first boundary only.
// Auto's choice is checked everywhere; where it is 1-ROUND it is also
// run.
func TestWideConditions(t *testing.T) {
	sys := New()
	for _, n := range []int{63, 64, 65, 128, 129, 130} {
		boundary := n == 64 || n == 65 || n == 128 || n == 129
		cases := []wideCase{
			{n: n, greedy: n == 64 || n == 65}, {n: n, negate: true},
			{n: n, or: true}, {n: n, or: true, negate: true},
		}
		if boundary {
			cases = append(cases, wideCase{n: n, sharedX: true, negate: true})
		}
		for _, c := range cases {
			t.Run(c.String(), func(t *testing.T) {
				q, db := c.build()
				want, err := Eval(q, db)
				if err != nil {
					t.Fatal(err)
				}
				if want.Size() == 0 || want.Size() >= db.Relation("R").Size() {
					t.Fatalf("vacuous case: %d of %d guard tuples selected", want.Size(), db.Relation("R").Size())
				}
				strategies, auto := []Strategy{PAR}, Greedy
				if c.or || c.sharedX {
					strategies, auto = append(strategies, OneRound), OneRound
				} else if _, err := sys.Plan(q, db, OneRound); err == nil {
					t.Error("1-ROUND planned a query it does not apply to")
				}
				if got := sys.Auto(q); got != auto {
					t.Errorf("Auto = %s, want %s", got, auto)
				}
				if c.greedy {
					strategies = append(strategies, Greedy)
				}
				for _, strat := range strategies {
					plan, err := sys.Plan(q, db, strat)
					if err != nil {
						t.Fatalf("%s: %v", strat, err)
					}
					if strat == Greedy && plan.Jobs() != 2 {
						t.Errorf("GREEDY built %d jobs; only one MSJ job over all %d equations crosses MSJ's 64-class boundary", plan.Jobs(), c.n)
					}
					res, err := sys.RunPlan(plan, db)
					if err != nil {
						t.Fatalf("%s: %v", strat, err)
					}
					if !res.Relation.Equal(want) {
						t.Errorf("%s: %d tuples, reference has %d", strat, res.Relation.Size(), want.Size())
					}
				}
			})
		}
	}
}
