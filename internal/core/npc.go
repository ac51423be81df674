package core

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// Gadget is the Appendix A reduction from Subset Sum to SGF(-Opt): an
// SGF program and database whose multiway-topological-sort costs realize
// exactly the values γ + Σ_{b ∈ B} b over subsets B of the Subset Sum
// instance.
//
// The instance has empty binary relations R_1..R_n and R◦, relations
// S_i of |S_i| = a_i tuples whose second field never matches the
// constant 1, queries f_i = R_i(x_i, y_i) ⋉ S_i(x_i, 1), and
// f◦ = R◦(x,1) ⋉ R_1(x_1,y_1) ∧ ... ∧ S_1(x_1,1) ∧ ... ∧ S_n(x_1,1).
// The cost configuration zeroes every constant except hr.
//
// Note: f◦ as written in the paper is not guarded (x_1 is shared between
// conditional atoms without occurring in the guard); the gadget drives
// the *cost model* only and is never evaluated, so the program is built
// without validation.
type Gadget struct {
	Program *sgf.Program
	DB      *relation.Database
	Cost    cost.Config
	// Unit is the cost of one Subset Sum unit: hr × (bytes of one S_i
	// tuple) in MB. Dividing sort costs by Unit recovers γ + Σ_B b.
	Unit float64
	// Gamma is Σ a_i.
	Gamma int
}

// SubsetSumGadget builds the reduction instance for the positive
// integers a.
func SubsetSumGadget(a []int) *Gadget {
	db := relation.NewDatabase()
	prog := &sgf.Program{}
	gamma := 0

	// f◦'s condition: conjunction over all R_i and S_i atoms.
	var foAtoms []sgf.Condition

	for i, ai := range a {
		gamma += ai
		ri := fmt.Sprintf("R%d", i+1)
		si := fmt.Sprintf("S%d", i+1)
		db.Put(relation.New(ri, 2))
		sRel := relation.New(si, 2)
		for t := 0; t < ai; t++ {
			// Second field 0: never matches the constant 1 in the atoms.
			sRel.Add(relation.Tuple{relation.Value(1000*i + t), relation.Value(0)})
		}
		db.Put(sRel)
		xi, yi := fmt.Sprintf("x%d", i+1), fmt.Sprintf("y%d", i+1)
		prog.Queries = append(prog.Queries, &sgf.BSGF{
			Name:   fmt.Sprintf("f%d", i+1),
			Select: []string{xi, yi},
			Guard:  sgf.NewAtom(ri, sgf.V(xi), sgf.V(yi)),
			Where:  sgf.AtomCond{Atom: sgf.NewAtom(si, sgf.V(xi), sgf.CInt(1))},
		})
		foAtoms = append(foAtoms, sgf.AtomCond{Atom: sgf.NewAtom(ri, sgf.V(xi), sgf.V(yi))})
	}
	for i := range a {
		si := fmt.Sprintf("S%d", i+1)
		foAtoms = append(foAtoms, sgf.AtomCond{Atom: sgf.NewAtom(si, sgf.V("x1"), sgf.CInt(1))})
	}
	db.Put(relation.New("Rc", 2))
	prog.Queries = append(prog.Queries, &sgf.BSGF{
		Name:   "fo",
		Select: []string{"x"},
		Guard:  sgf.NewAtom("Rc", sgf.V("x"), sgf.CInt(1)),
		Where:  sgf.AndOf(foAtoms...),
	})

	cfg := cost.Zero()
	cfg.HDFSRead = 1
	// One S_i tuple is 2 fields × BytesPerField.
	unit := 1.0 * float64(2*relation.BytesPerField) / mr.MB
	return &Gadget{Program: prog, DB: db, Cost: cfg, Unit: unit, Gamma: gamma}
}

// Estimator returns a gadget-configured estimator. No S_i fact conforms
// to its atom, so sampling is exact at any stride.
func (g *Gadget) Estimator() *Estimator {
	return NewEstimator(g.Cost, cost.Gumbo, g.DB, g.Program)
}

// SubsetSums returns the set of achievable Σ_B b values for all subsets
// B of a (for verifying the reduction on small instances).
func SubsetSums(a []int) map[int]bool {
	sums := map[int]bool{0: true}
	for _, ai := range a {
		next := make(map[int]bool, 2*len(sums))
		for s := range sums {
			next[s] = true
			next[s+ai] = true
		}
		sums = next
	}
	return sums
}
