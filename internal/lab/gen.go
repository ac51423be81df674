// Package lab is the generative workload laboratory: seeded random SGF
// programs over a shape grammar, composed with seeded data scenarios,
// swept under every evaluation strategy at several pool widths with a
// differential output oracle and through the engine's split, spill and
// lifecycle paths, and mined for cost-model calibration (docs/LAB.md). The paper's §5 evaluation fixes a handful of
// hand-written queries; the lab exercises query shapes and data
// distributions no one wrote by hand.
package lab

import (
	"fmt"
	"math/rand"

	"repro/internal/sgf"
)

// Shape names a family of generated program skeletons.
type Shape int

const (
	// ShapeStar: flat queries, each a conjunction of conditional atoms
	// over one guard — the paper's A-query family (shared keys, shared
	// relations, or neither).
	ShapeStar Shape = iota
	// ShapeUnion: flat queries with disjunctive (and partially negated)
	// conditions — the B2 family.
	ShapeUnion
	// ShapeChain: each query's condition references the previous query's
	// output, forming a dependency chain (C2 family).
	ShapeChain
	// ShapeNestedGuard: a later query uses an earlier query's output as
	// its guard relation.
	ShapeNestedGuard
	// ShapeMulti: a multi-output mix — flat, chained and nested-guard
	// queries with general condition trees and several sinks.
	ShapeMulti
	numShapes
)

// AllShapes lists every shape in declaration order.
func AllShapes() []Shape {
	out := make([]Shape, numShapes)
	for i := range out {
		out[i] = Shape(i)
	}
	return out
}

// String returns the shape's report name.
func (s Shape) String() string {
	switch s {
	case ShapeStar:
		return "star"
	case ShapeUnion:
		return "union"
	case ShapeChain:
		return "chain"
	case ShapeNestedGuard:
		return "nested"
	case ShapeMulti:
		return "multi"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// GenConfig bounds the program generator.
type GenConfig struct {
	MaxQueries int // queries per program (≥2; chains/multi use up to this)
	MaxArity   int // guard arity is drawn from [2, MaxArity]
	MaxAtoms   int // conditional atom leaves per query (≥2)
	MaxDepth   int // condition tree nesting depth (0 = single leaf)
}

// DefaultGenConfig returns the bounds used by the sweep: programs of up
// to four queries over guards of arity ≤ 4, conditions of up to five
// atoms nested two deep.
func DefaultGenConfig() GenConfig {
	return GenConfig{MaxQueries: 4, MaxArity: 4, MaxAtoms: 5, MaxDepth: 2}
}

// normalized clamps the config into its documented ranges.
func (c GenConfig) normalized() GenConfig {
	if c.MaxQueries < 2 {
		c.MaxQueries = 2
	}
	if c.MaxArity < 2 {
		c.MaxArity = 2
	}
	if c.MaxAtoms < 2 {
		c.MaxAtoms = 2
	}
	if c.MaxDepth < 0 {
		c.MaxDepth = 0
	}
	return c
}

// GenProgram generates a well-formed SGF program for the seed: the
// shape is drawn from the seed, then the skeleton is filled in. The
// result always passes sgf.Validate and round-trips through sgf.Parse
// (pinned by TestGenProgramValid and FuzzGenProgram): conditional atoms
// take only guard variables and constants as arguments, so guardedness
// holds by construction; relation arities are tracked program-wide; and
// queries reference only earlier outputs.
func GenProgram(seed int64, cfg GenConfig) (*sgf.Program, Shape) {
	rng := rand.New(rand.NewSource(seed))
	shape := Shape(rng.Intn(int(numShapes)))
	return genShaped(rng, shape, cfg), shape
}

// GenShapedProgram generates a program of the given shape.
func GenShapedProgram(seed int64, shape Shape, cfg GenConfig) *sgf.Program {
	rng := rand.New(rand.NewSource(seed))
	return genShaped(rng, shape, cfg)
}

type outRef struct {
	name  string
	arity int
}

// gen carries generator state: the RNG, the program-wide arity table
// (sgf.Validate requires each symbol to keep one arity), fresh-name
// counters and the outputs defined so far.
type gen struct {
	rng      *rand.Rand
	cfg      GenConfig
	relArity map[string]int
	guards   []string // base guard relations created so far
	conds    []string // base conditional relations created so far
	outputs  []outRef
	nGuard   int
	nCond    int
	nOut     int
}

func newGen(rng *rand.Rand, cfg GenConfig) *gen {
	return &gen{rng: rng, cfg: cfg.normalized(), relArity: map[string]int{}}
}

func genShaped(rng *rand.Rand, shape Shape, cfg GenConfig) *sgf.Program {
	g := newGen(rng, cfg)
	var p *sgf.Program
	switch shape {
	case ShapeStar:
		p = g.genStar()
	case ShapeUnion:
		p = g.genUnion()
	case ShapeChain:
		p = g.genChain()
	case ShapeNestedGuard:
		p = g.genNested()
	default:
		p = g.genMulti()
	}
	if err := sgf.Validate(p); err != nil {
		// Validity is by construction; a failure here is a generator bug.
		panic(fmt.Sprintf("lab: generated invalid program (seed state lost): %v\n%s", err, p))
	}
	return p
}

// vars returns a-many fresh variable names x0..x{a-1}.
func queryVars(a int) []string {
	vs := make([]string, a)
	for i := range vs {
		vs[i] = fmt.Sprintf("x%d", i)
	}
	return vs
}

// guardAtom returns a guard atom over fresh distinct variables, reusing
// an earlier guard relation about a third of the time (the paper's
// guard-sharing workloads) and minting a fresh one otherwise.
func (g *gen) guardAtom() (sgf.Atom, []string) {
	var name string
	if len(g.guards) > 0 && g.rng.Intn(3) == 0 {
		name = g.guards[g.rng.Intn(len(g.guards))]
	} else {
		name = fmt.Sprintf("R%d", g.nGuard)
		g.nGuard++
		g.relArity[name] = 2 + g.rng.Intn(g.cfg.MaxArity-1)
		g.guards = append(g.guards, name)
	}
	vs := queryVars(g.relArity[name])
	args := make([]sgf.Term, len(vs))
	for i, v := range vs {
		args[i] = sgf.V(v)
	}
	return sgf.NewAtom(name, args...), vs
}

// outputGuardAtom returns a guard atom over an earlier output (the
// nested-guard form), or ok=false when no output exists.
func (g *gen) outputGuardAtom() (sgf.Atom, []string, bool) {
	if len(g.outputs) == 0 {
		return sgf.Atom{}, nil, false
	}
	o := g.outputs[g.rng.Intn(len(g.outputs))]
	vs := queryVars(o.arity)
	args := make([]sgf.Term, len(vs))
	for i, v := range vs {
		args[i] = sgf.V(v)
	}
	return sgf.NewAtom(o.name, args...), vs, true
}

// baseCondAtom returns a conditional atom over a base relation: every
// argument is a guard variable or a constant, and at least one is a
// variable, so guardedness and non-emptiness hold by construction.
// Existing conditional relations are reused about half the time.
func (g *gen) baseCondAtom(guardVars []string) sgf.Atom {
	var name string
	if len(g.conds) > 0 && g.rng.Intn(2) == 0 {
		name = g.conds[g.rng.Intn(len(g.conds))]
	} else {
		name = fmt.Sprintf("S%d", g.nCond)
		g.nCond++
		g.relArity[name] = 1 + g.rng.Intn(2)
		g.conds = append(g.conds, name)
	}
	a := g.relArity[name]
	args := make([]sgf.Term, a)
	varAt := g.rng.Intn(a) // at least this position holds a variable
	for i := range args {
		if i == varAt || g.rng.Float64() < 0.8 {
			args[i] = sgf.V(guardVars[g.rng.Intn(len(guardVars))])
		} else {
			args[i] = sgf.CInt(int64(g.rng.Intn(8)))
		}
	}
	return sgf.NewAtom(name, args...)
}

// outputCondAtom returns a conditional atom over an earlier output
// whose arity fits into the guard variables, or ok=false.
func (g *gen) outputCondAtom(guardVars []string) (sgf.Atom, bool) {
	var fits []outRef
	for _, o := range g.outputs {
		if o.arity <= len(guardVars) {
			fits = append(fits, o)
		}
	}
	if len(fits) == 0 {
		return sgf.Atom{}, false
	}
	o := fits[g.rng.Intn(len(fits))]
	// Distinct guard variables, sampled without replacement.
	perm := g.rng.Perm(len(guardVars))
	args := make([]sgf.Term, o.arity)
	for i := range args {
		args[i] = sgf.V(guardVars[perm[i]])
	}
	return sgf.NewAtom(o.name, args...), true
}

// leaf returns one condition leaf: a conditional atom, negated with
// probability 1/5, over an earlier output (when allowed and available)
// a quarter of the time.
func (g *gen) leaf(guardVars []string, useOutputs bool) sgf.Condition {
	var atom sgf.Atom
	if useOutputs && g.rng.Intn(4) == 0 {
		if a, ok := g.outputCondAtom(guardVars); ok {
			atom = a
		} else {
			atom = g.baseCondAtom(guardVars)
		}
	} else {
		atom = g.baseCondAtom(guardVars)
	}
	var c sgf.Condition = sgf.AtomCond{Atom: atom}
	if g.rng.Intn(5) == 0 {
		c = sgf.Not{C: c}
	}
	return c
}

// genCond builds a condition tree of at most depth levels and *budget
// atom leaves (decremented per leaf).
func (g *gen) genCond(guardVars []string, depth int, budget *int, useOutputs bool) sgf.Condition {
	*budget--
	if depth <= 0 || *budget <= 0 || g.rng.Intn(3) == 0 {
		return g.leaf(guardVars, useOutputs)
	}
	n := 2 + g.rng.Intn(2)
	cs := make([]sgf.Condition, 0, n)
	for i := 0; i < n && (i == 0 || *budget > 0); i++ {
		cs = append(cs, g.genCond(guardVars, depth-1, budget, useOutputs))
	}
	if g.rng.Intn(2) == 0 {
		return sgf.AndOf(cs...)
	}
	return sgf.OrOf(cs...)
}

// selectVars picks a nonempty subset of the guard variables, in guard
// order.
func (g *gen) selectVars(guardVars []string) []string {
	var sel []string
	for _, v := range guardVars {
		if g.rng.Intn(2) == 0 {
			sel = append(sel, v)
		}
	}
	if len(sel) == 0 {
		sel = append(sel, guardVars[g.rng.Intn(len(guardVars))])
	}
	return sel
}

// define appends a finished query to the program and records its output.
func (g *gen) define(p *sgf.Program, guard sgf.Atom, sel []string, where sgf.Condition) *sgf.BSGF {
	g.nOut++
	q := &sgf.BSGF{
		Name:   fmt.Sprintf("Z%d", g.nOut),
		Select: sel,
		Guard:  guard,
		Where:  where,
	}
	p.Queries = append(p.Queries, q)
	g.relArity[q.Name] = len(sel)
	g.outputs = append(g.outputs, outRef{name: q.Name, arity: len(sel)})
	return q
}

// genStar: flat conjunctive queries. Each query AND-joins k atoms; with
// probability 1/3 all atoms share one key (the A3 pattern), otherwise
// keys are drawn independently (A1).
func (g *gen) genStar() *sgf.Program {
	p := &sgf.Program{}
	nq := 1 + g.rng.Intn(2)
	for i := 0; i < nq; i++ {
		guard, vars := g.guardAtom()
		k := 1 + g.rng.Intn(g.cfg.MaxAtoms)
		shared := g.rng.Intn(3) == 0
		key := vars[g.rng.Intn(len(vars))]
		cs := make([]sgf.Condition, k)
		for j := range cs {
			v := key
			if !shared {
				v = vars[g.rng.Intn(len(vars))]
			}
			cs[j] = sgf.AtomCond{Atom: g.baseCondAtom([]string{v})}
		}
		g.define(p, guard, g.selectVars(vars), sgf.AndOf(cs...))
	}
	return p
}

// genUnion: flat queries with disjunctive conditions, some leaves
// negated.
func (g *gen) genUnion() *sgf.Program {
	p := &sgf.Program{}
	nq := 1 + g.rng.Intn(2)
	for i := 0; i < nq; i++ {
		guard, vars := g.guardAtom()
		k := 2 + g.rng.Intn(g.cfg.MaxAtoms-1)
		cs := make([]sgf.Condition, k)
		for j := range cs {
			cs[j] = g.leaf(vars, false)
		}
		g.define(p, guard, g.selectVars(vars), sgf.OrOf(cs...))
	}
	return p
}

// genChain: query i's condition references query i−1's output.
func (g *gen) genChain() *sgf.Program {
	p := &sgf.Program{}
	depth := 2 + g.rng.Intn(g.cfg.MaxQueries-1)
	for i := 0; i < depth; i++ {
		guard, vars := g.guardAtom()
		var cs []sgf.Condition
		if i > 0 {
			prev := g.outputs[len(g.outputs)-1]
			if prev.arity <= len(vars) {
				perm := g.rng.Perm(len(vars))
				args := make([]sgf.Term, prev.arity)
				for j := range args {
					args[j] = sgf.V(vars[perm[j]])
				}
				cs = append(cs, sgf.AtomCond{Atom: sgf.NewAtom(prev.name, args...)})
			}
		}
		cs = append(cs, sgf.AtomCond{Atom: g.baseCondAtom(vars)})
		g.define(p, guard, g.selectVars(vars), sgf.AndOf(cs...))
	}
	return p
}

// genNested: a flat opener, then queries guarded by earlier outputs.
func (g *gen) genNested() *sgf.Program {
	p := &sgf.Program{}
	guard, vars := g.guardAtom()
	// The opener keeps at least two columns so the nested guard has keys
	// to join on.
	sel := vars[:2+g.rng.Intn(len(vars)-1)]
	budget := g.cfg.MaxAtoms
	g.define(p, guard, sel, g.genCond(vars, 1, &budget, false))
	levels := 1 + g.rng.Intn(2)
	for i := 0; i < levels; i++ {
		og, ovars, ok := g.outputGuardAtom()
		if !ok {
			break
		}
		b := g.cfg.MaxAtoms
		g.define(p, og, g.selectVars(ovars), g.genCond(ovars, 1, &b, false))
	}
	return p
}

// genMulti: a multi-output mix of flat, chained and nested queries with
// general condition trees.
func (g *gen) genMulti() *sgf.Program {
	p := &sgf.Program{}
	nq := 2 + g.rng.Intn(g.cfg.MaxQueries-1)
	for i := 0; i < nq; i++ {
		var guard sgf.Atom
		var vars []string
		if i > 0 && g.rng.Intn(4) == 0 {
			if og, ovars, ok := g.outputGuardAtom(); ok && len(ovars) >= 2 {
				guard, vars = og, ovars
			}
		}
		if vars == nil {
			guard, vars = g.guardAtom()
		}
		budget := g.cfg.MaxAtoms
		where := g.genCond(vars, g.cfg.MaxDepth, &budget, i > 0)
		g.define(p, guard, g.selectVars(vars), where)
	}
	return p
}
