// Package workload defines the paper's experimental queries (Table 2 and
// Figure 6) and generates their synthetic datasets at a configurable
// scale. The paper's full-scale setup uses 100M-tuple guard relations
// (4 GB at 4-ary, 10 bytes/field) and equally many conditional tuples
// (1 GB at unary) with 50% of conditional tuples matching the guard; a
// Scale of 1.0 reproduces those cardinalities, and experiments default
// to Scale 1/1000 with cost-model buffers scaled alike
// (cost.Config.Scaled).
package workload

import (
	"fmt"
	"strings"

	"repro/internal/data"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// PaperGuardTuples is the paper's guard relation cardinality.
const PaperGuardTuples = 100_000_000

// Workload is a named SGF program plus its data-generation parameters.
type Workload struct {
	Name        string
	Description string
	Program     *sgf.Program
	// GuardTuples / CondTuples at scale 1.0 (defaults: paper sizes).
	GuardTuples int
	CondTuples  int
	// MatchFrac is the fraction of conditional tuples matching the guard
	// (§5.1: 50%). Ignored when CoverSet is set.
	MatchFrac float64
	// CoverSel, with CoverSet, fixes the selectivity rate: the fraction
	// of guard tuples each conditional relation matches (§5.4).
	CoverSel float64
	CoverSet bool
	// Zipf, when positive, skews the generated data (data.GuardSpec.Zipf /
	// data.CondSpec.Zipf): guard column 0 and the conditionals' matching
	// join values follow a Zipf(1+Zipf) distribution. Applied only to
	// relations of arity ≥ 2 — unary relations are distinct-value sets
	// that skew cannot change.
	Zipf float64
	Seed int64
}

func mustParse(name, src string) *sgf.Program {
	p, err := sgf.Parse(src)
	if err != nil {
		panic(fmt.Sprintf("workload %s: %v", name, err))
	}
	return p
}

func std(name, desc, src string) Workload {
	return Workload{
		Name:        name,
		Description: desc,
		Program:     mustParse(name, src),
		GuardTuples: PaperGuardTuples,
		CondTuples:  PaperGuardTuples,
		MatchFrac:   0.5,
		Seed:        1,
	}
}

// A1 — guard sharing: four semi-joins over one guard, distinct
// conditionals on distinct keys.
func A1() Workload {
	return std("A1", "guard sharing",
		`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND T(y) AND U(z) AND V(w);`)
}

// A2 — guard & conditional name sharing: one conditional relation on
// four distinct keys.
func A2() Workload {
	return std("A2", "guard & conditional name sharing",
		`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND S(y) AND S(z) AND S(w);`)
}

// A3 — guard & conditional key sharing: four conditionals on one key.
func A3() Workload {
	return std("A3", "guard & conditional key sharing",
		`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND T(x) AND U(x) AND V(x);`)
}

// A4 — no sharing: two queries over different guards with disjoint
// conditional relations.
func A4() Workload {
	return std("A4", "no sharing", `
		Z1 := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND T(y) AND U(z) AND V(w);
		Z2 := SELECT x, y, z, w FROM G(x, y, z, w) WHERE W(x) AND X(y) AND Y(z) AND Q(w);`)
}

// A5 — conditional name sharing: two guards sharing all conditionals.
func A5() Workload {
	return std("A5", "conditional name sharing", `
		Z1 := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND T(y) AND U(z) AND V(w);
		Z2 := SELECT x, y, z, w FROM G(x, y, z, w) WHERE S(x) AND T(y) AND U(z) AND V(w);`)
}

// B1 — large conjunctive query: 16 atoms (4 relations × 4 keys).
func B1() Workload {
	var atoms []string
	for _, rel := range []string{"S", "T", "U", "V"} {
		for _, v := range []string{"x", "y", "z", "w"} {
			atoms = append(atoms, fmt.Sprintf("%s(%s)", rel, v))
		}
	}
	return std("B1", "large conjunctive query",
		fmt.Sprintf(`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE %s;`,
			strings.Join(atoms, " AND ")))
}

// B2 — the uniqueness query: tuples connected to exactly one of the
// conditional relations through x.
func B2() Workload {
	return std("B2", "uniqueness query", `
		Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE
			(S(x) AND NOT T(x) AND NOT U(x) AND NOT V(x)) OR
			(NOT S(x) AND T(x) AND NOT U(x) AND NOT V(x)) OR
			(S(x) AND NOT T(x) AND U(x) AND NOT V(x)) OR
			(NOT S(x) AND NOT T(x) AND NOT U(x) AND V(x));`)
}

// A3K generalizes A3 to k conditional atoms on one key (Figure 8).
func A3K(k int) Workload {
	var atoms []string
	for i := 1; i <= k; i++ {
		atoms = append(atoms, fmt.Sprintf("C%d(x)", i))
	}
	w := std(fmt.Sprintf("A3(%d)", k), "key sharing, variable width",
		fmt.Sprintf(`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE %s;`,
			strings.Join(atoms, " AND ")))
	return w
}

// CostModelConstant is the filtering constant of the §5.2 cost-model
// query: no conditional tuple's second field ever equals it.
const CostModelConstant = 999_999_999

// CostModel is the adversarial query of §5.2 ("Cost Model"): a 12-ary
// guard semi-joined with four conditional relations on all twelve keys,
// with a constant that filters out every conditional tuple. The guard's
// map output is huge (48 requests per fact) while the large conditional
// inputs emit nothing — exactly the non-proportional input/output mix
// where the per-partition model (Eq. 2) and the aggregate model (Eq. 3)
// diverge: the aggregate model spreads the guard's intermediate data
// over the conditionals' many mappers and misses the map-side merges.
func CostModel() Workload {
	// The twelve distinct keys x̄1..x̄12 over the 4-ary guard are the
	// twelve ordered pairs of distinct guard variables; every fact of R
	// therefore produces 48 composite-key requests — the "many
	// key-value pairs for each tuple in R" of §3.3 — while the constant
	// filters every tuple of S1..S4, whose map output is empty.
	guardVars := []string{"x", "y", "z", "w"}
	var keys [][2]string
	for _, a := range guardVars {
		for _, b := range guardVars {
			if a != b {
				keys = append(keys, [2]string{a, b})
			}
		}
	}
	var atoms []string
	for s := 1; s <= 4; s++ {
		for _, k := range keys {
			atoms = append(atoms, fmt.Sprintf("S%d(%s, %s, %d)", s, k[0], k[1], CostModelConstant))
		}
	}
	w := std("COSTMODEL", "map-expansion vs filtering inputs",
		fmt.Sprintf(`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE %s;`,
			strings.Join(atoms, " AND ")))
	// Conditional relations contribute many map tasks but no map
	// output: the non-proportional mix that separates the two models.
	w.CondTuples = 5 * PaperGuardTuples
	return w
}

// C1 — two-level SGF query set with disjunctive upper levels and shared
// guards (Figure 6a; the figure's duplicated Z3 label is disambiguated).
func C1() Workload {
	return std("C1", "two-level query set, shared guards", `
		ZA := SELECT x FROM R(x, y, z, w) WHERE S(x) AND S(y);
		ZB := SELECT x FROM G(x, y, z, w) WHERE T(x) AND T(y);
		ZC := SELECT x FROM H(x, y, z, w) WHERE U(x) AND U(y);
		ZD := SELECT x FROM G(x, y, z, w) WHERE ZA(z) OR ZA(w);
		ZE := SELECT x FROM H(x, y, z, w) WHERE ZC(z) OR ZC(w);`)
}

// C2 — three chains with crossing guard reuse (Figure 6b).
func C2() Workload {
	return std("C2", "crossed chains, guard reuse", `
		Z1 := SELECT x FROM R(x, y, z, w) WHERE S(x) AND S(y);
		Z2 := SELECT x FROM G(x, y, z, w) WHERE T(x) AND T(y);
		Z3 := SELECT x FROM H(x, y, z, w) WHERE U(x) AND U(y);
		Z4 := SELECT x FROM G(x, y, z, w) WHERE Z1(x) AND Z1(y);
		Z5 := SELECT x FROM H(x, y, z, w) WHERE Z2(x) AND Z2(y);
		Z6 := SELECT x FROM R(x, y, z, w) WHERE Z3(x) AND Z3(y);`)
}

// C3 — a complex three-level query with many distinct atoms
// (Figure 6c).
func C3() Workload {
	return std("C3", "complex multi-level query", `
		Z11 := SELECT z FROM R(x, y, z, w) WHERE S(x) AND T(y);
		Z12 := SELECT z FROM R(x, y, z, w) WHERE T(y);
		Z13 := SELECT z FROM I(x, y, z, w) WHERE NOT S(w);
		Z21 := SELECT z FROM G(x, y, z, w) WHERE Z11(x) AND U(y);
		Z22 := SELECT z FROM H(x, y, z, w) WHERE U(y) OR V(y) AND Z12(x);
		Z23 := SELECT z FROM R(x, y, z, w) WHERE U(x) AND T(y) AND V(z) AND Z13(w);
		Z31 := SELECT z FROM I(x, y, z, w) WHERE Z22(x) AND T(x) AND V(y);`)
}

// C4 — two levels with many overlapping atoms (Figure 6d; the figure's
// Z23/Z24 references are read as Z13/Z14).
func C4() Workload {
	return std("C4", "two levels, many overlapping atoms", `
		Z11 := SELECT y FROM R(x, y, z, w) WHERE S(x) OR T(y);
		Z12 := SELECT y FROM R(x, y, z, w) WHERE U(z) OR S(x);
		Z13 := SELECT y FROM G(x, y, z, w) WHERE U(x) OR V(y);
		Z14 := SELECT y FROM G(x, y, z, w) WHERE S(z) OR U(x);
		Z21 := SELECT x, y, z, w FROM H(x, y, z, w) WHERE Z11(x) OR Z12(y) OR Z13(z) OR Z14(w);`)
}

// AQueries returns A1–A5 in order.
func AQueries() []Workload {
	return []Workload{A1(), A2(), A3(), A4(), A5()}
}

// BQueries returns B1–B2.
func BQueries() []Workload { return []Workload{B1(), B2()} }

// CQueries returns C1–C4.
func CQueries() []Workload { return []Workload{C1(), C2(), C3(), C4()} }

// Build generates the workload's database at the given scale (1.0 =
// paper size). Guard relations (any base relation used as a guard) get
// ⌈GuardTuples×scale⌉ tuples; conditional-only base relations get
// ⌈CondTuples×scale⌉ tuples matched against the first guard column they
// join with.
func (w Workload) Build(scale float64) *relation.Database {
	db := relation.NewDatabase()
	defined := w.Program.Defined()

	// Classify base relations: guard vs conditional-only, with arity.
	type relUse struct {
		arity   int
		isGuard bool
		// first conditional pairing: guard relation, guard column, and
		// the atom's join column.
		guardRel string
		guardCol int
		joinAt   int
		paired   bool
	}
	uses := make(map[string]*relUse)
	order := []string{}
	touch := func(name string, arity int) *relUse {
		u, ok := uses[name]
		if !ok {
			u = &relUse{arity: arity}
			uses[name] = u
			order = append(order, name)
		}
		return u
	}
	for _, q := range w.Program.Queries {
		if !defined[q.Guard.Rel] {
			touch(q.Guard.Rel, q.Guard.Arity()).isGuard = true
		}
		for _, atom := range q.CondAtoms() {
			if defined[atom.Rel] {
				continue
			}
			u := touch(atom.Rel, atom.Arity())
			if u.paired || defined[q.Guard.Rel] {
				continue
			}
			shared := sgf.SharedVars(q.Guard, atom)
			if len(shared) == 0 {
				continue
			}
			u.paired = true
			u.guardRel = q.Guard.Rel
			u.guardCol = q.Guard.VarPositions(shared[:1])[0]
			u.joinAt = atom.VarPositions(shared[:1])[0]
		}
	}

	guardN := scaled(w.GuardTuples, scale)
	condN := scaled(w.CondTuples, scale)

	// Guards first (conditionals sample their columns).
	for _, name := range order {
		u := uses[name]
		if !u.isGuard {
			continue
		}
		g := data.GuardSpec{
			Name:   name,
			Arity:  u.arity,
			Tuples: guardN,
			Seed:   w.Seed,
		}
		if u.arity >= 2 {
			g.Zipf = w.Zipf
		}
		db.Put(g.Generate())
	}
	for _, name := range order {
		u := uses[name]
		if u.isGuard {
			continue
		}
		spec := data.CondSpec{
			Name:      name,
			Arity:     u.arity,
			Tuples:    condN,
			MatchFrac: w.MatchFrac,
			CoverFrac: w.CoverSel,
			CoverSet:  w.CoverSet,
			Seed:      w.Seed,
		}
		if u.arity >= 2 {
			spec.Zipf = w.Zipf
		}
		if u.paired {
			spec.Guard = db.Relation(u.guardRel)
			spec.Col = u.guardCol
			spec.JoinAt = u.joinAt
		} else {
			// No join pairing: generate against a throwaway guard so the
			// value distribution is still well-defined.
			spec.Guard = data.GuardSpec{Name: name + "_aux", Arity: 1, Tuples: condN, Seed: w.Seed + 7}.Generate()
			spec.Col = 0
		}
		db.Put(spec.Generate())
	}
	return db
}

func scaled(n int, scale float64) int {
	s := int(float64(n)*scale + 0.5)
	if s < 1 {
		s = 1
	}
	return s
}

// WithScaleSeed returns a copy with a different seed (for repeated
// runs).
func (w Workload) WithSeed(seed int64) Workload {
	w.Seed = seed
	return w
}

// WithSelectivity returns a copy configured for the §5.4 selectivity
// experiment: each conditional relation matches `sel` of the guard.
func (w Workload) WithSelectivity(sel float64) Workload {
	w.CoverSet = true
	w.CoverSel = sel
	return w
}
