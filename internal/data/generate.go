// Package data provides seeded synthetic data generators matching the
// paper's experimental setup (§5.1): guard relations of n-ary tuples and
// conditional relations with controlled match rates against a guard
// column. Two notions of matching are supported:
//
//   - MatchFrac: the fraction of conditional tuples whose join value
//     occurs in the guard ("50% of the conditional tuples match those of
//     the guard relation", used in the main experiments);
//   - CoverFrac: the fraction of guard tuples matched by the conditional
//     relation (the "selectivity rate" of §5.4's selectivity experiment).
//
// All generators are deterministic given their seed.
package data

import (
	"fmt"
	"math/rand"

	"repro/internal/relation"
)

// missBase is the base of the value range used for deliberately
// non-matching join values. Guard domains must stay below it.
const missBase int64 = 1 << 40

// GuardSpec describes a synthetic guard relation.
type GuardSpec struct {
	Name   string
	Arity  int
	Tuples int
	Domain int64 // values are drawn uniformly from [0, Domain); 0 means 2×Tuples
	// Zipf, when positive, skews column 0: values are drawn from a Zipf
	// distribution with exponent 1+Zipf over [0, Domain) instead of
	// uniformly, so a few low values carry most of the tuples. Requires
	// Arity ≥ 2 — relations are tuple sets, so skewing a unary relation
	// could only shrink its distinct-value set, not repeat values.
	Zipf float64
	Seed int64
}

// tupleCapacity returns min(domain^arity, MaxInt64): the number of
// distinct tuples a relation over the domain can hold.
func tupleCapacity(domain int64, arity int) int64 {
	cap := int64(1)
	for i := 0; i < arity; i++ {
		if domain == 0 || cap > maxInt64/domain {
			return maxInt64
		}
		cap *= domain
	}
	return cap
}

const maxInt64 = int64(^uint64(0) >> 1)

// Generate builds the guard relation: exactly Tuples distinct tuples.
// Duplicate draws are re-drawn, so the spec must be satisfiable —
// Generate panics up front when Tuples exceeds Domain^Arity (the loop
// would spin forever), and panics after a bounded number of duplicate
// redraws when the spec is satisfiable but the distribution leaves too
// few likely combinations (e.g. extreme Zipf skew over a small domain).
func (s GuardSpec) Generate() *relation.Relation {
	r := relation.New(s.Name, s.Arity)
	if s.Tuples <= 0 {
		return r
	}
	domain := s.Domain
	if domain == 0 {
		domain = 2 * int64(s.Tuples)
	}
	if domain >= missBase {
		panic(fmt.Sprintf("data: guard domain %d exceeds missBase", domain))
	}
	if s.Zipf > 0 && s.Arity < 2 {
		panic(fmt.Sprintf("data: guard %s: Zipf skew requires Arity ≥ 2 (a unary relation is a distinct-value set)", s.Name))
	}
	if c := tupleCapacity(domain, s.Arity); int64(s.Tuples) > c {
		panic(fmt.Sprintf("data: guard %s cannot hold %d distinct tuples: Domain^Arity = %d^%d allows only %d",
			s.Name, s.Tuples, domain, s.Arity, c))
	}
	rng := rand.New(rand.NewSource(mix(s.Seed, s.Name)))
	var zipf *rand.Zipf
	if s.Zipf > 0 {
		zipf = rand.NewZipf(rng, 1+s.Zipf, 1, uint64(domain-1))
	}
	dups := 0
	for r.Size() < s.Tuples {
		t := make(relation.Tuple, s.Arity)
		for i := range t {
			if i == 0 && zipf != nil {
				t[i] = relation.Value(zipf.Uint64())
			} else {
				t[i] = relation.Value(rng.Int63n(domain))
			}
		}
		if !r.Add(t) {
			dups++
			if dups > 100*s.Tuples+1000 {
				panic(fmt.Sprintf("data: guard %s: %d duplicate redraws without reaching %d distinct tuples (Domain %d, Zipf %.2f leave too few likely combinations)",
					s.Name, dups, s.Tuples, domain, s.Zipf))
			}
		}
	}
	return r
}

// CondSpec describes a synthetic conditional relation whose join column
// relates to one column of a guard relation.
type CondSpec struct {
	Name   string
	Arity  int
	Tuples int
	Guard  *relation.Relation // the guard to match against
	Col    int                // guard column supplying join values
	JoinAt int                // column of this relation holding the join value

	// Exactly one of MatchFrac/CoverFrac modes applies. If CoverSet is
	// false, MatchFrac mode is used.
	MatchFrac float64 // fraction of conditional tuples with a guard-matching join value
	CoverFrac float64 // fraction of guard tuples this relation matches
	CoverSet  bool    // selects CoverFrac mode

	// OtherDomain is the domain for non-join columns (default: 2×Tuples).
	OtherDomain int64
	// Zipf, when positive, skews which guard values the matching tuples
	// join with: matching join values are picked by a Zipf(1+Zipf) index
	// into the shuffled distinct guard-column values instead of
	// uniformly, so a few guard values attract most of the matching
	// tuples. Requires Arity ≥ 2 — a unary conditional relation is a
	// distinct-value set and cannot repeat join values.
	Zipf float64
	Seed int64
}

// Generate builds the conditional relation.
func (s CondSpec) Generate() *relation.Relation {
	if s.Zipf > 0 && s.Arity < 2 {
		panic(fmt.Sprintf("data: conditional %s: Zipf skew requires Arity ≥ 2 (a unary relation is a distinct-value set)", s.Name))
	}
	rng := rand.New(rand.NewSource(mix(s.Seed, s.Name)))
	other := s.OtherDomain
	if other == 0 {
		other = 2 * int64(s.Tuples)
	}
	r := relation.New(s.Name, s.Arity)
	if s.CoverSet {
		s.generateCovering(r, rng, other)
	} else {
		s.generateMatching(r, rng, other)
	}
	return r
}

// guardColumnValues returns the distinct values of the guard column, in
// first-occurrence order.
func (s CondSpec) guardColumnValues() []relation.Value {
	seen := make(map[relation.Value]bool)
	var vals []relation.Value
	s.Guard.Each(func(_ int, t relation.Tuple) {
		v := t[s.Col]
		if !seen[v] {
			seen[v] = true
			vals = append(vals, v)
		}
	})
	return vals
}

// addWithJoin inserts one tuple with the given join value, re-drawing the
// non-join columns on duplicate collisions. For unary relations a
// collision means the join value is already present, in which case the
// tuple is skipped and false is returned.
func (s CondSpec) addWithJoin(r *relation.Relation, rng *rand.Rand, other int64, join relation.Value) bool {
	for attempt := 0; attempt < 64; attempt++ {
		t := make(relation.Tuple, s.Arity)
		for i := range t {
			if i == s.JoinAt {
				t[i] = join
			} else {
				t[i] = relation.Value(rng.Int63n(other))
			}
		}
		if r.Add(t) {
			return true
		}
		if s.Arity == 1 {
			return false
		}
	}
	return false
}

func (s CondSpec) miss(rng *rand.Rand) relation.Value {
	return relation.Value(missBase + rng.Int63n(int64(s.Tuples)*8+16))
}

// padMisses fills the relation up to Tuples with non-matching tuples.
func (s CondSpec) padMisses(r *relation.Relation, rng *rand.Rand, other int64) {
	guardTries := 0
	for r.Size() < s.Tuples {
		if !s.addWithJoin(r, rng, other, s.miss(rng)) {
			guardTries++
			if guardTries > 100*s.Tuples+1000 {
				panic(fmt.Sprintf("data: cannot fill %s to %d distinct tuples", s.Name, s.Tuples))
			}
		}
	}
}

// generateMatching builds the relation so that an exact MatchFrac fraction
// of its tuples carries a join value present in the guard column (capped,
// for unary relations, by the number of distinct guard values).
func (s CondSpec) generateMatching(r *relation.Relation, rng *rand.Rand, other int64) {
	vals := s.guardColumnValues()
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	nMatch := int(s.MatchFrac*float64(s.Tuples) + 0.5)
	if nMatch > s.Tuples {
		nMatch = s.Tuples
	}
	if len(vals) == 0 {
		nMatch = 0
	}
	if s.Arity == 1 && nMatch > len(vals) {
		// A unary set relation cannot contain more matching tuples than
		// the guard column has distinct values. Preserve the requested
		// match *rate* by shrinking the relation proportionally.
		nMatch = len(vals)
		if s.MatchFrac > 0 {
			s.Tuples = int(float64(nMatch)/s.MatchFrac + 0.5)
		}
	}
	var zipf *rand.Zipf
	if s.Zipf > 0 && len(vals) > 0 {
		zipf = rand.NewZipf(rng, 1+s.Zipf, 1, uint64(len(vals)-1))
	}
	tries := 0
	for i := 0; i < nMatch; {
		var v relation.Value
		switch {
		case s.Arity == 1:
			v = vals[i]
		case zipf != nil:
			v = vals[zipf.Uint64()]
		default:
			v = vals[rng.Intn(len(vals))]
		}
		if s.addWithJoin(r, rng, other, v) {
			i++
		} else {
			tries++
			if tries > 100*s.Tuples+1000 {
				panic(fmt.Sprintf("data: cannot place %d matching tuples in %s (OtherDomain %d too small for the join-value distribution)",
					nMatch, s.Name, other))
			}
		}
	}
	s.padMisses(r, rng, other)
}

// generateCovering builds the relation so that it matches a CoverFrac
// fraction of the distinct guard column values (the selectivity rate of
// §5.4), padding with non-matching tuples up to Tuples.
func (s CondSpec) generateCovering(r *relation.Relation, rng *rand.Rand, other int64) {
	vals := s.guardColumnValues()
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	nCover := int(s.CoverFrac*float64(len(vals)) + 0.5)
	if nCover > len(vals) {
		nCover = len(vals)
	}
	if nCover > s.Tuples {
		nCover = s.Tuples
	}
	for _, v := range vals[:nCover] {
		s.addWithJoin(r, rng, other, v)
	}
	s.padMisses(r, rng, other)
}

// mix derives a seed from a base seed and a name, so that sibling
// relations generated from one configuration seed differ.
func mix(seed int64, name string) int64 {
	h := uint64(seed) * 0x9E3779B97F4A7C15
	for _, c := range name {
		h ^= uint64(c)
		h *= 0x100000001B3
	}
	return int64(h & 0x7FFFFFFFFFFFFFFF)
}

// MatchRate measures the fraction of guard tuples whose Col value occurs
// at cond's JoinAt column: the realized selectivity rate.
func MatchRate(guard *relation.Relation, col int, cond *relation.Relation, joinAt int) float64 {
	if guard.Size() == 0 {
		return 0
	}
	present := make(map[relation.Value]bool)
	cond.Each(func(_ int, t relation.Tuple) { present[t[joinAt]] = true })
	n := 0
	guard.Each(func(_ int, t relation.Tuple) {
		if present[t[col]] {
			n++
		}
	})
	return float64(n) / float64(guard.Size())
}

// CondMatchRate measures the fraction of conditional tuples whose JoinAt
// value occurs in the guard column.
func CondMatchRate(guard *relation.Relation, col int, cond *relation.Relation, joinAt int) float64 {
	if cond.Size() == 0 {
		return 0
	}
	present := make(map[relation.Value]bool)
	guard.Each(func(_ int, t relation.Tuple) { present[t[col]] = true })
	n := 0
	cond.Each(func(_ int, t relation.Tuple) {
		if present[t[joinAt]] {
			n++
		}
	})
	return float64(n) / float64(cond.Size())
}
