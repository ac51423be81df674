package gumbo

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/sgf"
)

// Query is a parsed and validated SGF program: a sequence of basic
// (BSGF) queries Z_i := SELECT x̄ FROM R(t̄) WHERE C, where later queries
// may reference earlier outputs.
type Query struct {
	prog *sgf.Program
}

// Parse parses and validates an SGF program in the paper's SQL-like
// syntax, e.g.
//
//	Z1 := SELECT aut FROM Amaz(ttl, aut, "bad")
//	      WHERE BN(ttl, aut, "bad") AND BD(ttl, aut, "bad");
//	Z2 := SELECT new, aut FROM Upcoming(new, aut) WHERE NOT Z1(aut);
func Parse(src string) (*Query, error) {
	p, err := sgf.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Query{prog: p}, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Name returns the final output relation's name.
func (q *Query) Name() string { return q.prog.OutputName() }

// Fingerprint returns a 64-bit FNV-1a hash of the program's canonical
// rendering (String): two Querys with the same canonical text always
// have the same fingerprint, so it — combined with a strategy and a
// Database.Generation — makes a compact plan-cache key. The converse
// does not hold (64-bit hashes can collide): services that cannot
// tolerate collisions should key on String() itself; internal/server
// does, and uses Fingerprint only for log correlation.
func (q *Query) Fingerprint() uint64 {
	h := fnv.New64a()
	io.WriteString(h, q.prog.String())
	return h.Sum64()
}

// OutputNames returns the names of every output relation the program
// defines, in definition order.
func (q *Query) OutputNames() []string {
	out := make([]string, len(q.prog.Queries))
	for i, bq := range q.prog.Queries {
		out[i] = bq.Name
	}
	return out
}

// String renders the program in canonical syntax.
func (q *Query) String() string { return q.prog.String() }

// Subqueries returns the number of basic queries in the program.
func (q *Query) Subqueries() int { return len(q.prog.Queries) }

// SemiJoins returns the number of semi-join equations the program
// induces (one per distinct conditional atom per query).
func (q *Query) SemiJoins() int {
	return len(core.ExtractEquations(q.prog.Queries))
}

// BaseRelations returns the sorted names of the input relations the
// query expects in the database.
func (q *Query) BaseRelations() []string { return q.prog.BaseRelations() }

// BaseRelationArities maps each base relation to its arity as used by
// the query.
func (q *Query) BaseRelationArities() map[string]int {
	out := make(map[string]int)
	defined := q.prog.Defined()
	record := func(a sgf.Atom) {
		if !defined[a.Rel] {
			out[a.Rel] = a.Arity()
		}
	}
	for _, bq := range q.prog.Queries {
		record(bq.Guard)
		for _, a := range bq.CondAtoms() {
			record(a)
		}
	}
	return out
}

// Nested reports whether any subquery depends on another's output.
func (q *Query) Nested() bool { return !sgf.Flat(q.prog) }

// Describe renders a human-readable summary of the query structure:
// subqueries, dependency levels, semi-joins and 1-round applicability.
func (q *Query) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SGF program, %d subquer%s, output %s\n",
		q.Subqueries(), plural(q.Subqueries(), "y", "ies"), q.Name())
	g := sgf.BuildDepGraph(q.prog)
	levels := g.Levels()
	for i, bq := range q.prog.Queries {
		mode := core.OneRoundApplicable(bq)
		fmt.Fprintf(&sb, "  [level %d] %s  (%d semi-joins, 1-round: %s)\n",
			levels[i], bq.String(), len(bq.CondAtoms()), mode)
	}
	base := q.BaseRelationArities()
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&sb, "  base relations:")
	for _, n := range names {
		fmt.Fprintf(&sb, " %s/%d", n, base[n])
	}
	sb.WriteByte('\n')
	return sb.String()
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// Merge combines several SGF programs into one, per §4.7: "evaluating a
// collection of SGF queries can be done in the same way as evaluating
// one SGF query — we simply consider the union of all BSGF subqueries".
// Output relation names must be pairwise distinct across the inputs;
// evaluation of the merged query exploits overlap between the programs'
// atoms (Greedy-SGF groups overlapping subqueries from different
// programs into shared jobs).
func Merge(queries ...*Query) (*Query, error) {
	merged := &sgf.Program{}
	seen := make(map[string]bool)
	for _, q := range queries {
		for _, bq := range q.prog.Queries {
			if seen[bq.Name] {
				return nil, fmt.Errorf("gumbo: merge: output relation %s defined by more than one query", bq.Name)
			}
			seen[bq.Name] = true
			merged.Queries = append(merged.Queries, bq.Clone())
		}
	}
	// A base relation of one program must not collide with another
	// program's output name: after merging, the reference would silently
	// rebind to the derived relation.
	for _, q := range queries {
		for _, base := range q.prog.BaseRelations() {
			if seen[base] && !q.prog.Defined()[base] {
				return nil, fmt.Errorf("gumbo: merge: base relation %s of one query is an output of another", base)
			}
		}
	}
	if err := sgf.Validate(merged); err != nil {
		return nil, err
	}
	return &Query{prog: merged}, nil
}
