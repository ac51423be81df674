package sgf

import (
	"fmt"
	"sort"
	"strings"
)

// DepGraph is the dependency graph G_Q of an SGF program: one node per
// BSGF query, with an edge from Q_i to Q_j whenever the output relation
// Z_i is mentioned in ξ_j. Node identifiers are query indices within the
// program.
type DepGraph struct {
	N     int
	Succ  [][]int // Succ[i] = nodes j with an edge i -> j
	Pred  [][]int // Pred[j] = nodes i with an edge i -> j
	Names []string
}

// BuildDepGraph constructs the dependency graph of a validated program.
func BuildDepGraph(p *Program) *DepGraph {
	n := len(p.Queries)
	g := &DepGraph{
		N:     n,
		Succ:  make([][]int, n),
		Pred:  make([][]int, n),
		Names: make([]string, n),
	}
	byName := make(map[string]int, n)
	for i, q := range p.Queries {
		byName[q.Name] = i
		g.Names[i] = q.Name
	}
	for j, q := range p.Queries {
		seen := make(map[int]bool)
		for _, rel := range q.RelationNames() {
			if i, ok := byName[rel]; ok && i != j && !seen[i] {
				seen[i] = true
				g.Succ[i] = append(g.Succ[i], j)
				g.Pred[j] = append(g.Pred[j], i)
			}
		}
	}
	for i := range g.Succ {
		sort.Ints(g.Succ[i])
		sort.Ints(g.Pred[i])
	}
	return g
}

// Flat reports whether no query of p reads another query's output: the
// dependency graph has no edge, so the program is a set of independent
// BSGF queries.
func Flat(p *Program) bool {
	for _, pred := range BuildDepGraph(p).Pred {
		if len(pred) > 0 {
			return false
		}
	}
	return true
}

// Levels assigns each node its longest-path depth from the sources:
// level(v) = 0 if v has no predecessors, else 1 + max(level(pred)).
// Queries on the same level are independent and can run in parallel
// (the PARUNIT strategy of §5.3).
func (g *DepGraph) Levels() []int {
	level := make([]int, g.N)
	order := g.TopoOrder()
	for _, v := range order {
		for _, p := range g.Pred[v] {
			if level[p]+1 > level[v] {
				level[v] = level[p] + 1
			}
		}
	}
	return level
}

// LevelGroups returns the nodes grouped by level, in increasing level
// order; each group is sorted by node index.
func (g *DepGraph) LevelGroups() [][]int {
	levels := g.Levels()
	maxL := 0
	for _, l := range levels {
		if l > maxL {
			maxL = l
		}
	}
	groups := make([][]int, maxL+1)
	for v, l := range levels {
		groups[l] = append(groups[l], v)
	}
	return groups
}

// TopoOrder returns a deterministic topological order of the nodes
// (smallest index first among ready nodes). It panics on cyclic graphs;
// validated programs are always acyclic.
func (g *DepGraph) TopoOrder() []int {
	indeg := make([]int, g.N)
	for v := 0; v < g.N; v++ {
		indeg[v] = len(g.Pred[v])
	}
	var ready []int
	for v := 0; v < g.N; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	var order []int
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, s := range g.Succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != g.N {
		panic("sgf: dependency graph is cyclic")
	}
	return order
}

// MultiwaySort is an ordered partition (F_1, ..., F_k) of the program's
// query indices. It is a valid multiway topological sort when every edge
// u -> v of the dependency graph has u in an earlier group than v.
type MultiwaySort [][]int

// Valid reports whether s is a multiway topological sort of g: the groups
// partition [0, g.N) and respect every edge.
func (s MultiwaySort) Valid(g *DepGraph) bool {
	group := make([]int, g.N)
	for i := range group {
		group[i] = -1
	}
	count := 0
	for gi, f := range s {
		for _, v := range f {
			if v < 0 || v >= g.N || group[v] != -1 {
				return false
			}
			group[v] = gi
			count++
		}
	}
	if count != g.N {
		return false
	}
	for u := 0; u < g.N; u++ {
		for _, v := range g.Succ[u] {
			if group[u] >= group[v] {
				return false
			}
		}
	}
	return true
}

// String renders the sort as ({Q1,Q4},{Q2},...) using node names when
// available.
func (s MultiwaySort) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, f := range s {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('{')
		for j, v := range f {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", v)
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(')')
	return sb.String()
}

// Clone deep-copies the sort.
func (s MultiwaySort) Clone() MultiwaySort {
	out := make(MultiwaySort, len(s))
	for i, f := range s {
		out[i] = append([]int(nil), f...)
	}
	return out
}

// EnumerateMultiwaySorts generates every multiway topological sort of g
// and calls fn on each; fn must not retain its argument. Enumeration
// stops early if fn returns false. The number of sorts grows extremely
// quickly; callers should restrict to small graphs (the brute-force
// SGF-Opt baseline).
func EnumerateMultiwaySorts(g *DepGraph, fn func(MultiwaySort) bool) {
	placed := make([]bool, g.N)
	var cur MultiwaySort
	var rec func() bool
	// ready returns unplaced nodes whose predecessors are all placed.
	ready := func() []int {
		var out []int
		for v := 0; v < g.N; v++ {
			if placed[v] {
				continue
			}
			ok := true
			for _, p := range g.Pred[v] {
				if !placed[p] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, v)
			}
		}
		return out
	}
	var placeGroup func(candidates []int, idx int, group []int) bool
	placeGroup = func(candidates []int, idx int, group []int) bool {
		if idx == len(candidates) {
			if len(group) == 0 {
				return true
			}
			g2 := append([]int(nil), group...)
			cur = append(cur, g2)
			for _, v := range g2 {
				placed[v] = true
			}
			ok := rec()
			for _, v := range g2 {
				placed[v] = false
			}
			cur = cur[:len(cur)-1]
			return ok
		}
		// Exclude candidates[idx] from the group.
		if !placeGroup(candidates, idx+1, group) {
			return false
		}
		// Include candidates[idx] in the group.
		return placeGroup(candidates, idx+1, append(group, candidates[idx]))
	}
	rec = func() bool {
		r := ready()
		if len(r) == 0 {
			return fn(cur)
		}
		// The next group is any non-empty subset of the ready set.
		return placeGroup(r, 0, nil)
	}
	if g.N == 0 {
		fn(MultiwaySort{})
		return
	}
	rec()
}

// PartitionKey returns a canonical identity for the underlying unordered
// partition of s: two multiway sorts with the same groups (in any order)
// have equal keys. The evaluation cost (Eq. 10) depends only on the
// partition, so plan search deduplicates by this key.
func (s MultiwaySort) PartitionKey() string {
	groups := make([]string, len(s))
	for i, f := range s {
		g := append([]int(nil), f...)
		sort.Ints(g)
		var sb strings.Builder
		for j, v := range g {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", v)
		}
		groups[i] = sb.String()
	}
	sort.Strings(groups)
	return strings.Join(groups, "|")
}

// EnumerateMultiwayPartitions enumerates multiway topological sorts
// deduplicated by their underlying partition (the paper's Example 5
// counts four such sorts). fn receives one representative ordering per
// distinct partition; enumeration stops early if fn returns false.
func EnumerateMultiwayPartitions(g *DepGraph, fn func(MultiwaySort) bool) {
	seen := make(map[string]bool)
	EnumerateMultiwaySorts(g, func(s MultiwaySort) bool {
		k := s.PartitionKey()
		if seen[k] {
			return true
		}
		seen[k] = true
		return fn(s.Clone())
	})
}

// Overlap counts the number of relation symbols occurring both in query q
// and in at least one of the queries in group (by index), per the
// definition used by Greedy-SGF (§4.6).
func Overlap(p *Program, q int, group []int) int {
	qRels := make(map[string]bool)
	for _, r := range p.Queries[q].RelationNames() {
		qRels[r] = true
	}
	groupRels := make(map[string]bool)
	for _, gi := range group {
		for _, r := range p.Queries[gi].RelationNames() {
			groupRels[r] = true
		}
	}
	n := 0
	for r := range qRels {
		if groupRels[r] {
			n++
		}
	}
	return n
}
