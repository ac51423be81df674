package relation

// Run is the tuples [Lo, Hi) of Rel, in index order: one piece of a
// Merge. An empty run (Hi ≤ Lo) may leave Rel nil.
type Run struct {
	Rel    *Relation
	Lo, Hi int
}

// Merge returns a relation of the given name and arity containing the
// tuples of runs, in run order, with first-occurrence dedup. It is the
// job-output merge of the MapReduce engine (reduce tasks each produce a
// private output relation; the job's result is their ordered union — a
// whole relation per reduce task, or, for a split partition, its
// sub-range tasks' group runs interleaved), done the plain way: storage
// pre-sized once for the runs' total (Grow), then every tuple added in
// run order (Add). The slab is not trimmed afterwards: reduce tasks
// partition by key, so their outputs barely overlap (the benchmark's
// merges keep 97–100 % of their rows, none under half), and a trim
// would be a third copy for nothing.
//
// When the only non-empty run is a whole relation the result shares that
// relation's storage (as Rename does), so it must not be added to
// afterwards; otherwise the result is independent of its runs. Empty
// runs are skipped; non-empty runs over a different arity panic, as Add
// would.
func Merge(name string, arity int, runs []Run) *Relation {
	var only Run
	live, total := 0, 0
	for _, r := range runs {
		if r.Hi <= r.Lo {
			continue
		}
		if r.Rel.arity != arity {
			panic("relation.Merge: source arity mismatch")
		}
		only = r
		live++
		total += r.Hi - r.Lo
	}
	if live == 1 && only.Lo == 0 && only.Hi == only.Rel.Size() {
		return only.Rel.Rename(name)
	}
	out := New(name, arity)
	out.Grow(total)
	for _, r := range runs {
		for i := r.Lo; i < r.Hi; i++ {
			out.Add(r.Rel.Tuple(i))
		}
	}
	return out
}
