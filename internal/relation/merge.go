package relation

// Merge returns a relation of the given name and arity containing the
// union of srcs' tuples with first-occurrence dedup in source order:
// the result is bit-for-bit identical — tuple order included — to
// adding every tuple of every source, in order, to a fresh relation
// with Add. It is the job-output merge of the MapReduce engine (reduce
// tasks each produce a private output relation; the job's result is
// their ordered union), built to do less than that Add loop would:
//
//   - keys are not recomputed: each source's key→position index is
//     inverted to recover its keys in insertion order;
//   - one pass over the keys in global (source, position) order marks
//     each key's first occurrence;
//   - the surviving tuples and the result's index are assembled with
//     exact pre-sizing (see Grow for why that matters).
//
// Sources must not be mutated afterwards: with a single non-empty
// source the result shares its storage (as Rename does), and in
// general the result shares tuple and key storage with the sources.
// Empty or nil sources are skipped; non-empty sources of a different
// arity panic, as Add would.
func Merge(name string, arity int, srcs []*Relation) *Relation {
	live := make([]*Relation, 0, len(srcs))
	total := 0
	for _, s := range srcs {
		if s == nil || len(s.tuples) == 0 {
			continue
		}
		if s.arity != arity {
			panic("relation.Merge: source arity mismatch")
		}
		live = append(live, s)
		total += len(s.tuples)
	}
	if total == 0 {
		return New(name, arity)
	}
	if len(live) == 1 {
		return live[0].Rename(name)
	}

	// Recover each source's keys in insertion order by inverting its
	// index.
	keys := make([]string, total)
	base := 0
	for _, s := range live {
		for k, pos := range s.index {
			keys[base+pos] = k
		}
		base += len(s.tuples)
	}

	keep := make([]bool, total)
	seen := make(map[string]struct{}, total+1)
	for g, k := range keys {
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			keep[g] = true
		}
	}
	kept := len(seen)

	// Assemble with exact pre-sizing, reusing the sources' key strings.
	out := &Relation{
		name:   name,
		arity:  arity,
		tuples: make([]Tuple, 0, kept),
		index:  make(map[string]int, kept),
	}
	base = 0
	for _, s := range live {
		for j, t := range s.tuples {
			if keep[base+j] {
				out.index[keys[base+j]] = len(out.tuples)
				out.tuples = append(out.tuples, t)
			}
		}
		base += len(s.tuples)
	}
	return out
}
