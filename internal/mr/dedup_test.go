package mr

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// dedupFacts is the reducer of TestOutputDedupOnce, as a function of one
// group (its key and message ids in arrival order) on a job of r
// reducers. Every kind of duplicate a job's output can hold is in it:
// the same tuple twice within a group, a tuple every group of one
// reducer adds (so two groups of one reduce task, and groups in
// different sub-slots of a split partition), a tuple every group adds
// (groups on different reducers), and a second relation the groups add
// to in between, so the Output switches buffers within a group.
func dedupFacts(key []byte, ids []int64, r int, add func(string, relation.Tuple)) {
	first, p := ids[0], int64(hashKey(key)%uint32(r))
	add("Z", tup(first, 0))
	add("W", tup(int64(len(ids)%7)))
	add("Z", tup(first, 0))
	add("Z", tup(-1, p))
	add("Z", tup(-2, -2))
	add("W", tup(p))
	add("Z", tup(-3, int64(len(ids)%4)))
}

// TestOutputDedupOnce pins the dedup-once contract: reduce tasks append
// every fact, duplicates included, and the job's output merge alone
// makes each output a set, in first-occurrence order of the unsplit
// stream. The oracle is serial: reducers in index order, each reducer's
// groups in first-arrival order (the ids it receives ascend, since map
// tasks cover ascending id ranges in declared order), every fact added
// to a fresh relation. The engine must match it tuple for tuple at pool
// widths 1 and 4, with spill off and at a one-byte threshold, and with
// skew splitting off and on (a hot key forces the split).
func TestOutputDedupOnce(t *testing.T) {
	const n = 2400
	keys := make([][]byte, n)
	prefixes := []string{"z", "a", "m"}
	for i := range keys {
		if i%2 == 1 {
			keys[i] = []byte("hot")
		} else {
			keys[i] = fmt.Appendf(nil, "%s%03d", prefixes[i/2%3], i/6%97)
		}
	}
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 1, tuples(n)))
	outputs := map[string]int{"Z": 2, "W": 1}

	oracle := func(r int) map[string]*relation.Relation {
		rels := map[string]*relation.Relation{}
		for name, arity := range outputs {
			rels[name] = relation.New(name, arity)
		}
		add := func(name string, t relation.Tuple) { rels[name].Add(t) }
		for p := 0; p < r; p++ {
			var order []string
			groups := map[string][]int64{}
			for id, k := range keys {
				if int(hashKey(k)%uint32(r)) != p {
					continue
				}
				if _, seen := groups[string(k)]; !seen {
					order = append(order, string(k))
				}
				groups[string(k)] = append(groups[string(k)], int64(id))
			}
			for _, k := range order {
				dedupFacts([]byte(k), groups[k], r, add)
			}
		}
		return rels
	}

	for _, c := range []struct {
		reducers int
		split    float64
	}{{1, 0.5}, {3, 1.3}} {
		want := oracle(c.reducers)
		job := &Job{
			Name:     "dedup",
			Inputs:   []string{"R"},
			Outputs:  outputs,
			reducers: c.reducers,
			Mapper: MapperFunc(func(_ int, id int, _ relation.Tuple, em *Emitter) {
				emitInt(em, keys[id], int64(id))
			}),
			Reducer: ReducerFunc(func(key []byte, msgs *Group, out *Output) {
				ids := make([]int64, msgs.Len())
				for i := range ids {
					ids[i] = intAt(msgs, i)
				}
				dedupFacts(key, ids, c.reducers, out.Add)
			}),
		}
		for _, width := range []int{1, 4} {
			for _, spill := range []int64{-1, 1} {
				for _, split := range []float64{-1, c.split} {
					name := fmt.Sprintf("r=%d width=%d spill=%d split=%v", c.reducers, width, spill, split)
					e := NewEngine(Config{Cost: cost.Default().Scaled(0.001), Workers: width,
						SpillThreshold: spill, SpillDir: t.TempDir(), SkewSplit: split})
					outs, stats, err := runJob(context.Background(), e, job, db)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if split > 0 && stats.SplitReduceTasks < 2 {
						t.Fatalf("%s: %d split reduce tasks, want the hot key's partition cut", name, stats.SplitReduceTasks)
					}
					for rel, w := range want {
						if err := sameTuples(outs.Relation(rel), w); err != nil {
							t.Fatalf("%s: relation %s: %v", name, rel, err)
						}
					}
				}
			}
		}
	}
}

// sameTuples compares two relations tuple for tuple, in order.
func sameTuples(got, want *relation.Relation) error {
	if got.Size() != want.Size() {
		return fmt.Errorf("%d tuples, want %d", got.Size(), want.Size())
	}
	for i := 0; i < want.Size(); i++ {
		if !got.Tuple(i).Equal(want.Tuple(i)) {
			return fmt.Errorf("tuple %d is %v, want %v", i, got.Tuple(i), want.Tuple(i))
		}
	}
	return nil
}
