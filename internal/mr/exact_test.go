package mr

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// exactInput is R(x, y, i) over n tuples, i = 0..n-1: x cycles through
// 61 keys with every fifth tuple on key 0, so some partition is heavy,
// and y through 7 values, so Pairs repeats rows for the merge to drop.
func exactInput(n int) *relation.Relation {
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		x := int64(i % 61)
		if i%5 == 0 {
			x = 0
		}
		tuples[i] = tup(x, int64(i%7), int64(i))
	}
	return relation.FromTuples("R", 3, tuples)
}

// exactKey is the shuffle key of x.
func exactKey(x int64) []byte { return binary.AppendVarint(nil, x) }

// exactJob sends y under x and writes, per key group, Pairs(x, y) for
// every message, Sum(x, Σy) and Keys(x): three outputs of two arities.
func exactJob(reducers int) *Job {
	return &Job{
		Name:    "exact",
		Inputs:  []string{"R"},
		Outputs: map[string]int{"Pairs": 2, "Sum": 2, "Keys": 1},
		Mapper: MapperFunc(func(_ int, _ int, t relation.Tuple, em *Emitter) {
			emitInt(em, exactKey(int64(t[0])), int64(t[1]))
		}),
		Reducer: ReducerFunc(func(key []byte, msgs *Group, out *Output) {
			x, _ := binary.Varint(key)
			var sum int64
			for i := 0; i < msgs.Len(); i++ {
				y := intAt(msgs, i)
				sum += y
				out.Add("Pairs", tup(x, y))
			}
			out.Add("Sum", tup(x, sum))
			out.Add("Keys", tup(x))
		}),
		reducers: reducers,
	}
}

// exactOracle is exactJob's outputs as the merge must give them: reducer
// by reducer, each reducer's keys in first-arrival order, each key's
// messages in arrival order, every row's first occurrence kept.
func exactOracle(rel *relation.Relation, reducers int) map[string][]relation.Tuple {
	type group struct {
		x  int64
		ys []int64
	}
	byReducer := make([][]*group, reducers)
	seen := map[int64]*group{}
	for i := 0; i < rel.Size(); i++ {
		t := rel.Tuple(i)
		x := int64(t[0])
		g := seen[x]
		if g == nil {
			g = &group{x: x}
			seen[x] = g
			ri := hashKey(exactKey(x)) % uint32(reducers)
			byReducer[ri] = append(byReducer[ri], g)
		}
		g.ys = append(g.ys, int64(t[1]))
	}
	want := map[string][]relation.Tuple{}
	kept := map[string]bool{}
	add := func(name string, t relation.Tuple) {
		if k := fmt.Sprint(name, t); !kept[k] {
			kept[k] = true
			want[name] = append(want[name], t)
		}
	}
	for _, groups := range byReducer {
		for _, g := range groups {
			var sum int64
			for _, y := range g.ys {
				sum += y
				add("Pairs", tup(g.x, y))
			}
			add("Sum", tup(g.x, sum))
			add("Keys", tup(g.x))
		}
	}
	return want
}

// compareRows requires actual to hold expected's rows, in order.
func compareRows(t *testing.T, what string, actual *relation.Relation, expected []relation.Tuple) {
	t.Helper()
	if actual.Size() != len(expected) {
		t.Fatalf("%s: %d rows, want %d", what, actual.Size(), len(expected))
	}
	for i, want := range expected {
		if got := actual.Tuple(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: row %d is %v, want %v", what, i, got, want)
		}
	}
}

// rowsLenCap is the length and capacity of b's slab. Rows exposes
// neither, so reflect reads the slice header.
func rowsLenCap(b *relation.Rows) (int, int) {
	v := reflect.ValueOf(b).Elem().FieldByName("vals")
	return v.Len(), v.Cap()
}

// partitionShape is what a shuffle task left of one map task's records.
type partitionShape struct {
	len, cap int   // the resident buffer's
	file     int64 // the spill file's size; -1 when resident
	segs     int64 // the segments' bytes
}

// TestStagedBuffersExact holds a staged job's bulk buffers to their
// final sizes, at widths 1 and 4, resident and spilled, at r = 1 and
// r = 7, with and without skew splitting. Every map task's partition is
// one buffer of len = cap = the bytes its records encode to — or a spill
// file of exactly those bytes — as the task's records emitted afresh
// measure them. When the job has more than one reduce piece, every
// piece's output buffers have cap = len. And the merged relations are
// exactOracle's, row for row: staging changes no output.
func TestStagedBuffersExact(t *testing.T) {
	rel := exactInput(6000)
	cases := []struct {
		name     string
		reducers int
		split    float64
		pieces   bool // the job has more than one reduce piece
	}{
		{"r = 1", 1, 0, false},
		{"r = 1, split", 1, 0.3, true},
		{"r = 7", 7, 0, true},
		{"r = 7, split", 7, 1.2, true},
	}
	for _, c := range cases {
		for _, spill := range []bool{false, true} {
			for _, width := range []int{1, 4} {
				what := fmt.Sprintf("%s, spill %v, width %d", c.name, spill, width)
				e := NewEngine(Config{Cost: cost.Default().Scaled(0.0002), Workers: width, SkewSplit: c.split})
				if spill {
					e.cfg.SpillThreshold, e.cfg.SpillDir = 1, t.TempDir()
				}
				gov := e.newGovern(nil)
				job := exactJob(c.reducers)
				var jr *jobRun
				var once sync.Once
				var shapes []partitionShape
				reduce := job.Reducer
				job.Reducer = ReducerFunc(func(key []byte, msgs *Group, out *Output) {
					once.Do(func() { // every shuffle task has finished: read what they left
						for _, tps := range jr.taskParts {
							for _, tp := range tps {
								s := partitionShape{len: len(tp.buf), cap: cap(tp.buf), file: -1}
								if tp.f != nil {
									if fi, err := tp.f.Stat(); err == nil {
										s.file = fi.Size()
									}
								}
								for _, seg := range tp.segs {
									s.segs += seg.len
								}
								shapes = append(shapes, s)
							}
						}
					})
					reduce.Reduce(key, msgs, out)
				})
				var mu sync.Mutex
				merged := map[string]*relation.Relation{}
				var loose []string // output buffers of a multi-piece job with spare capacity
				jr = e.newJobRun(0, job, gov, func(_ *poolCtx, name string, r *relation.Relation) {
					ni := 0
					for jr.outNames[ni] != name {
						ni++
					}
					mu.Lock()
					defer mu.Unlock()
					merged[name] = r
					for ri, pieces := range jr.pieces {
						for pi, p := range pieces {
							if b := p.out.rows[ni]; b != nil {
								if n, c := rowsLenCap(b); n != c {
									loose = append(loose, fmt.Sprintf("%s of reducer %d piece %d: len %d cap %d", name, ri, pi, n, c))
								}
							}
						}
					}
				})
				err := e.runTasks(context.Background(), width, new(Progress), func(c *poolCtx) { jr.inputReady(c, 0, rel) })
				gov.spill.cleanup()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if pieces := len(jr.stats.ReduceLoadMB) > 1 || jr.stats.SplitReduceTasks > 0; pieces != c.pieces {
					t.Fatalf("%s: more than one reduce piece = %v, want %v", what, pieces, c.pieces)
				}

				specs := jr.tasks[0]
				if len(specs) < 2 || len(shapes) != len(specs) {
					t.Fatalf("%s: %d map tasks, %d partitions: want the same, and more than one", what, len(specs), len(shapes))
				}
				for ti, spec := range specs {
					var em Emitter
					em.mapSplit(job, 0, spec, 1)
					encoded := int64(len(sealed(em.chunks)))
					want := partitionShape{len: int(encoded), cap: int(encoded), file: -1, segs: encoded}
					if spill {
						want.len, want.cap, want.file = 0, 0, encoded
					}
					if shapes[ti] != want {
						t.Errorf("%s: map task %d's partition is %+v, want %+v", what, ti, shapes[ti], want)
					}
				}
				if c.pieces && len(loose) > 0 {
					t.Errorf("%s: output buffers with spare capacity: %v", what, loose)
				}
				for name, rows := range exactOracle(rel, c.reducers) {
					compareRows(t, what+", "+name, merged[name], rows)
				}
			}
		}
	}
}

// rungSet renders the rungs on c's free list, position by position, as
// the sorted addresses and capacities of their arrays.
func rungSet(c *poolCtx) []string {
	var out []string
	for n, free := range c.rungs {
		for _, b := range free {
			out = append(out, fmt.Sprintf("%d:%p/%d", n, &b[:1][0], cap(b)))
		}
	}
	slices.Sort(out)
	return out
}

// TestMapTaskReusesRungs: a staged map task opens its arena's rungs from
// its worker's free list, charges each as it opens it, fresh or reused,
// and ends with its records in one chunk of exactly their length, the
// rungs back on the list. The same task run twice on one worker charges
// the same bytes both times, and the second run writes through the very
// rungs the first gave back.
func TestMapTaskReusesRungs(t *testing.T) {
	rel := exactInput(20000)
	job := exactJob(1)
	var fresh Emitter
	fresh.mapSplit(job, 0, mapTaskSpec{rel: rel, to: rel.Size()}, 1)
	want := sealed(fresh.chunks)
	if len(fresh.chunks) <= arenaRungs {
		t.Fatalf("the task's arena has %d chunks: it does not reach arenaChunk", len(fresh.chunks))
	}
	c := &poolCtx{scratch: new(taskScratch)}
	var charged []int64
	var rungs [][]string
	for run := 0; run < 2; run++ {
		b := NewBudget(0)
		jr := NewEngine(Config{Cost: cost.Default()}).newJobRun(0, job, govern{budget: b}, nil)
		jr.tasks[0] = []mapTaskSpec{{rel: rel, to: rel.Size()}}
		jr.results[0] = make([]mapTaskResult, 1)
		jr.left = 2 // never the last map task, so nothing spawns
		jr.mapTask(c, 0, 0)
		arena := jr.results[0][0].arena
		if !bytes.Equal(arena, want) || cap(arena) != len(want) {
			t.Fatalf("run %d: the sealed arena holds %d bytes in %d, want the %d the task encodes, in exactly as many", run, len(arena), cap(arena), len(want))
		}
		charged = append(charged, b.Stats().ChargedBytes)
		rungs = append(rungs, rungSet(c))
	}
	if charged[0] != charged[1] || charged[0] < int64(len(want)) {
		t.Errorf("the task charged %d bytes fresh and %d on reused rungs, want the same ladder, at least its %d encoded bytes", charged[0], charged[1], len(want))
	}
	if !slices.Equal(rungs[0], rungs[1]) || len(rungs[0]) != len(fresh.chunks) {
		t.Errorf("the free list held\n%v\nafter the first run and\n%v\nafter the second: want the same %d rungs", rungs[0], rungs[1], len(fresh.chunks))
	}
}
