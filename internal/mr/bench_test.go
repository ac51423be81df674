package mr

import (
	"context"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// benchShuffleDB builds a semi-join input large enough that the job's
// map/shuffle/reduce hot path dominates: 50k guard tuples over 509 join
// keys plus a small, selective conditional relation (8 matching keys, so
// reducer output stays tiny and the measurement tracks record flow, not
// output-relation construction).
func benchShuffleDB() *relation.Database {
	tuples := make([]relation.Tuple, 0, 50000)
	for i := int64(0); i < 50000; i++ {
		tuples = append(tuples, tup(i, i%509))
	}
	cond := make([]relation.Tuple, 0, 8)
	for i := int64(0); i < 8; i++ {
		cond = append(cond, tup(i*11))
	}
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, tuples))
	db.Put(relation.FromTuples("S", 1, cond))
	return db
}

// benchShuffleJob is semijoinJob with the mapper's shuffle keys
// precomputed per join value and the reducer's output tuple
// preconstructed: emitting allocates nothing on either side, so the
// benchmark isolates the engine's per-record work (record handling,
// packing, shuffle partitioning, grouping, output dedup, accounting)
// from key and tuple construction, which internal/core's BenchmarkMSJJob
// covers.
func benchShuffleJob(packing bool) *Job {
	keys := make([][]byte, 509)
	for v := range keys {
		keys[v] = []byte(tup(int64(v)).Key())
	}
	// Preconstructed output tuple: reducing builds no tuples, so
	// allocs/op counts only what the engine itself does per record.
	zOut := tup(0, 0)
	job := semijoinJob(packing)
	job.Mapper = MapperFunc(func(part int, id int, t relation.Tuple, emit *Emitter) {
		switch job.Inputs[part] {
		case "R":
			emitInt(emit, keys[t[1]], 1000)
		case "S":
			emitInt(emit, keys[t[0]], -1)
		}
	})
	job.Reducer = ReducerFunc(func(key []byte, msgs *Group, out *Output) {
		hasAssert := false
		for i := 0; i < msgs.Len(); i++ {
			if intAt(msgs, i) == -1 {
				hasAssert = true
				break
			}
		}
		if !hasAssert {
			return
		}
		for i := 0; i < msgs.Len(); i++ {
			if intAt(msgs, i) >= 1000 {
				out.Add("Z", zOut)
			}
		}
	})
	return job
}

// BenchmarkJobShuffle measures one full packed semi-join job — map,
// pack, shuffle placement, grouping reduce, merge — end to end, staged,
// at two reducer counts: r=1, fixed, where each shuffle task copies its
// map task's arena into one segment — what a staged job at r = 1 pays
// (Pig's input-based r, a spilling run, an r = 1 not predicted) — and
// r=derived, the job's own reducer count (2). allocs/op is the headline
// number: the engine's hot path should stay allocation-lean as records
// flow through every phase.
func BenchmarkJobShuffle(b *testing.B) {
	db := benchShuffleDB()
	for _, c := range []struct {
		name     string
		reducers int
	}{{"r=1", 1}, {"r=derived", 0}} {
		b.Run(c.name, func(b *testing.B) {
			e := newTestEngine(cost.Default().Scaled(0.001))
			job := benchShuffleJob(true)
			job.reducers = c.reducers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := runJob(context.Background(), e, job, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineRunWarm runs a served-size program — diamondProgram's
// five jobs over a few hundred tuples — again and again on one Engine,
// after an untimed run that grows its workers' scratch: B/op is the warm
// path's allocation, what a server's queries pay, even at -benchtime 1x.
func BenchmarkEngineRunWarm(b *testing.B) {
	p, db := diamondProgram()
	e := newTestEngine(cost.Default().Scaled(0.001))
	run := func() {
		if _, _, _, err := e.Run(context.Background(), p, db, RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// benchPartition builds one reduce partition: n records spread over k
// distinct keys in round-robin key order.
func benchPartition(n, k int) *Emitter {
	em := new(Emitter)
	var kb [12]byte
	for i := 0; i < n; i++ {
		emitInt(em, relation.Value(i%k).AppendKey(kb[:0]), int64(i))
	}
	return em
}

// BenchmarkReduceGrouping measures what a reduce task does between the
// shuffle and the user Reducer — gather one partition through the key
// set, lay the records out by key — isolated from the rest of the
// engine, over the partition shapes that bracket it: dup64
// (65 536 records of 1 024 keys) and onekey where the key set folds
// nearly everything away, nested (the 2 400 / 900 of a nested-sgf reduce
// task), small, and the two all-distinct shapes, which pay for the set
// and get nothing from it.
func BenchmarkReduceGrouping(b *testing.B) {
	for _, shape := range []struct {
		name string
		n, k int
	}{
		{"dup64", 1 << 16, 1 << 10},
		{"nested", 2400, 900},
		{"distinct", 2400, 2400},
		{"distinct64", 1 << 16, 1 << 16},
		{"onekey", 1 << 16, 1},
		{"small", 200, 70},
	} {
		b.Run(shape.name, func(b *testing.B) {
			parts := partitionOf(b, benchPartition(shape.n, shape.k))
			var sc taskScratch // one worker's, warm after the first iteration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				g, err := reduceGroups(&sc, parts, 0, nil)
				if err != nil {
					b.Fatal(err)
				}
				g.each(0, len(g.locs), func(_ []byte, msgs *Group) { n += msgs.Len() })
				if n != shape.n {
					b.Fatalf("walked %d messages, want %d", n, shape.n)
				}
			}
		})
	}
}
