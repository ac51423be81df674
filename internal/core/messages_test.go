package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// codecJob emits, for every input tuple (a, b), one message of each of
// the five types under the key of (a), and its reducer decodes them
// back into one output fact per message: the message's tag followed by
// every decoded field. What comes out is exactly what went in iff the
// typed encoders and decoders — and the engine's record form between
// them — round-trip.
func codecJob() *mr.Job {
	return &mr.Job{
		Name:    "codec",
		Inputs:  []string{"R"},
		Outputs: map[string]int{"Out": 4},
		Mapper: mr.MapperFunc(func(input string, id int, t relation.Tuple, emit *mr.Emitter) {
			var kb [16]byte
			key := t[:1].AppendKey(kb[:0])
			a, b := int64(t[0]), int64(t[1])
			ReqID{Eq: int32(a), ID: b}.Emit(emit, key)
			Assert{Class: int32(a)}.Emit(emit, key)
			ReqTuple{Q: int32(a), Disjunct: -1, Out: relation.Tuple{t[1]}}.Emit(emit, key)
			TupleVal{T: t}.Emit(emit, key)
			XIndex{Atom: int32(b)}.Emit(emit, key)
		}),
		Reducer: mr.ReducerFunc(func(key []byte, msgs *mr.Group, out *mr.Output) {
			for i := 0; i < msgs.Len(); i++ {
				tag, p := msgs.At(i)
				fact := relation.Tuple{relation.Value(tag), 0, 0, 0}
				switch tag {
				case TagReqID:
					m := DecodeReqID(p)
					fact[1], fact[2] = relation.Value(m.Eq), relation.Value(m.ID)
				case TagAssert:
					fact[1] = relation.Value(DecodeAssert(p).Class)
				case TagReqTuple:
					m := DecodeReqTuple(nil, p)
					fact[1], fact[2], fact[3] = relation.Value(m.Q), relation.Value(m.Disjunct), m.Out[0]
				case TagTupleVal:
					m := DecodeTupleVal(nil, p)
					fact[1], fact[2] = m.T[0], m.T[1]
				case TagXIndex:
					fact[1] = relation.Value(DecodeXIndex(p).Atom)
				}
				out.Add("Out", fact)
			}
		}),
		Packing: true,
	}
}

func codecDB() *relation.Database {
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, []relation.Tuple{
		{0, 0}, {1, -1}, {63, math.MaxInt64}, {math.MaxInt32, math.MinInt64}, {math.MinInt32, 1 << 40}, {1, 7},
	}))
	return db
}

// TestMessageCodecRoundTrip runs codecJob resident and with every
// partition spilled.
func TestMessageCodecRoundTrip(t *testing.T) {
	want := relation.New("Out", 4)
	for _, r := range codecDB().Relation("R").Tuples() {
		a, b := r[0], r[1]
		want.Add(relation.Tuple{relation.Value(TagReqID), a, b, 0})
		want.Add(relation.Tuple{relation.Value(TagAssert), a, 0, 0})
		want.Add(relation.Tuple{relation.Value(TagReqTuple), a, -1, b})
		want.Add(relation.Tuple{relation.Value(TagTupleVal), a, b, 0})
		want.Add(relation.Tuple{relation.Value(TagXIndex), relation.Value(int32(b)), 0, 0})
	}
	for _, threshold := range []int64{-1, 1} {
		e := mr.NewEngine(mr.Config{Cost: cost.Default(), SpillThreshold: threshold, SpillDir: t.TempDir()})
		out, _, err := runJob(context.Background(), e, codecJob(), codecDB())
		if err != nil {
			t.Fatalf("spill threshold %d: %v", threshold, err)
		}
		if got := out.Relation("Out"); !got.Equal(want) {
			t.Errorf("spill threshold %d: decoded\n%s\nwant\n%s", threshold, got.Dump(), want.Dump())
		}
	}
}

// TestCorruptPayloadIsErrSpill: a payload that does not decode fails the
// run with an error matching mr.ErrSpill — the host's fault (500 at the
// server), whichever of the five decoders met it — rather than an
// untyped error or a panic. The damage is injected where a damaged
// spill file would put it: between a real mapper and the real reducer.
func TestCorruptPayloadIsErrSpill(t *testing.T) {
	damages := map[string]func(p []byte) []byte{
		"truncated":        func(p []byte) []byte { return p[:len(p)-1] },
		"continuation bit": func(p []byte) []byte { p[len(p)-1] |= 0x80; return p },
		"emptied":          func(p []byte) []byte { return nil },
		"trailing byte":    func(p []byte) []byte { return append(p, 0) },
	}
	for tag := TagReqID; tag <= TagXIndex; tag++ {
		for name, damage := range damages {
			job := codecJob()
			inner := job.Mapper
			job.Mapper = mr.MapperFunc(func(input string, id int, tp relation.Tuple, emit *mr.Emitter) {
				inner.Map(input, id, tp, mr.WrapEmit(func(key []byte, tg byte, size int64, payload []byte) {
					if tg == tag {
						payload = damage(payload)
					}
					emit.Emit(key, tg, size, payload)
				}))
			})
			e := mr.NewEngine(mr.Config{Cost: cost.Default()})
			_, _, err := runJob(context.Background(), e, job, codecDB())
			if !errors.Is(err, mr.ErrSpill) {
				t.Errorf("tag %d, %s payload: err = %v, want mr.ErrSpill", tag, name, err)
			}
		}
	}
}

// TestMSJHotPathAllocatesNothing is the allocation guard of the one
// record form, on the production path end to end: NewMSJJob's real
// mapper emitting ReqID and Assert through the real Emitter, and its
// messages walked and decoded through the real Group view inside a real
// reduce task. Nothing is pre-boxed or pre-built: a per-record
// interface box, an escaping key or payload buffer, or a per-message
// decode allocation each show up as ≥ 1 allocation per call.
func TestMSJHotPathAllocatesNothing(t *testing.T) {
	prog := sgf.MustParse(`Z := SELECT x FROM R(x, y) WHERE S(x) AND T(y);`)
	job, err := NewMSJJob("msj", ExtractEquations(prog.Queries))
	if err != nil {
		t.Fatal(err)
	}
	db := relation.NewDatabase()
	var r, s []relation.Tuple
	for i := int64(0); i < 64; i++ {
		r = append(r, relation.Tuple{relation.Value(i % 4), relation.Value(i)})
		s = append(s, relation.Tuple{relation.Value(i % 4)})
	}
	db.Put(relation.FromTuples("R", 2, r))
	db.Put(relation.FromTuples("S", 1, s))
	db.Put(relation.FromTuples("T", 1, s))

	// Map side. The record slice doubles and the arena rolls over now
	// and then; AllocsPerRun reports whole allocations per call, so that
	// amortized growth reads 0 and anything per record reads ≥ 1.
	var em mr.Emitter
	guard := db.Relation("R").Tuple(5)
	job.Mapper.Map("R", 5, guard, &em) // warm: the first arena chunk
	if allocs := testing.AllocsPerRun(2000, func() { job.Mapper.Map("R", 5, guard, &em) }); allocs != 0 {
		t.Errorf("MSJ mapper allocates %v per guard fact (2 ReqID emitted), want 0", allocs)
	}
	cond := db.Relation("S").Tuple(1)
	if allocs := testing.AllocsPerRun(2000, func() { job.Mapper.Map("S", 1, cond, &em) }); allocs != 0 {
		t.Errorf("MSJ mapper allocates %v per conditional fact (1 Assert emitted), want 0", allocs)
	}

	// Reduce side: measured from inside the reduce task, on the group
	// the engine built.
	walked := 0
	job.Reducer = mr.ReducerFunc(func(key []byte, msgs *mr.Group, out *mr.Output) {
		var sum int64
		allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < msgs.Len(); i++ {
				switch tag, p := msgs.At(i); tag {
				case TagReqID:
					sum += DecodeReqID(p).ID
				case TagAssert:
					sum += int64(DecodeAssert(p).Class)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("walking a group of %d messages allocates %v, want 0", msgs.Len(), allocs)
		}
		walked += msgs.Len()
	})
	e := mr.NewEngine(mr.Config{Cost: cost.Default(), Workers: 1})
	if _, _, err := runJob(context.Background(), e, job, db); err != nil {
		t.Fatal(err)
	}
	if want := 2*64 + 2*4; walked != want { // two requests per guard fact, one assert per distinct S and T fact
		t.Errorf("reduce walked %d messages, want %d", walked, want)
	}
}

// TestReducersAllocateNothingPerOutputFact is the reduce-side sibling
// of TestMSJHotPathAllocatesNothing for the facts a reducer writes: the
// real MSJ, EVAL, 1-ROUND and filter reducers, re-run on the group and
// the Output the engine handed them. The first call has stored every
// fact, so the output relations need no growth, and what is left is
// decode, projection and Output.Add — a tuple built per output fact
// (Tuple.Project, a fresh decode, an idTuple that escapes) reads as
// ≥ 1 allocation per call.
func TestReducersAllocateNothingPerOutputFact(t *testing.T) {
	prog := sgf.MustParse(`Z := SELECT y, x FROM R(x, y) WHERE S(x) AND T(y);`)
	db := relation.NewDatabase()
	r, s := relation.New("R", 2), relation.New("S", 1)
	for i := int64(0); i < 64; i++ {
		r.Add(relation.Tuple{relation.Value(i % 4), relation.Value(i)})
		s.Add(relation.Tuple{relation.Value(i)})
	}
	db.Put(r)
	db.Put(s)
	db.Put(s.Rename("T"))

	par, err := ParPlan("par", prog.Queries)
	if err != nil {
		t.Fatal(err)
	}
	one, err := OneRoundPlan("one", sgf.MustParse(`Z := SELECT y, x FROM R(x, y) WHERE S(x) AND T(x);`).Queries)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SeqPlan("seq", prog.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*Plan{par, one, seq} {
		facts := 0
		for _, job := range plan.Jobs {
			name, real := job.Name, job.Reducer
			job.Reducer = mr.ReducerFunc(func(key []byte, msgs *mr.Group, out *mr.Output) {
				real.Reduce(key, msgs, out)
				if allocs := testing.AllocsPerRun(100, func() { real.Reduce(key, msgs, out) }); allocs != 0 {
					t.Errorf("%s: reducing a group of %d messages allocates %v, want 0", name, msgs.Len(), allocs)
				}
			})
		}
		e := mr.NewEngine(mr.Config{Cost: cost.Default(), Workers: 1})
		outs, _, _, err := e.Run(context.Background(), plan.Program(), db, mr.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range outs.Relations() {
			facts += rel.Size()
		}
		if facts == 0 {
			t.Errorf("%s: no output facts, nothing was measured", plan.Name)
		}
	}
}
