package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// codecJob emits, for every input tuple (a, b), one message of each of
// the three types under the key of (a), and its reducer decodes them
// back into one output fact per message: the message's tag followed by
// every decoded field. What comes out is exactly what went in iff the
// typed encoders and decoders — and the engine's record form between
// them — round-trip. (A Request is decoded in two steps, as the kernel
// does: the verdict index, then the tuple at the arity the table gives.)
func codecJob() *mr.Job {
	return &mr.Job{
		Name:    "codec",
		Inputs:  []string{"R"},
		Outputs: map[string]int{"Out": 4},
		Mapper: mr.MapperFunc(func(_ int, id int, t relation.Tuple, emit *mr.Emitter) {
			var kb [16]byte
			key := t[:1].AppendKey(kb[:0])
			Request{Verdict: int32(t[0]), Tuple: t}.Emit(emit, key, reqIDBytes)
			Assert{Class: int32(t[0])}.Emit(emit, key)
			TupleVal{T: t}.Emit(emit, key)
		}),
		Reducer: mr.ReducerFunc(func(key []byte, msgs *mr.Group, out *mr.Output) {
			for i := 0; i < msgs.Len(); i++ {
				tag, p := msgs.At(i)
				fact := relation.Tuple{relation.Value(tag), 0, 0, 0}
				switch tag {
				case TagRequest:
					v, rest := varint(p, "Request")
					m := decodeValues(nil, rest, 2, "Request")
					fact[1], fact[2], fact[3] = relation.Value(v), m[0], m[1]
				case TagAssert:
					fact[1] = relation.Value(DecodeAssert(p).Class)
				case TagTupleVal:
					m := DecodeTupleVal(nil, p)
					fact[1], fact[2] = m.T[0], m.T[1]
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
		want.Add(relation.Tuple{relation.Value(TagRequest), a, a, b})
		want.Add(relation.Tuple{relation.Value(TagAssert), a, 0, 0})
		want.Add(relation.Tuple{relation.Value(TagTupleVal), a, b, 0})
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

// vs encodes values as the signed varints every payload is made of.
func vs(vals ...int64) []byte {
	var p []byte
	for _, v := range vals {
		p = binary.AppendVarint(p, v)
	}
	return p
}

// shuffled is one hand-encoded shuffle record.
type shuffled struct {
	key     []byte
	tag     byte
	payload []byte
}

// reduceRecords runs job's real reducer over recs, which a stand-in
// mapper emits for the one fact of the job's first input, and returns
// what it wrote.
func reduceRecords(job *mr.Job, recs []shuffled) (*relation.Database, error) {
	fed := *job
	fed.Mapper = mr.MapperFunc(func(part int, id int, _ relation.Tuple, emit *mr.Emitter) {
		if part == 0 {
			for _, r := range recs {
				emit.Emit(r.key, r.tag, 4, r.payload)
			}
		}
	})
	db := relation.NewDatabase()
	for i, in := range job.Inputs {
		rel := relation.New(in, 1)
		if i == 0 {
			rel.Add(relation.Tuple{0})
		}
		db.Put(rel)
	}
	outs, _, err := runJob(context.Background(), mr.NewEngine(mr.Config{Cost: cost.Default()}), &fed, db)
	return outs, err
}

// TestCorruptPayloadIsErrSpill: a record that does not decode, or
// decodes to an index its job's role table does not have, fails the run
// with an error matching mr.ErrSpill — the host's fault (500 at the
// server) — rather than an untyped error or an index-out-of-range panic
// on the caller. The damage is injected where a damaged spill file
// would put it: hand-encoded records in front of the real reducers of a
// two-equation MSJ job, an EVAL job and a union job. Every group holds
// a sound assert beside its request, so the verdict holds and the
// carried tuple is decoded too.
func TestCorruptPayloadIsErrSpill(t *testing.T) {
	prog := sgf.MustParse(`Z := SELECT x FROM R(x, y) WHERE S(x) AND T(y);`)
	q := prog.Queries[0]
	msj, err := NewMSJJob("msj", ExtractEquations(prog.Queries))
	if err != nil {
		t.Fatal(err)
	}
	eval, err := NewEvalJob("eval", []EvalSpec{{Query: q, XNames: []string{"X0", "X1"}}})
	if err != nil {
		t.Fatal(err)
	}
	union, err := NewUnionProjectJob("union", "U", q.Guard, q.Select, []string{"R"})
	if err != nil {
		t.Fatal(err)
	}
	key := vs(5)
	request := shuffled{key, TagRequest, vs(0, 9)} // verdict 0, guard tuple id 9
	assert := shuffled{key, TagAssert, vs(0)}
	tupleVal := shuffled{key, TagTupleVal, append([]byte{1}, vs(5)...)} // arity 1, then the value
	evalKey := vs(0, 9)                                                 // query 0, guard tuple id 9
	evalRequest := shuffled{evalKey, TagRequest, vs(0, 5)}

	type row struct {
		name string
		job  *mr.Job
		recs []shuffled
	}
	// The harness is not what fails below: sound records run clean.
	for _, r := range []row{
		{"MSJ", msj, []shuffled{assert, request}},
		{"EVAL", eval, []shuffled{{evalKey, TagAssert, vs(1)}, evalRequest}},
		{"union", union, []shuffled{tupleVal}},
	} {
		if _, err := reduceRecords(r.job, r.recs); err != nil {
			t.Fatalf("sound %s records: %v", r.name, err)
		}
	}

	var rows []row
	damages := map[string]func(p []byte) []byte{
		"truncated":        func(p []byte) []byte { return p[:len(p)-1] },
		"continuation bit": func(p []byte) []byte { p[len(p)-1] |= 0x80; return p },
		"emptied":          func(p []byte) []byte { return nil },
		"trailing byte":    func(p []byte) []byte { return append(p, 0) },
	}
	for name, damage := range damages {
		bad := func(r shuffled) shuffled {
			r.payload = damage(append([]byte(nil), r.payload...))
			return r
		}
		rows = append(rows,
			row{"Request payload " + name, msj, []shuffled{assert, bad(request)}},
			row{"Assert payload " + name, msj, []shuffled{bad(assert), request}},
			row{"TupleVal payload " + name, union, []shuffled{bad(tupleVal)}},
		)
	}
	// Valid varints, indexes the table does not have. 7e 02 is verdict
	// 63 — of a two-equation job.
	rows = append(rows,
		row{"Request verdict 63 of 2", msj, []shuffled{assert, {key, TagRequest, []byte{0x7e, 0x02}}}},
		row{"Request verdict -1", msj, []shuffled{assert, {key, TagRequest, vs(-1, 9)}}},
		row{"Request of two values for a unary output", msj, []shuffled{assert, {key, TagRequest, vs(0, 9, 9)}}},
		row{"Assert class 2 of 2", msj, []shuffled{{key, TagAssert, vs(2)}, request}},
		row{"Assert class 63 of 2", msj, []shuffled{{key, TagAssert, vs(63)}, request}},
		row{"Assert class -1", msj, []shuffled{{key, TagAssert, vs(-1)}, request}},
		// EVAL keys are (query, guard tuple id) and lead with the
		// request's own verdict index; this job has one query.
		row{"EVAL request verdict 1 of 1", eval, []shuffled{{vs(1, 9), TagRequest, vs(1, 5)}}},
		row{"EVAL key of another query", eval, []shuffled{{vs(1, 9), TagRequest, vs(0, 5)}}},
		row{"EVAL key emptied", eval, []shuffled{{nil, TagRequest, vs(0, 5)}}},
		row{"EVAL key unterminated", eval, []shuffled{{[]byte{0x80}, TagRequest, vs(0, 5)}}},
		row{"EVAL mark 2 of 2", eval, []shuffled{{evalKey, TagAssert, vs(2)}, evalRequest}},
	)
	for _, r := range rows {
		if _, err := reduceRecords(r.job, r.recs); !errors.Is(err, mr.ErrSpill) {
			t.Errorf("%s: err = %v, want mr.ErrSpill", r.name, err)
		}
	}
}

// TestMSJHotPathAllocatesNothing is the allocation guard of the one
// record form, on the production path end to end: the kernel's real
// mapper — as MSJ plain and salted, EVAL, 1-ROUND in both modes and the
// SEQ filter fill its table — emitting Request and Assert through the
// real Emitter, and an MSJ job's messages walked and decoded through
// the real Group view inside a real reduce task. Nothing is pre-boxed
// or pre-built: a per-record interface box, an escaping key or payload
// buffer, a closure built per fact, or a per-message decode allocation
// each show up as ≥ 1 allocation per call.
func TestMSJHotPathAllocatesNothing(t *testing.T) {
	prog := sgf.MustParse(`Z := SELECT x FROM R(x, y) WHERE S(x) AND T(y);`)
	eqs := ExtractEquations(prog.Queries)
	job, err := NewMSJJob("msj", eqs)
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
	guard, cond := db.Relation("R").Tuple(5), db.Relation("S").Tuple(1)

	// Map side. The record slice doubles and the arena rolls over now
	// and then; AllocsPerRun reports whole allocations per call, so that
	// amortized growth reads 0 and anything per record reads ≥ 1.
	salted, err := NewMSJJobSkew("msj", eqs, map[string]bool{string(guard[:1].AppendKey(nil)): true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ParPlan("par", prog.Queries)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewOneRoundJob("shared", sgf.MustParse(`Z := SELECT y FROM R(x, y) WHERE S(x) AND NOT T(x);`).Queries)
	if err != nil {
		t.Fatal(err)
	}
	disjunctive, err := NewOneRoundJob("disjunctive", sgf.MustParse(`Z := SELECT y FROM R(x, y) WHERE S(x) OR T(y);`).Queries)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SeqPlan("seq", prog.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		job   *mr.Job
		input string
		fact  relation.Tuple
	}{
		{"MSJ guard fact", job, "R", guard},
		{"MSJ conditional fact", job, "S", cond},
		{"salted MSJ guard fact on a heavy key", salted, "R", guard},
		{"salted MSJ conditional fact on a heavy key", salted, "S", cond},
		{"EVAL guard fact", par.Jobs[2], "R", guard},
		{"EVAL mark", par.Jobs[2], XName("Z", 1), relation.Tuple{5}},
		{"shared-key 1-ROUND guard fact", shared, "R", guard},
		{"disjunctive 1-ROUND guard fact", disjunctive, "R", guard},
		{"1-ROUND conditional fact", disjunctive, "T", cond},
		{"filter guard fact", seq.Jobs[0], "R", guard},
		{"filter conditional fact", seq.Jobs[0], "S", cond},
	} {
		var em mr.Emitter
		part := slices.Index(c.job.Inputs, c.input)
		c.job.Mapper.Map(part, 5, c.fact, &em) // warm: the first arena chunk
		if allocs := testing.AllocsPerRun(2000, func() { c.job.Mapper.Map(part, 5, c.fact, &em) }); allocs != 0 {
			t.Errorf("%s: mapper allocates %v per fact, want 0", c.what, allocs)
		}
	}

	// Reduce side: measured from inside the reduce task, on the group
	// the engine built.
	walked := 0
	job.Reducer = mr.ReducerFunc(func(key []byte, msgs *mr.Group, out *mr.Output) {
		var sum int64
		allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < msgs.Len(); i++ {
				switch tag, p := msgs.At(i); tag {
				case TagRequest:
					v, _ := varint(p, "Request")
					sum += v
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
// kernel's real reducer as MSJ, EVAL, 1-ROUND in both modes and the
// filter fill its table, re-run on the group and the Output the engine
// handed it. Output.Add appends every call's facts again, so the row
// buffers grow by doubling — a handful of allocations over the 100
// calls, under one per call — and what is left is the bit set, decode
// and Output.Add: a set that escapes, or a tuple built per output fact
// (a fresh decode), reads as ≥ 1 allocation per call.
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
	dis, err := OneRoundPlan("dis", sgf.MustParse(`Z := SELECT y, x FROM R(x, y) WHERE S(x) OR NOT T(y);`).Queries)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SeqPlan("seq", prog.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*Plan{par, one, dis, seq} {
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
