package mr

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// The tests' message type: an int64 travelling under tagInt as a varint
// payload, modelled at 8 bytes.
const tagInt = 250

func emitInt(em *Emitter, key []byte, v int64) {
	var b [binary.MaxVarintLen64]byte
	em.Emit(key, tagInt, 8, binary.AppendVarint(b[:0], v))
}

// intAt decodes the group's i-th message.
func intAt(g *Group, i int) int64 {
	_, p := g.At(i)
	v, _ := binary.Varint(p)
	return v
}

func tup(vals ...int64) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.Value(v)
	}
	return t
}

func testDB() *relation.Database {
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, []relation.Tuple{
		tup(1, 10), tup(2, 20), tup(3, 10), tup(4, 30),
	}))
	db.Put(relation.FromTuples("S", 1, []relation.Tuple{
		tup(10), tup(30), tup(99),
	}))
	return db
}

// semijoinJob builds a repartition semi-join R(x,y) ⋉ S(y) as in §4.1.
func semijoinJob(packing bool) *Job {
	job := &Job{
		Name:    "semijoin",
		Inputs:  []string{"R", "S"},
		Outputs: map[string]int{"Z": 2},
		Packing: packing,
		Reducer: ReducerFunc(func(key []byte, msgs *Group, out *Output) {
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
				if v := intAt(msgs, i); v >= 1000 {
					out.Add("Z", tup(v-1000, 0))
				}
			}
		}),
	}
	job.Mapper = MapperFunc(func(part int, id int, t relation.Tuple, emit *Emitter) {
		var kb [12]byte
		switch job.Inputs[part] {
		case "R":
			emitInt(emit, t[1].AppendKey(kb[:0]), int64(id)+1000)
		case "S":
			emitInt(emit, t[0].AppendKey(kb[:0]), -1)
		}
	})
	return job
}

func TestRunJobSemiJoin(t *testing.T) {
	e := newTestEngine(cost.Default())
	out, stats, err := runJob(context.Background(), e, semijoinJob(false), testDB())
	if err != nil {
		t.Fatal(err)
	}
	z := out.Relation("Z")
	// R tuples with y ∈ S: ids 0 (y=10), 2 (y=10), 3 (y=30).
	want := relation.FromTuples("Z", 2, []relation.Tuple{tup(0, 0), tup(2, 0), tup(3, 0)})
	if !z.Equal(want) {
		t.Errorf("Z = %s, want %s", z.Dump(), want.Dump())
	}
	if len(stats.Parts) != 2 {
		t.Fatalf("parts = %d", len(stats.Parts))
	}
	if stats.Parts[0].Records != 4 || stats.Parts[1].Records != 3 {
		t.Errorf("record counts = %+v", stats.Parts)
	}
	if stats.InterMB() <= 0 || stats.InputMB() <= 0 {
		t.Errorf("byte accounting zero: %+v", stats)
	}
}

func TestRunJobDeterministic(t *testing.T) {
	e := newTestEngine(cost.Default())
	db := testDB()
	_, s1, err := runJob(context.Background(), e, semijoinJob(false), db)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, s2, err := runJob(context.Background(), e, semijoinJob(false), db)
		if err != nil {
			t.Fatal(err)
		}
		if s1.String() != s2.String() {
			t.Fatalf("stats differ across runs:\n%s\n%s", s1, s2)
		}
	}
}

// TestPackingReducesRecordsAndBytes is the packing differential at the
// engine: the same job with Packing on and off hands its reducers the
// same groups and writes the same output, and the measured Records and
// InterMB differ by exactly what the map-based definition says — per
// map task, one record per distinct key and each key's bytes once.
func TestPackingReducesRecordsAndBytes(t *testing.T) {
	var r, s []relation.Tuple
	for i := int64(0); i < 3000; i++ {
		r = append(r, tup(i, i%40*100)) // many tuples share few keys
		if i < 30 {
			s = append(s, tup(i*200))
		}
	}
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, r))
	db.Put(relation.FromTuples("S", 1, s))
	keyCol := []int{1, 0} // semijoinJob's key column per input

	e := newTestEngine(cost.Default().Scaled(0.00005)) // several map tasks over R
	run := func(packing bool) (*relation.Database, JobStats, map[string]string) {
		job := semijoinJob(packing)
		reduce := job.Reducer
		var mu sync.Mutex
		groups := make(map[string]string)
		job.Reducer = ReducerFunc(func(key []byte, msgs *Group, out *Output) {
			var trace string
			for i := 0; i < msgs.Len(); i++ {
				trace += fmt.Sprintf("%d,", intAt(msgs, i))
			}
			mu.Lock()
			groups[string(key)] = trace
			mu.Unlock()
			reduce.Reduce(key, msgs, out)
		})
		out, stats, err := runJob(context.Background(), e, job, db)
		if err != nil {
			t.Fatal(err)
		}
		return out, stats, groups
	}
	outPlain, plain, groupsPlain := run(false)
	outPacked, packed, groupsPacked := run(true)
	if !outPlain.Relation("Z").Equal(outPacked.Relation("Z")) || outPlain.Relation("Z").Size() == 0 {
		t.Error("packing changed the job output (or the job selects nothing)")
	}
	if !maps.Equal(groupsPlain, groupsPacked) {
		t.Error("packing changed the groups the reducers saw")
	}
	if plain.Parts[0].Mappers < 3 {
		t.Fatalf("R ran as %d map tasks: the oracle below needs several", plain.Parts[0].Mappers)
	}
	for part, rel := range []*relation.Relation{db.Relation("R"), db.Relation("S")} {
		var wantRecords int64
		var wantPlainMB, wantPackedMB float64
		n, m := rel.Size(), plain.Parts[part].Mappers
		for task := 0; task < m; task++ {
			seen := make(map[relation.Value]bool)
			var plainBytes, packedBytes int64
			for i := n * task / m; i < n*(task+1)/m; i++ {
				v := rel.Tuple(i)[keyCol[part]]
				kb := keyBytes(v.AppendKey(nil))
				plainBytes += kb + 8
				packedBytes += 8
				if !seen[v] {
					seen[v] = true
					packedBytes += kb
				}
			}
			wantRecords += int64(len(seen))
			wantPlainMB += mbOf(plainBytes)
			wantPackedMB += mbOf(packedBytes)
		}
		pl, pk := plain.Parts[part], packed.Parts[part]
		if pl.Records != int64(n) || pl.InterMB != wantPlainMB {
			t.Errorf("%s unpacked: %d records, %v MB; oracle %d, %v", pl.Input, pl.Records, pl.InterMB, n, wantPlainMB)
		}
		if pk.Records != wantRecords || pk.InterMB != wantPackedMB {
			t.Errorf("%s packed: %d records, %v MB; oracle %d, %v", pk.Input, pk.Records, pk.InterMB, wantRecords, wantPackedMB)
		}
	}
	if packed.Records() >= plain.Records() || packed.InterMB() >= plain.InterMB() {
		t.Errorf("packing saved nothing: %d records / %v MB against %d / %v",
			packed.Records(), packed.InterMB(), plain.Records(), plain.InterMB())
	}
}

func TestReducerCountFromIntermediate(t *testing.T) {
	e := newTestEngine(cost.Default().Scaled(0.0001)) // tiny buffers: forces multiple reducers
	_, stats, err := runJob(context.Background(), e, semijoinJob(false), testDB())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reducers < 1 {
		t.Errorf("Reducers = %d", stats.Reducers)
	}
	fixed := semijoinJob(false)
	fixed.reducers = 7
	_, stats2, err := runJob(context.Background(), e, fixed, testDB())
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Reducers != 7 {
		t.Errorf("fixed Reducers = %d, want 7", stats2.Reducers)
	}
}

func TestReducersFromInputPigPolicy(t *testing.T) {
	e := newTestEngine(cost.Default())
	job := semijoinJob(false)
	job.ReducerInputMB = 0.00001 // absurdly small per-reducer input
	_, stats, err := runJob(context.Background(), e, job, testDB())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reducers < 2 {
		t.Errorf("input-based allocation gave %d reducers", stats.Reducers)
	}
}

func TestInflateIntermediate(t *testing.T) {
	e := newTestEngine(cost.Default())
	plain, stats1, err := runJob(context.Background(), e, semijoinJob(false), testDB())
	if err != nil {
		t.Fatal(err)
	}
	job := semijoinJob(false)
	job.InflateIntermediate = 2.0
	inflated, stats2, err := runJob(context.Background(), e, job, testDB())
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Relation("Z").Equal(inflated.Relation("Z")) {
		t.Error("inflation changed output")
	}
	ratio := stats2.InterMB() / stats1.InterMB()
	if ratio < 1.99 || ratio > 2.01 {
		t.Errorf("inflation ratio = %v", ratio)
	}
}

func TestUnknownInputRelation(t *testing.T) {
	e := newTestEngine(cost.Default())
	job := semijoinJob(false)
	job.Inputs = []string{"R", "Missing"}
	if _, _, err := runJob(context.Background(), e, job, testDB()); err == nil || !strings.Contains(err.Error(), "Missing") {
		t.Errorf("err = %v", err)
	}
}

func TestUndeclaredOutputPanics(t *testing.T) {
	e := newTestEngine(cost.Default())
	job := &Job{
		Name:    "bad",
		Inputs:  []string{"R"},
		Outputs: map[string]int{"Z": 1},
		Mapper: MapperFunc(func(_ int, id int, t relation.Tuple, emit *Emitter) {
			emitInt(emit, []byte("k"), 1)
		}),
		Reducer: ReducerFunc(func(key []byte, msgs *Group, out *Output) {
			out.Add("Undeclared", tup(1))
		}),
	}
	defer func() {
		if recover() == nil {
			t.Fatal("undeclared output did not panic")
		}
	}()
	runJob(context.Background(), e, job, testDB())
}

func TestEmptyInputRelation(t *testing.T) {
	db := relation.NewDatabase()
	db.Put(relation.New("R", 2))
	db.Put(relation.New("S", 1))
	e := newTestEngine(cost.Default())
	out, stats, err := runJob(context.Background(), e, semijoinJob(false), db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("Z").Size() != 0 {
		t.Error("empty input produced output")
	}
	if stats.MapTasks < 2 {
		t.Errorf("MapTasks = %d", stats.MapTasks)
	}
}

func TestSampleEstimates(t *testing.T) {
	var tuples []relation.Tuple
	for i := int64(0); i < 10000; i++ {
		tuples = append(tuples, tup(i, i%7))
	}
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, tuples))
	db.Put(relation.FromTuples("S", 1, []relation.Tuple{tup(0)}))
	counts, err := Sample(semijoinJob(false), db)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := runJob(context.Background(), newTestEngine(cost.Default()), semijoinJob(false), db)
	if err != nil {
		t.Fatal(err)
	}
	// The mapper is perfectly uniform, so the estimate should be close.
	c := counts[0]
	estimate := mbOf(c.Bytes) * float64(c.Tuples) / float64(c.Sampled)
	actual := stats.Parts[0].InterMB
	if estimate < actual*0.9 || estimate > actual*1.1 {
		t.Errorf("sampled estimate %v vs actual %v", estimate, actual)
	}
}

// TestSamplePerInputIsolation checks Sample's counts exactly: every
// input's are its own, it maps every SampleStride-th tuple, and when the
// job packs an input's sample shares one key set — Records counts its
// distinct keys and each key is charged once, as a map task charges it.
func TestSamplePerInputIsolation(t *testing.T) {
	var tuples []relation.Tuple
	for i := int64(0); i < 400; i++ {
		tuples = append(tuples, tup(i, i/200)) // sampled: ids 0, 100, 200, 300 under keys 0, 0, 1, 1
	}
	db := relation.NewDatabase()
	db.Put(relation.FromTuples("R", 2, tuples))
	db.Put(relation.FromTuples("S", 1, []relation.Tuple{tup(0), tup(3), tup(6)}))
	kb := keyBytes([]byte(tup(0).Key()))
	for _, c := range []struct {
		packing bool
		want    []SampleCounts
	}{
		{false, []SampleCounts{{400, 4, 4, 4 * (kb + 8)}, {3, 1, 1, kb + 8}}},
		{true, []SampleCounts{{400, 4, 2, 2*kb + 4*8}, {3, 1, 1, kb + 8}}},
	} {
		got, err := Sample(semijoinJob(c.packing), db)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("packing %v: counts %+v, want %+v", c.packing, got, c.want)
		}
	}
	db.Drop("S")
	if _, err := Sample(semijoinJob(false), db); err == nil {
		t.Error("sampled a job over a missing input")
	}
}

func TestProgramDepsAndRounds(t *testing.T) {
	j1 := semijoinJob(false) // outputs Z
	j2 := &Job{
		Name:    "consume",
		Inputs:  []string{"Z"},
		Outputs: map[string]int{"W": 2},
		Mapper: MapperFunc(func(_ int, id int, t relation.Tuple, emit *Emitter) {
			var kb [32]byte
			emitInt(emit, t.AppendKey(kb[:0]), int64(id))
		}),
		Reducer: ReducerFunc(func(key []byte, msgs *Group, out *Output) {
			out.Add("W", relation.TupleFromKeyBytes(key))
		}),
	}
	p := &Program{Jobs: []*Job{j1, j2}}
	if deps := p.ReadSets(); deps[0][0] != -1 || len(deps[1]) != 1 || deps[1][0] != 0 {
		t.Errorf("ReadSets = %v", deps)
	}
	e := newTestEngine(cost.Default())
	outs, stats, _, err := e.Run(context.Background(), p, testDB(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("stats = %d", len(stats))
	}
	if !outs.Relation("W").Equal(outs.Relation("Z").Rename("W")) {
		t.Error("W != Z")
	}
}

func TestProgramValidate(t *testing.T) {
	j := semijoinJob(false)
	p := &Program{Jobs: []*Job{j}}
	if err := p.Validate([]string{"R"}); err == nil {
		t.Error("missing input S accepted")
	}
	if err := p.Validate([]string{"R", "S", "Z"}); err == nil {
		t.Error("overwriting base relation accepted")
	}
	if err := p.Validate([]string{"R", "S"}); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

func TestMetricsAccumulate(t *testing.T) {
	e := newTestEngine(cost.Default())
	_, stats, err := runJob(context.Background(), e, semijoinJob(false), testDB())
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	m.Add(stats)
	m.Add(stats)
	if m.Jobs != 2 || m.InputMB != 2*stats.InputMB() {
		t.Errorf("Metrics = %+v", m)
	}
}

func TestCostSpecConversion(t *testing.T) {
	e := newTestEngine(cost.Default())
	_, stats, err := runJob(context.Background(), e, semijoinJob(false), testDB())
	if err != nil {
		t.Fatal(err)
	}
	spec := stats.CostSpec()
	if len(spec.Partitions) != 2 || spec.Reducers != stats.Reducers {
		t.Errorf("CostSpec = %+v", spec)
	}
	c := cost.Default()
	if c.JobCost(cost.Gumbo, spec) <= 0 {
		t.Error("job cost not positive")
	}
}
