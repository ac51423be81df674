package mr

import (
	"context"
	"encoding/binary"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// Spill support for the test message type: intMsg travels under tag 250
// as a varint. Registered at package init exactly like production
// message types (internal/core registers its tags the same way) — which
// also makes the whole mr test suite spill-capable under the CI
// reader-configuration loop's GUMBO_SPILL_THRESHOLD override, so every
// golden and differential test in the package re-runs with partitions
// spilling.
const spillTagIntMsg = 250

func (m intMsg) SpillTag() byte { return spillTagIntMsg }

func (m intMsg) AppendSpill(dst []byte) []byte {
	return binary.AppendVarint(dst, int64(m))
}

func init() {
	RegisterSpillDecoder(spillTagIntMsg, func(b []byte) (Message, []byte, error) {
		v, w := binary.Varint(b)
		if w <= 0 {
			return nil, nil, errSpillCorrupt
		}
		return intMsg(v), b[w:], nil
	})
}

// spillFilesIn lists the spill temp files currently present in dir.
func spillFilesIn(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "gumbo-spill-*"))
	if err != nil {
		t.Fatalf("glob spill dir: %v", err)
	}
	names := make([]string, 0, len(matches))
	for _, m := range matches {
		names = append(names, filepath.Base(m))
	}
	return names
}

// TestSpillRecordRoundTrip pins the record wire form directly: single,
// engine-packed and Packed-message records survive encode → decode
// bit-for-bit, and a truncated buffer is rejected rather than
// misdecoded.
func TestSpillRecordRoundTrip(t *testing.T) {
	rs := []record{
		{key: []byte("a"), msg: intMsg(7), size: 9},
		{key: []byte("bee"), msg: Packed{Msgs: []Message{intMsg(1), intMsg(-2), intMsg(1 << 40)}}, size: 27},
		{key: []byte{}, packed: []Message{intMsg(3), intMsg(-4)}, size: 16},
	}
	var buf []byte
	boundaries := map[int]bool{0: true}
	for i := range rs {
		buf = appendSpillRecord(buf, &rs[i])
		boundaries[len(buf)] = true
	}
	rest := buf
	for i := range rs {
		r, after, err := decodeSpillRecord(rest)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(r, rs[i]) {
			t.Errorf("record %d round-tripped to %+v, want %+v", i, r, rs[i])
		}
		rest = after
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after decoding all records", len(rest))
	}
	for cut := 1; cut < len(buf); cut++ {
		if boundaries[len(buf)-cut] {
			continue // a whole-record prefix decodes cleanly by design
		}
		if _, _, err := decodeAll(buf[:len(buf)-cut]); err == nil {
			t.Errorf("truncating %d bytes decoded cleanly", cut)
		}
	}
}

// decodeAll decodes records until the buffer is exhausted or corrupt.
func decodeAll(b []byte) ([]record, []byte, error) {
	var rs []record
	for len(b) > 0 {
		r, rest, err := decodeSpillRecord(b)
		if err != nil {
			return nil, nil, err
		}
		rs = append(rs, r)
		b = rest
	}
	return rs, b, nil
}

// TestNonSpillablePartitionStaysInMemory: spilling is opt-in per
// message type. A job whose messages do not implement SpillMessage
// runs correctly under a 1-byte threshold — its partitions simply stay
// in memory (SpilledParts 0), with outputs identical to a
// spill-disabled run.
func TestNonSpillablePartitionStaysInMemory(t *testing.T) {
	mkJob := func() *Job {
		return &Job{
			Name:    "opaque",
			Inputs:  []string{"R"},
			Outputs: map[string]int{"O": 2},
			Mapper: MapperFunc(func(input string, id int, tpl relation.Tuple, emit Emit) {
				var kb [32]byte
				emit(tpl.AppendKey(kb[:0]), opaqueMsg(int64(id)))
			}),
			Reducer: ReducerFunc(func(key []byte, msgs []Message, o *Output) {
				o.Add("O", relation.TupleFromKeyBytes(key))
			}),
		}
	}
	db := testDB()
	ref := newTestEngine(cost.Default().Scaled(0.001))
	ref.cfg.SpillThreshold = -1
	wantOuts, wantStats, _, err := ref.Run(context.Background(),
		&Program{Jobs: []*Job{mkJob()}}, db, RunOptions{})
	if err != nil {
		t.Fatalf("reference run failed: %v", err)
	}

	dir := t.TempDir()
	e := newTestEngine(cost.Default().Scaled(0.001))
	e.cfg.Workers = 4
	e.cfg.SpillThreshold = 1
	e.cfg.SpillDir = dir
	budget := NewBudget(0)
	outs, stats, _, err := e.Run(context.Background(),
		&Program{Jobs: []*Job{mkJob()}}, db, RunOptions{Budget: budget})
	if err != nil {
		t.Fatalf("non-spillable run failed: %v", err)
	}
	if !outs.Relation("O").Equal(wantOuts.Relation("O")) {
		t.Errorf("outputs differ from spill-disabled run")
	}
	if !reflect.DeepEqual(stats, wantStats) {
		t.Errorf("stats differ:\n%+v\nvs\n%+v", stats, wantStats)
	}
	if mem := budget.Stats(); mem.SpilledParts != 0 {
		t.Errorf("non-spillable messages spilled %d partitions", mem.SpilledParts)
	}
	if files := spillFilesIn(t, dir); len(files) != 0 {
		t.Errorf("non-spillable run left spill files %v", files)
	}
}

// opaqueMsg deliberately does not implement SpillMessage.
type opaqueMsg int64

func (m opaqueMsg) SizeBytes() int64 { return 8 }

// TestSpillAbortLeavesNoTempFiles is the crash-safety contract: runs
// that end early — canceled at a task boundary, or aborted by an
// exhausted budget — remove every spill file on the unwind (the run
// entry points defer spillSet.cleanup).
func TestSpillAbortLeavesNoTempFiles(t *testing.T) {
	// Measure a clean spill-on run's total charge so the budget case can
	// pick a limit that is guaranteed to trip mid-run.
	p, db := diamondProgram()
	probe := newTestEngine(cost.Default().Scaled(0.001))
	probe.cfg.Workers = 4
	probe.cfg.SpillThreshold = 1
	probe.cfg.SpillDir = t.TempDir()
	budget := NewBudget(0)
	if _, _, _, err := probe.Run(context.Background(), p, db, RunOptions{Budget: budget}); err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	charged := budget.Stats().ChargedBytes
	if charged < 2 {
		t.Fatalf("probe run charged only %d bytes", charged)
	}

	t.Run("budget", func(t *testing.T) {
		dir := t.TempDir()
		e := newTestEngine(cost.Default().Scaled(0.001))
		e.cfg.Workers = 4
		e.cfg.SpillThreshold = 1
		e.cfg.SpillDir = dir
		p, db := diamondProgram()
		outs, _, _, err := e.Run(context.Background(), p, db, RunOptions{Budget: NewBudget(charged / 2)})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("err = %v, want ErrBudgetExceeded", err)
		}
		if outs != nil {
			t.Fatalf("over-budget run returned an outputs database")
		}
		if files := spillFilesIn(t, dir); len(files) != 0 {
			t.Errorf("over-budget run left spill files %v", files)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		restore := SetFaultHooks(FaultHooks{Grant: func(n int) {
			if n == 5 {
				cancel()
			}
		}})
		defer restore()
		e := newTestEngine(cost.Default().Scaled(0.001))
		e.cfg.Workers = 4
		e.cfg.SpillThreshold = 1
		e.cfg.SpillDir = dir
		p, db := diamondProgram()
		outs, _, _, err := e.Run(ctx, p, db, RunOptions{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if outs != nil {
			t.Fatalf("canceled run returned an outputs database")
		}
		if files := spillFilesIn(t, dir); len(files) != 0 {
			t.Errorf("canceled run left spill files %v", files)
		}
	})
}

// TestSpillThresholdOffAtZero pins the two-valued convention: a positive
// Config.SpillThreshold turns spill on, zero and negative leave it off.
func TestSpillThresholdOffAtZero(t *testing.T) {
	for _, c := range []struct {
		threshold int64
		on        bool
	}{{123, true}, {0, false}, {-1, false}} {
		e := NewEngine(Config{Cost: cost.Default(), SpillThreshold: c.threshold})
		if gov := e.newGovern(nil); (gov.spill != nil) != c.on {
			t.Errorf("SpillThreshold %d: spill on = %v, want %v", c.threshold, gov.spill != nil, c.on)
		}
	}
}
