package mr

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cost"
)

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

// shuffleOne runs the real shuffle task over one map task's output with
// a single reducer — the arena becomes the partition's one segment — and
// returns the partition, resident or spilled.
func shuffleOne(t testing.TB, em *Emitter, spill bool) *taskPartition {
	t.Helper()
	tp, err := shuffleArena(t, em.chunks, em.records, 1, spill)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// shuffleArena runs the real shuffle task over raw arena chunks said to
// hold msgs records, into a partition of the given reducer count; an
// arena the shuffle task rejects is the error. The task gets its own copy
// of the chunk list, which at r > 1 it reuses, as it does a map task's.
func shuffleArena(t testing.TB, chunks [][]byte, msgs int64, reducers int, spill bool) (tp *taskPartition, err error) {
	t.Helper()
	e := NewEngine(Config{Cost: cost.Default()})
	gov := govern{}
	if spill {
		e.cfg.SpillThreshold = 1
		e.cfg.SpillDir = t.TempDir()
		gov = e.newGovern(nil)
		t.Cleanup(gov.spill.cleanup)
	}
	jr := &jobRun{e: e, job: &Job{}, gov: gov, reducers: reducers, left: 2} // never the last shuffle, so nothing spawns
	jr.results = [][]mapTaskResult{{{chunks: slices.Clone(chunks), msgs: msgs, bytes: 1}}}
	jr.taskParts = [][]taskPartition{make([]taskPartition, 1)}
	defer func() { // as the pool's runOne does
		if ta, ok := recover().(taskAbort); ok {
			tp, err = nil, ta.err
		}
	}()
	jr.shuffleTask(&poolCtx{scratch: new(taskScratch)}, 0, 0)
	tp = &jr.taskParts[0][0]
	if (tp.f != nil) != spill {
		t.Fatalf("partition spilled = %v, want %v", tp.f != nil, spill)
	}
	return tp, nil
}

// readAll reads a whole partition back through the one reader, segment
// by segment in reducer order.
func readAll(tp *taskPartition) (recordSet, error) {
	var got recordSet
	n := 0
	for ri := range tp.segs {
		n += tp.count(reduceSlot{ri: ri})
	}
	ks := new(taskScratch).keySet(n, true)
	for ri := range tp.segs {
		if _, err := tp.appendTo(&got, ks, reduceSlot{ri: ri}, nil); err != nil {
			return got, err
		}
	}
	return got, nil
}

// shuffleRead is shuffleArena, then readAll over the partition: the
// shuffle task's error, else the reader's.
func shuffleRead(t testing.TB, chunks [][]byte, msgs int64, reducers int, spill bool) (recordSet, error) {
	t.Helper()
	tp, err := shuffleArena(t, chunks, msgs, reducers, spill)
	if err != nil {
		return recordSet{}, err
	}
	return readAll(tp)
}

// multiChunkArena emits 500 records over 37 keys through an Emitter
// charging b: about 5 KiB of records, an arena of three chunks.
func multiChunkArena(b *Budget) *Emitter {
	em := &Emitter{budget: b}
	for i := 0; i < 500; i++ {
		emitInt(em, []byte(fmt.Sprint("key", i%37)), int64(i))
	}
	return em
}

// rawPartition is a resident single-reducer partition over arbitrary
// bytes claiming count records.
func rawPartition(b []byte, count int32) *taskPartition {
	return &taskPartition{bufs: [][]byte{b}, segs: []segment{{len: int64(len(b)), count: count}}}
}

// checkReadFails reads tp and requires a typed failure.
func checkReadFails(t *testing.T, what string, tp *taskPartition) {
	t.Helper()
	if _, err := readAll(tp); !errors.Is(err, ErrSpill) {
		t.Errorf("%s: err = %v, want ErrSpill", what, err)
	}
}

// TestSegmentCorruption is the damaged-file table: whatever a spill file
// comes back as, the one reader answers with the original records or an
// error matching ErrSpill — never a panic, and never an allocation sized
// by a length it has not checked against the bytes it holds.
func TestSegmentCorruption(t *testing.T) {
	kvs := []kv{{"a", 7}, {"bee", -2}, {"", 1 << 40}, {"bee", 3}}
	tp := shuffleOne(t, setOf(kvs), false)
	if len(tp.bufs) != 1 {
		t.Fatalf("%d records in %d chunks, want one", len(kvs), len(tp.bufs))
	}
	good, count := tp.bufs[0], tp.segs[0].count
	if got, err := readAll(tp); err != nil || len(got.recs) != len(kvs) {
		t.Fatalf("clean segment: %d records, err %v", len(got.recs), err)
	}
	for cut := 0; cut < len(good); cut++ {
		checkReadFails(t, fmt.Sprintf("truncated to %d of %d bytes", cut, len(good)), rawPartition(good[:cut], count))
	}
	checkReadFails(t, "trailing byte", rawPartition(append(append([]byte(nil), good...), 0), count))
	checkReadFails(t, "record count one too many", rawPartition(good, count+1))
	checkReadFails(t, "record count one too few", rawPartition(good, count-1))
	huge := binary.AppendUvarint(nil, 1<<62)
	checkReadFails(t, "key length 1<<62", rawPartition(append(huge, good[1:]...), count))
	checkReadFails(t, "payload length 1<<62", rawPartition(append(append([]byte{good[0]}, huge...), good[2:]...), count))
	checkReadFails(t, "modelled size past int64", rawPartition(append(append(append([]byte(nil), good[:2]...),
		binary.AppendUvarint(nil, 1<<63)...), good[3:]...), count))
	for bit := 0; bit < 8*len(good); bit++ {
		flipped := append([]byte(nil), good...)
		flipped[bit/8] ^= 1 << (bit % 8)
		got, err := readAll(rawPartition(flipped, count))
		if err != nil {
			if !errors.Is(err, ErrSpill) {
				t.Errorf("bit %d flipped: err = %v, want ErrSpill", bit, err)
			}
			continue
		}
		for i := range got.recs { // a clean read hands out in-bounds references only
			_, _ = got.key(i), got.payload(i)
		}
	}
}

// refReadRecord is the record decoder as the wire form defines it, with
// no short cut: the oracle for readRecord.
func refReadRecord(b []byte, pos int) (record, int, bool) {
	var h [3]uint64
	for i := range h {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return record{}, 0, false
		}
		h[i], pos = v, pos+n
	}
	if pos >= len(b) || h[0] > uint64(len(b)-pos-1) || h[1] > uint64(len(b)-pos-1)-h[0] || h[2] > math.MaxInt64 {
		return record{}, 0, false
	}
	return record{size: int64(h[2]), off: uint32(pos + 1), klen: uint32(h[0]), plen: uint32(h[1]), tag: b[pos]}, pos + 1 + int(h[0]+h[1]), true
}

// TestReadRecordMatchesReference holds the decoder, one-byte headers read
// directly and the rest through the varint loop, to the plain decoder at
// every header shape around the one-byte boundary, whole and truncated at
// every length.
func TestReadRecordMatchesReference(t *testing.T) {
	lens := []int{0, 1, 126, 127, 128, 129, 300}
	sizes := []uint64{0, 1, 127, 128, 1 << 20, math.MaxInt64, 1 << 63}
	for _, klen := range lens {
		for _, plen := range lens {
			for _, size := range sizes {
				enc := []byte{0xee} // the record starts at 1
				enc = binary.AppendUvarint(enc, uint64(klen))
				enc = binary.AppendUvarint(enc, uint64(plen))
				enc = binary.AppendUvarint(enc, size)
				enc = append(enc, 9)
				enc = append(enc, bytes.Repeat([]byte{'k'}, klen)...)
				enc = append(enc, bytes.Repeat([]byte{'p'}, plen)...)
				for cut := 1; cut <= len(enc); cut++ {
					want, wantNext, ok := refReadRecord(enc[:cut], 1)
					got, next, err := readRecord(enc[:cut], 1)
					if (err == nil) != ok || got != want || next != wantNext || (err != nil && !errors.Is(err, ErrSpill)) {
						t.Fatalf("klen %d plen %d size %d cut at %d of %d: %+v, %d, %v; the reference reads %+v, %d, %v",
							klen, plen, size, cut, len(enc), got, next, err, want, wantNext, ok)
					}
				}
			}
		}
	}
}

// checkArenaDamage hands the shuffle task chunks — a damaged copy of an
// arena of msgs records — and reads its partition back, requiring what a
// damaged spill file gets: an error matching ErrSpill, from the task or
// from the one reader, or records the reader hands out in-bounds
// references to — never a panic.
func checkArenaDamage(t *testing.T, what string, chunks [][]byte, msgs int64, reducers int, spill bool) {
	t.Helper()
	got, err := shuffleRead(t, chunks, msgs, reducers, spill)
	if err != nil {
		if !errors.Is(err, ErrSpill) {
			t.Errorf("%s, r = %d, spill %v: err = %v, want ErrSpill", what, reducers, spill, err)
		}
		return
	}
	for i := range got.recs {
		_, _ = got.key(i), got.payload(i)
	}
}

// TestArenaCorruption is TestSegmentCorruption one stage earlier, in
// memory and spilled. Every bit of a map task's arena, flipped, must
// give ErrSpill or a partition that reads back, and a record count the
// arena does not hold must give ErrSpill — from the shuffle task at
// r = 7, which decodes the arena to place it, and from the reader at
// r = 1, where the arena is the partition, undecoded, over one chunk or
// several.
func TestArenaCorruption(t *testing.T) {
	small := setOf([]kv{{"a", 7}, {"bee", -2}, {"", 1 << 40}, {"bee", 3}})
	multi := multiChunkArena(nil)
	if len(small.chunks) != 1 || len(multi.chunks) < 3 {
		t.Fatalf("arenas of %d and %d chunks, want 1 and at least 3", len(small.chunks), len(multi.chunks))
	}
	good := small.chunks[0]
	for _, reducers := range []int{1, 7} {
		for _, spill := range []bool{false, true} {
			for bit := 0; bit < 8*len(good); bit++ {
				flipped := append([]byte(nil), good...)
				flipped[bit/8] ^= 1 << (bit % 8)
				checkArenaDamage(t, fmt.Sprintf("bit %d flipped", bit), [][]byte{flipped}, small.records, reducers, spill)
			}
			for _, em := range []*Emitter{small, multi} {
				for _, msgs := range []int64{em.records - 1, em.records + 1} {
					if _, err := shuffleRead(t, em.chunks, msgs, reducers, spill); !errors.Is(err, ErrSpill) {
						t.Errorf("r = %d, spill %v: %d records claimed of %d in %d chunks: err = %v, want ErrSpill",
							reducers, spill, msgs, em.records, len(em.chunks), err)
					}
				}
			}
		}
	}
}

// FuzzRecordCodec round-trips records through the encoder (Emit, into a
// map task's arena), the decoder over that arena, the real shuffle task
// of a single-reducer job (which hands the arena over as the partition)
// and the one reader, resident and spilled; it damages a byte of the
// arena under the shuffle task and the reader at r = 1 and r = 7, and
// feeds the reader arbitrary bytes. The engine never interprets a
// payload, so the message types of internal/core are byte shapes here —
// the seeds mirror their layouts (varint pairs, varint runs, empty) and
// the arena's edges (nothing but a header, a record larger than the rung
// it opens, one that fills its chunk to the last byte, an arena of three
// chunks) — and every other shape the fuzzer finds must survive just the
// same.
func FuzzRecordCodec(f *testing.F) {
	vs := func(vals ...int64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.AppendVarint(b, v)
		}
		return b
	}
	f.Add([]byte("k"), byte(1), int64(12), vs(3, 1<<40), []byte{})                          // Request: verdict, tuple id
	f.Add(vs(7, -7), byte(2), int64(4), vs(63), []byte{1, 0, 0, 2})                         // Assert: Class
	f.Add([]byte{}, byte(3), int64(36), vs(2, -1, 5, 6, 7), []byte{0x80})                   // Request: verdict, tuple...
	f.Add(bytes.Repeat([]byte{0xff}, 70), byte(4), int64(42), vs(1, 2, 3, 4), []byte{9, 9}) // TupleVal: arity, T...
	f.Add([]byte{0}, byte(5), int64(4), vs(-1), binary.AppendUvarint(nil, 1<<62))           // Assert: a class out of range
	f.Add([]byte{}, byte(0), int64(0), []byte{}, []byte{3, 1})                              // a header and nothing else
	f.Add([]byte("k"), byte(6), int64(12), make([]byte, arenaFirst+1), []byte{0, 0x80})     // larger than the rung it opens
	// The 11 bytes of "before", then 1 + 2 + 1 + 1 + 1 of header, tag and key: this payload ends its chunk.
	f.Add([]byte("k"), byte(7), int64(12), make([]byte, arenaFirst-11-6), []byte{0xff, 0x1f})
	// 1 + 2 + 1 + 1 + 1 bytes of header, tag and key: this record fills the second rung to the
	// last byte, so the third opens a third chunk, and the arena is a multi-chunk partition.
	f.Add([]byte("k"), byte(8), int64(12), make([]byte, 2*arenaFirst-6), []byte{0x01, 0x40})
	f.Fuzz(func(t *testing.T, key []byte, tag byte, size int64, payload, raw []byte) {
		size &= math.MaxInt64 >> 1 // a modelled size is a byte count
		var em Emitter
		em.Emit([]byte("before"), tagInt, 8, []byte{1})
		em.Emit(key, tag, size, payload)
		em.Emit(key, tagInt, 0, nil)
		want := arenaRecords(t, &em)
		if r := want.recs[1]; len(want.recs) != 3 || !bytes.Equal(want.key(1), key) || r.tag != tag ||
			r.size != size+keyBytes(key) || !bytes.Equal(want.payload(1), payload) ||
			!bytes.Equal(want.key(2), key) || want.recs[2].size != keyBytes(key) || len(want.payload(2)) != 0 {
			t.Fatalf("the arena reads back %d records, the emitted one as %q/%d/%d/%x", len(want.recs), want.key(1), r.tag, r.size, want.payload(1))
		}
		for _, spill := range []bool{false, true} {
			got, err := readAll(shuffleOne(t, &em, spill))
			if err != nil || len(got.recs) != len(want.recs) {
				t.Fatalf("spill %v: read back %d records, err %v", spill, len(got.recs), err)
			}
			for i, w := range want.recs {
				r := got.recs[i]
				if !bytes.Equal(got.key(i), want.key(i)) || r.tag != w.tag || r.size != w.size ||
					!bytes.Equal(got.payload(i), want.payload(i)) {
					t.Fatalf("spill %v: record %d came back %q/%d/%d/%x", spill, i, got.key(i), r.tag, r.size, got.payload(i))
				}
			}
		}
		if len(raw) >= 2 && raw[1] != 0 { // raw picks the arena byte to damage, and how
			damaged := make([][]byte, len(em.chunks))
			for i, c := range em.chunks {
				damaged[i] = append([]byte(nil), c...)
			}
			c := damaged[int(raw[0])%len(damaged)]
			c[(int(raw[0])<<8|int(raw[1]))%len(c)] ^= raw[1]
			for _, reducers := range []int{1, 7} {
				for _, spill := range []bool{false, true} {
					checkArenaDamage(t, "a damaged arena byte", damaged, em.records, reducers, spill)
				}
			}
		}
		wantRec, wantNext, ok := refReadRecord(raw, 0)
		if r, next, err := readRecord(raw, 0); (err == nil) != ok || r != wantRec || next != wantNext {
			t.Fatalf("arbitrary bytes decode as %+v, %d, %v; the reference reads %+v, %d, %v", r, next, err, wantRec, wantNext, ok)
		}
		for count := int32(0); count < 4; count++ {
			got, err := readAll(rawPartition(raw, count))
			if err != nil && !errors.Is(err, ErrSpill) {
				t.Fatalf("arbitrary bytes, count %d: err = %v, want ErrSpill", count, err)
			}
			for i := range got.recs {
				_, _ = got.key(i), got.payload(i)
			}
		}
	})
}

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
		restore := SetFaultHooks(FaultHooks{Grant: func(_ context.Context, n int) {
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
