package mr

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
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
// a single reducer — the arena's records copied into the partition's one
// segment — and returns the partition, resident or spilled.
func shuffleOne(t testing.TB, em *Emitter, spill bool) *taskPartition {
	t.Helper()
	tp, err := shuffleArena(t, sealed(em.chunks), em.records, 1, spill)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// sealed is an arena as a map task seals it: its chunks' records in one
// buffer of exactly their length.
func sealed(chunks [][]byte) []byte {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	arena := make([]byte, 0, n)
	for _, c := range chunks {
		arena = append(arena, c...)
	}
	return arena
}

// shuffleArena runs the real shuffle task over a sealed arena said to
// hold msgs records, into a partition of the given reducer count; an
// arena the shuffle task rejects is the error. The task gets its own copy
// of the arena, which it writes its partition back into or drops, as it
// does a map task's.
func shuffleArena(t testing.TB, arena []byte, msgs int64, reducers int, spill bool) (tp *taskPartition, err error) {
	t.Helper()
	return shuffleCharging(t, sealed([][]byte{arena}), msgs, reducers, spill, nil)
}

// spillDir is the spill directory the shuffle helpers' spilled legs
// share: one per test process, made on first use, so a fuzz input costs
// no directory of its own. Each spilled leg drops its file when its test
// or fuzz input ends; TestMain removes the directory.
var spillDir struct {
	once sync.Once
	path string
}

func sharedSpillDir(t testing.TB) string {
	spillDir.once.Do(func() {
		dir, err := os.MkdirTemp("", "gumbo-mr-spill-*")
		if err != nil {
			t.Fatal(err)
		}
		spillDir.path = dir
	})
	return spillDir.path
}

func TestMain(m *testing.M) {
	code := m.Run()
	if spillDir.path != "" {
		os.RemoveAll(spillDir.path)
	}
	os.Exit(code)
}

// shuffleCharging is shuffleArena over arena, which the shuffle task
// takes as its own, with the task charging b. A spilled partition's file
// is in the shared spill directory and removed when t ends.
func shuffleCharging(t testing.TB, arena []byte, msgs int64, reducers int, spill bool, b *Budget) (tp *taskPartition, err error) {
	t.Helper()
	e := NewEngine(Config{Cost: cost.Default()})
	gov := govern{budget: b}
	if spill {
		e.cfg.SpillThreshold = 1
		e.cfg.SpillDir = sharedSpillDir(t)
		gov = e.newGovern(b)
		t.Cleanup(gov.spill.cleanup)
	}
	jr := &jobRun{e: e, job: &Job{}, gov: gov, reducers: reducers, left: 2} // never the last shuffle, so nothing spawns
	jr.results = [][]mapTaskResult{{{arena: arena, msgs: msgs, bytes: 1}}}
	jr.partitions()
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
	for _, seg := range tp.segs {
		n += int(seg.count)
	}
	ks := new(taskScratch).keySet(n, true)
	for ri := range tp.segs {
		if _, err := tp.appendTo(&got, ks, ri, nil); err != nil {
			return got, err
		}
	}
	return got, nil
}

// shuffleRead is shuffleArena, then readAll over the partition: the
// shuffle task's error, else the reader's.
func shuffleRead(t testing.TB, arena []byte, msgs int64, reducers int, spill bool) (recordSet, error) {
	t.Helper()
	tp, err := shuffleArena(t, arena, msgs, reducers, spill)
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
	return &taskPartition{buf: b, segs: []segment{{len: int64(len(b)), count: count}}}
}

// segmentBytes is reducer ri's segment of tp as the reader finds it.
func segmentBytes(t testing.TB, tp *taskPartition, ri int) []byte {
	t.Helper()
	seg, err := tp.read(ri, nil)
	if err != nil {
		t.Fatal(err)
	}
	return seg
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
	good, count := segmentBytes(t, tp, 0), tp.segs[0].count
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
// no short cut: the oracle for readRecord. off is the payload's.
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
	return record{size: int64(h[2]), off: uint32(pos + 1 + int(h[0])), klen: uint32(h[0]), plen: uint32(h[1]), tag: b[pos]}, pos + 1 + int(h[0]+h[1]), true
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
					var got record
					next, err := readRecord(&got, enc[:cut], 1)
					if (err == nil) != ok || got != want || next != wantNext || (err != nil && !errors.Is(err, ErrSpill)) {
						t.Fatalf("klen %d plen %d size %d cut at %d of %d: %+v, %d, %v; the reference reads %+v, %d, %v",
							klen, plen, size, cut, len(enc), got, next, err, want, wantNext, ok)
					}
				}
			}
		}
	}
}

// checkArenaDamage hands the shuffle task arena — a damaged copy of a
// sealed arena of msgs records — and reads its partition back, requiring
// what a damaged spill file gets: an error matching ErrSpill, from the
// task or from the one reader, or records the reader hands out in-bounds
// references to — never a panic.
func checkArenaDamage(t *testing.T, what string, arena []byte, msgs int64, reducers int, spill bool) {
	t.Helper()
	got, err := shuffleRead(t, arena, msgs, reducers, spill)
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
// memory and spilled. Every bit of a map task's sealed arena, flipped,
// must give ErrSpill or a partition that reads back, and a record count
// the arena does not hold must give ErrSpill — from the shuffle task,
// which decodes the arena to place it at r = 1 as at r = 7, sealed from
// one rung or several.
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
				checkArenaDamage(t, fmt.Sprintf("bit %d flipped", bit), flipped, small.records, reducers, spill)
			}
			for _, em := range []*Emitter{small, multi} {
				for _, msgs := range []int64{em.records - 1, em.records + 1} {
					if _, err := shuffleRead(t, sealed(em.chunks), msgs, reducers, spill); !errors.Is(err, ErrSpill) {
						t.Errorf("r = %d, spill %v: %d records claimed of %d sealed from %d chunks: err = %v, want ErrSpill",
							reducers, spill, msgs, em.records, len(em.chunks), err)
					}
				}
			}
		}
	}
}

// threeRecords emits the codec fuzzers' arena: a record under "before",
// the fuzzed one, and one more under its key with an empty payload. size
// is masked to a modelled byte count first, and returned so.
func threeRecords(key []byte, tag byte, size int64, payload []byte) (*Emitter, int64) {
	size &= math.MaxInt64 >> 1
	em := new(Emitter)
	em.Emit([]byte("before"), tagInt, 8, []byte{1})
	em.Emit(key, tag, size, payload)
	em.Emit(key, tagInt, 0, nil)
	return em, size
}

// FuzzRecordCodec holds the record codec on its own: records go through
// the encoder (Emit, into a map task's arena) and the decoder over that
// arena, and arbitrary bytes through the decoder, against the plain
// uvarint reference, and through the one reader, which must answer
// ErrSpill or in-bounds records. The engine never interprets a payload,
// so the message types of internal/core are byte shapes here — the seeds
// mirror their layouts (varint pairs, varint runs, empty), the arena's
// edges and the edges of the one-byte header — and every other shape the
// fuzzer finds must survive just the same. The arena's bytes must be the
// plain uvarint encoding of the records (encodeRecord), whichever path
// Emit took.
// FuzzShufflePlacement takes the same records through the shuffle.
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
	addArenaEdges(f)
	// The edges of Emit's four-byte header: key length, payload length and
	// stored size (size + the key's bytes) of 127, the last one-byte
	// uvarint, then each of them at 128, then all at 16 384.
	f.Add(make([]byte, 127), byte(11), int64(0), make([]byte, 127), []byte{})
	f.Add(make([]byte, 128), byte(12), int64(0), make([]byte, 127), []byte{})
	f.Add(make([]byte, 126), byte(13), int64(2), make([]byte, 127), []byte{})
	f.Add([]byte("k"), byte(14), int64(125), make([]byte, 128), []byte{})
	f.Add(make([]byte, 16384), byte(15), int64(0), make([]byte, 16384), []byte{})
	f.Fuzz(func(t *testing.T, key []byte, tag byte, size int64, payload, raw []byte) {
		em, size := threeRecords(key, tag, size, payload)
		want := arenaRecords(t, em)
		if r := want.recs[1]; len(want.recs) != 3 || !bytes.Equal(want.key(1), key) || r.tag != tag ||
			r.size != size+keyBytes(key) || !bytes.Equal(want.payload(1), payload) ||
			!bytes.Equal(want.key(2), key) || want.recs[2].size != keyBytes(key) || len(want.payload(2)) != 0 {
			t.Fatalf("the arena reads back %d records, the emitted one as %q/%d/%d/%x", len(want.recs), want.key(1), r.tag, r.size, want.payload(1))
		}
		enc := encodeRecord(nil, []byte("before"), tagInt, 8+keyBytes([]byte("before")), []byte{1})
		enc = encodeRecord(enc, key, tag, size+keyBytes(key), payload)
		if enc = encodeRecord(enc, key, tagInt, keyBytes(key), nil); !bytes.Equal(sealed(em.chunks), enc) {
			t.Fatalf("the arena's bytes are not the uvarint encoding of the records")
		}
		wantRec, wantNext, ok := refReadRecord(raw, 0)
		var r record
		if next, err := readRecord(&r, raw, 0); (err == nil) != ok || r != wantRec || next != wantNext {
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

// addArenaEdges adds the codec fuzzers' seeds at the arena's edges: a
// record larger than the first rung, arenas sealed from one and from
// three rungs, and segment orders at r = 7 that put the last records
// first.
func addArenaEdges(f *testing.F) {
	f.Add([]byte("k"), byte(6), int64(12), make([]byte, arenaFirst+1), []byte{0, 0x80}) // larger than the first rung
	// The 11 bytes of "before", then 1 + 2 + 1 + 1 + 1 of header, tag and key: this payload
	// ends the first rung, and the third record opens a second one.
	f.Add([]byte("k"), byte(7), int64(12), make([]byte, arenaFirst-11-6), []byte{0xff, 0x1f})
	// 1 + 2 + 1 + 1 + 1 bytes of header, tag and key: this record fills the second rung to the
	// last byte, so the third opens a third, and the arena is sealed from three rungs.
	f.Add([]byte("k"), byte(8), int64(12), make([]byte, 2*arenaFirst-6), []byte{0x01, 0x40})
	// Key "c" goes to reducer 1 of 7, "before" to reducer 2, so at r = 7 the
	// segment order puts the last two records first and "before" last.
	f.Add([]byte("c"), byte(9), int64(12), make([]byte, 2*arenaFirst-11), []byte{})
	// The same order over the three-rung arena above.
	f.Add([]byte("c"), byte(10), int64(12), make([]byte, 2*arenaFirst-6), []byte{})
}

// FuzzShufflePlacement takes FuzzRecordCodec's three records through the
// real shuffle task over their sealed arena — one chunk of exactly their
// length — and the one reader, resident and spilled: at r = 1 every
// record must read back as emitted; at r = 7 every segment must be the
// reference placement (refPlacement), and a resident partition must be
// one buffer of len = cap = the encoded bytes. raw picks an arena byte
// to damage, and how, under the shuffle task and the reader at r = 1 and
// r = 7. It starts from the arena-edge seeds (addArenaEdges), placed
// over the exact chunk.
func FuzzShufflePlacement(f *testing.F) {
	addArenaEdges(f)
	f.Add([]byte{}, byte(0), int64(0), []byte{}, []byte{3, 1}) // the smallest records
	f.Fuzz(func(t *testing.T, key []byte, tag byte, size int64, payload, raw []byte) {
		em, _ := threeRecords(key, tag, size, payload)
		want, arena := arenaRecords(t, em), sealed(em.chunks)
		for _, spill := range []bool{false, true} {
			got, err := readAll(shuffleOne(t, em, spill))
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
		ref, counts := refPlacement(t, arena, 7) // segment order at r = 7
		for _, spill := range []bool{false, true} {
			tp, err := shuffleArena(t, arena, em.records, 7, spill)
			if err != nil {
				t.Fatal(err)
			}
			compareLayout(t, fmt.Sprintf("7 reducers, spill %v", spill), tp, ref, counts)
			if !spill && (len(tp.buf) != len(arena) || cap(tp.buf) != len(arena)) {
				t.Fatalf("7 reducers: the partition holds %d bytes in %d, want the %d encoded in exactly as many", len(tp.buf), cap(tp.buf), len(arena))
			}
		}
		if len(raw) >= 2 && raw[1] != 0 { // raw picks the arena byte to damage, and how
			damaged := append([]byte(nil), arena...)
			damaged[(int(raw[0])<<8|int(raw[1]))%len(damaged)] ^= raw[1]
			for _, reducers := range []int{1, 7} {
				for _, spill := range []bool{false, true} {
					checkArenaDamage(t, "a damaged arena byte", damaged, em.records, reducers, spill)
				}
			}
		}
	})
}

// TestSpillAbortLeavesNoTempFiles is the crash-safety contract: runs
// that end early — canceled at a task boundary, or aborted by an
// exhausted budget — fail whole and remove every spill file on the
// unwind (the run entry points defer spillSet.cleanup).
//
// A spill that cannot be written fails the run the same way, with an
// error matching ErrSpill.
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
		outs, stats, timings, err := e.Run(context.Background(), p, db, RunOptions{Budget: NewBudget(charged / 2)})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("err = %v, want ErrBudgetExceeded", err)
		}
		if outs != nil || stats != nil || timings != nil {
			t.Fatalf("over-budget run returned outputs %v, stats %v, timings %v; want all nil", outs, stats, timings)
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
		outs, stats, timings, err := e.Run(ctx, p, db, RunOptions{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if outs != nil || stats != nil || timings != nil {
			t.Fatalf("canceled run returned outputs %v, stats %v, timings %v; want all nil", outs, stats, timings)
		}
		if files := spillFilesIn(t, dir); len(files) != 0 {
			t.Errorf("canceled run left spill files %v", files)
		}
	})

	t.Run("spill failure", func(t *testing.T) {
		e := newTestEngine(cost.Default().Scaled(0.001))
		e.cfg.Workers = 4
		e.cfg.SpillThreshold = 1
		e.cfg.SpillDir = filepath.Join(t.TempDir(), "missing")
		p, db := diamondProgram()
		outs, stats, timings, err := e.Run(context.Background(), p, db, RunOptions{})
		if !errors.Is(err, ErrSpill) {
			t.Fatalf("err = %v, want ErrSpill", err)
		}
		if outs != nil || stats != nil || timings != nil {
			t.Fatalf("failed spill returned outputs %v, stats %v, timings %v; want all nil", outs, stats, timings)
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
