package mr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"
	"sync"
)

// The shuffle byte form, resident or spilled. A shuffle task lays one map
// task's records — encoded by Emit, sealed into one chunk of exactly
// their length — out as per-reducer segments, staged in its worker's
// byte buffer and copied back into that chunk (shuffleTask), which is
// the partition, its segments byte ranges of it. When the partition's
// modelled bytes reach the run's spill threshold the staged bytes are
// written to a temp file instead and the chunk dropped — spilling
// encodes nothing — and the reduce stage's one reader
// (taskPartition.appendTo) decodes a segment the same way wherever its
// bytes are, a range of the resident chunk or a ReadAt into a fresh
// buffer, in the same declared (part, task) position. The records a
// reducer sees — and therefore outputs and JobStats — are bit-for-bit
// identical in both stores (pinned by TestOrderedFoldDifferential,
// TestPartitionLayout and CI's reader-configuration loop, which re-runs
// the whole mr suite with a tiny threshold).
//
// Spill files live in the run's spillSet and are removed the moment the
// reduce stage has consumed them (reducesDone); the run entry points
// defer spillSet.cleanup, so canceled, over-budget and panicked runs
// leave no temp files behind either.

// ErrSpill is the sentinel matched (via errors.Is) by every error of
// the spill path — a temp file that cannot be created, written or read
// back, a segment or payload that does not decode. These are faults of
// the host (spill directory missing, disk full, damaged file), never of
// the query.
var ErrSpill = errors.New("mr: spill")

var errCorrupt = fmt.Errorf("%w: corrupt record encoding", ErrSpill)

// Record wire form: uvarint key length, uvarint payload length, uvarint
// modelled size, the tag byte, then the key and payload bytes. It only
// needs in-process fidelity — a segment never outlives its run. Emit is
// the encoder: a record is written once, into its map task's arena, and
// copied from there on. When all three lengths are below 0x80 — nearly
// every record — the header is four bytes, one per field, and both
// sides take a fast path over it: Emit writes it with one append,
// readRecord reads it without the varint loop. The bytes are the
// uvarint encoding's either way (TestRecordHeaderFastPath).

// uvarintLen is the encoded length of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// readRecord is the record decoder: it decodes the record starting at
// b[pos] into r, as a reference into b — size, off (the payload's),
// klen, plen and tag; src and group are the caller's — and returns the
// position after it.
// It writes r only on success. Every length is checked against the bytes
// remaining before it is used, so arbitrary input yields errCorrupt,
// never a panic. A shuffled record is decoded twice, in its shuffle task
// and in its reduce task, and nearly every header is three one-byte
// varints, so those are read without the varint loop (measured in
// CHANGES.md). The reduce task's gather decodes straight into the
// record's slot of its set.
func readRecord(r *record, b []byte, pos int) (int, error) {
	if pos+4 <= len(b) && b[pos]|b[pos+1]|b[pos+2] < 0x80 {
		klen, plen := int(b[pos]), int(b[pos+1])
		end := pos + 4 + klen + plen
		if end > len(b) {
			return 0, errCorrupt
		}
		r.size, r.off, r.klen, r.plen, r.tag = int64(b[pos+2]), uint32(pos+4+klen), uint32(klen), uint32(plen), b[pos+3]
		return end, nil
	}
	var h [3]uint64 // key length, payload length, modelled size
	for i := range h {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return 0, errCorrupt
		}
		h[i] = v
		pos += n
	}
	rest := uint64(len(b) - pos)
	if rest == 0 || h[0] > rest-1 || h[1] > rest-1-h[0] || h[2] > math.MaxInt64 {
		return 0, errCorrupt
	}
	r.size, r.off, r.klen, r.plen, r.tag = int64(h[2]), uint32(pos+1+int(h[0])), uint32(h[0]), uint32(h[1]), b[pos]
	return pos + 1 + int(h[0]+h[1]), nil
}

// spillSet owns one run's spill files. Files are registered at
// creation and deregistered when the reduce stage consumes them; the
// run entry points defer cleanup, which removes whatever is left — on
// the normal path nothing, on a canceled/over-budget/panicked run
// every file the aborted stages never consumed.
type spillSet struct {
	dir string // "" = os.TempDir

	mu    sync.Mutex
	files map[*os.File]struct{}
}

func newSpillSet(dir string) *spillSet {
	return &spillSet{dir: dir, files: make(map[*os.File]struct{})}
}

func (s *spillSet) create() (*os.File, error) {
	f, err := os.CreateTemp(s.dir, "gumbo-spill-*")
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrSpill, err)
	}
	s.mu.Lock()
	s.files[f] = struct{}{}
	s.mu.Unlock()
	return f, nil
}

// drop closes and removes one spill file.
func (s *spillSet) drop(f *os.File) {
	s.mu.Lock()
	delete(s.files, f)
	s.mu.Unlock()
	name := f.Name()
	f.Close()
	os.Remove(name)
}

// cleanup removes every remaining file. Nil-safe and idempotent; runs
// after the pool is quiescent (runTasks joins its workers before
// returning), so no task can still be touching a file.
func (s *spillSet) cleanup() {
	if s == nil {
		return
	}
	s.mu.Lock()
	files := make([]*os.File, 0, len(s.files))
	for f := range s.files {
		files = append(files, f)
	}
	s.files = make(map[*os.File]struct{})
	s.mu.Unlock()
	for _, f := range files {
		name := f.Name()
		f.Close()
		os.Remove(name)
	}
}

// segment locates one reducer's records within a task partition: a byte
// range of its chunk, or of its spill file.
type segment struct {
	off, len int64
	count    int32
}

// taskPartition is one map task's shuffle output: per-reducer segments
// of encoded records, consecutive in reducer order, in buf — the map
// task's sealed arena, rewritten in segment order — or, once spilled, at
// the same offsets of f.
type taskPartition struct {
	buf  []byte
	f    *os.File // non-nil = spilled: the file owns the bytes, buf is nil
	segs []segment
}

// spill writes staged, the partition's records in segment order, to a
// fresh spill file, which then owns them.
func (tp *taskPartition) spill(s *spillSet, b *Budget, staged []byte) error {
	f, err := s.create()
	if err != nil {
		return err
	}
	if _, err := f.Write(staged); err != nil {
		s.drop(f)
		return fmt.Errorf("%w: write: %w", ErrSpill, err)
	}
	b.noteSpill(int64(len(staged)))
	tp.f = f
	return nil
}

// read returns reducer ri's segment: its range of the resident chunk,
// or the file range read back into one budget-charged buffer. Concurrent
// reduce tasks may read different segments of one file (ReadAt is
// positional and thread-safe).
func (tp *taskPartition) read(ri int, b *Budget) ([]byte, error) {
	seg := tp.segs[ri]
	if tp.f == nil {
		return tp.buf[seg.off : seg.off+seg.len], nil
	}
	data := grabBytes(b, int(seg.len))
	if _, err := tp.f.ReadAt(data, seg.off); err != nil {
		return nil, fmt.Errorf("%w: read: %w", ErrSpill, err)
	}
	return data, nil
}

// appendTo appends to dst this partition's records of reducer ri, in the
// order the shuffle placed them, each stamped with its key group — the
// index in dst of the first record carrying its key, from the task's key
// set — and returns their modelled bytes: the partition's share of ri's
// load. Resident or streamed back from the spill file, the segment
// becomes a buffer of dst and goes through the same decode loop, once,
// and the reducer sees the same record sequence. dst.recs is
// extended by the segment's record count up front and each record
// decoded straight into its slot, a new key's entry filled in where the
// key set made it. The segment must decode to exactly its record count
// with no bytes left over, which is where a damaged spill file is caught;
// dst.recs is extended only then.
func (tp *taskPartition) appendTo(dst *recordSet, ks *keySet, ri int, b *Budget) (int64, error) {
	seg := tp.segs[ri]
	if seg.count == 0 {
		return 0, nil
	}
	data, err := tp.read(ri, b)
	if err != nil {
		return 0, err
	}
	src := uint32(len(dst.bufs))
	dst.bufs = append(dst.bufs, data)
	at := len(dst.recs)
	recs := slices.Grow(dst.recs, int(seg.count))[:at+int(seg.count)]
	var kept int64
	i := at
	for pos := 0; pos < len(data); i++ {
		if i == len(recs) {
			return kept, errCorrupt
		}
		r := &recs[i]
		next, err := readRecord(r, data, pos)
		if err != nil {
			return kept, errCorrupt
		}
		r.src = src
		loc, made := ks.entry(dst.bufs, data[r.off-r.klen:r.off])
		if made {
			loc.src, loc.off, loc.klen, loc.first = src, r.off-r.klen, r.klen, int32(i)
		}
		r.group = loc.first
		kept += r.size
		pos = next
	}
	if i != len(recs) {
		return kept, errCorrupt
	}
	dst.recs = recs
	return kept, nil
}
