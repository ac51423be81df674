package mr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sync"
)

// The shuffle byte form, resident or spilled. A shuffle task lays one map
// task's records — encoded by Emit — out as per-reducer segments of one
// buffer (shuffleTask); that buffer is the partition. When the
// partition's modelled bytes reach the run's spill threshold the buffer
// is written to a temp file and dropped — spilling encodes nothing — and
// the reduce stage's one reader (taskPartition.appendTo) decodes a
// segment the same way wherever its bytes are, a slice of the resident
// buffer or a ReadAt into a fresh one, in the same declared (part, task)
// position. The records a reducer sees — and therefore outputs and
// JobStats — are bit-for-bit identical in both stores (pinned by
// TestOrderedFoldDifferential and CI's reader-configuration loop, which
// re-runs the whole mr suite with a tiny threshold).
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
// copied from there on.

// uvarintLen is the encoded length of x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// readRecord is the record decoder: it decodes the record starting at
// b[pos] into a reference into b (src left 0) and returns the position
// after it. Every length is checked against the bytes remaining before
// it is used, so arbitrary input yields errCorrupt, never a panic. A
// shuffled record is decoded twice, in its shuffle task and in its
// reduce task, and nearly every header is three one-byte varints, so
// those are read without the varint loop (measured in CHANGES.md).
func readRecord(b []byte, pos int) (record, int, error) {
	if pos+4 <= len(b) && b[pos]|b[pos+1]|b[pos+2] < 0x80 {
		klen, plen := int(b[pos]), int(b[pos+1])
		end := pos + 4 + klen + plen
		if end > len(b) {
			return record{}, 0, errCorrupt
		}
		return record{size: int64(b[pos+2]), off: uint32(pos + 4), klen: uint32(klen), plen: uint32(plen), tag: b[pos+3]}, end, nil
	}
	var h [3]uint64 // key length, payload length, modelled size
	for i := range h {
		v, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return record{}, 0, errCorrupt
		}
		h[i] = v
		pos += n
	}
	rest := uint64(len(b) - pos)
	if rest == 0 || h[0] > rest-1 || h[1] > rest-1-h[0] || h[2] > math.MaxInt64 {
		return record{}, 0, errCorrupt
	}
	r := record{size: int64(h[2]), off: uint32(pos + 1), klen: uint32(h[0]), plen: uint32(h[1]), tag: b[pos]}
	return r, pos + 1 + int(h[0]+h[1]), nil
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

// segment locates one reducer's records within a task partition's
// buffer, or within its spill file.
type segment struct {
	off, len int64
	count    int32
}

// taskPartition is one map task's shuffle output: per-reducer segments
// of encoded records, consecutive in reducer order, in buf or — once
// spilled — at the same offsets of f.
type taskPartition struct {
	buf  []byte
	f    *os.File // non-nil = spilled: the file owns the bytes, buf is nil
	segs []segment
}

// spill writes the partition's buffer to a fresh spill file and drops
// it: the file now owns the bytes.
func (tp *taskPartition) spill(s *spillSet, b *Budget) error {
	f, err := s.create()
	if err != nil {
		return err
	}
	if _, err := f.Write(tp.buf); err != nil {
		s.drop(f)
		return fmt.Errorf("%w: write: %w", ErrSpill, err)
	}
	b.noteSpill(int64(len(tp.buf)))
	tp.buf, tp.f = nil, f
	return nil
}

// read returns reducer ri's segment: a slice of the resident buffer, or
// the file range read back into one budget-charged buffer. Concurrent
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
// load. Resident or streamed back from the spill file, the segment goes
// through the same decode loop, once, and the reducer sees the same
// record sequence; the segment becomes one more buffer of dst. The
// segment must decode to exactly its record count with no bytes left
// over, which is where a damaged spill file is caught.
func (tp *taskPartition) appendTo(dst *recordSet, ks *keySet, ri int, b *Budget) (int64, error) {
	seg := tp.segs[ri]
	if seg.count == 0 {
		return 0, nil
	}
	data, err := tp.read(ri, b)
	if err != nil {
		return 0, err
	}
	var kept int64
	n := int32(0)
	src := uint32(len(dst.bufs))
	dst.bufs = append(dst.bufs, data)
	for pos := 0; pos < len(data); n++ {
		r, next, err := readRecord(data, pos)
		if err != nil || n == seg.count {
			return kept, errCorrupt
		}
		r.src = src
		loc, made := ks.entry(dst.bufs, data[r.off:r.off+r.klen])
		if made {
			*loc = keyLoc{src: src, off: r.off, klen: r.klen, first: int32(len(dst.recs))}
		}
		r.group = loc.first
		dst.recs = append(dst.recs, r)
		kept += r.size
		pos = next
	}
	if n != seg.count {
		return kept, errCorrupt
	}
	return kept, nil
}
