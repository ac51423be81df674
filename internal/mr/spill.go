package mr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
)

// Shuffle spill-to-disk: the out-of-core step of the ROADMAP, scoped to
// the shuffle stage. When a map task's shuffle partition crosses the
// run's spill threshold, shuffleTask serializes the partition's
// per-reducer runs into one temp file — reducer segments in reducer
// order — and drops the in-memory records; the reduce stage's one
// reader (taskPartition.appendTo) streams each task's segment back in
// the same declared (part, task) position the in-memory records would
// occupy, so the records a reducer sees — and therefore outputs and
// JobStats — are bit-for-bit identical to the in-memory run (pinned by
// TestOrderedFoldDifferential and CI's reader-configuration loop, which
// re-runs the whole mr suite with a tiny threshold).
//
// Spilling is opt-in per message type: the engine cannot serialize an
// arbitrary Message, so messages implement SpillMessage and register a
// decoder under their tag. A partition containing any non-spillable
// message simply stays in memory — correctness never depends on
// spilling. Spill files live in the run's spillSet and are removed the
// moment the reduce stage has consumed them (reducesDone); the run
// entry points defer spillSet.cleanup, so canceled, over-budget and
// panicked runs leave no temp files behind either.

// SpillMessage is a Message the engine can serialize into a shuffle
// spill file and decode back. Implementations append a self-delimiting
// encoding (the decoder returns the unconsumed rest) and register a
// SpillDecoder for their tag from an init function. Spill files never
// outlive the process, so the encoding only needs in-process fidelity
// (interned string handles, for example, round-trip as their int64
// values).
type SpillMessage interface {
	Message
	// SpillTag identifies the message's registered decoder. Tag 0 is
	// reserved for mr.Packed.
	SpillTag() byte
	// AppendSpill appends the message's encoding to dst and returns the
	// extended slice. The encoding must be self-delimiting.
	AppendSpill(dst []byte) []byte
}

// SpillDecoder decodes one message from the front of b, returning the
// message and the unconsumed rest.
type SpillDecoder func(b []byte) (Message, []byte, error)

// spillDecoders is the tag → decoder registry. Written only by
// RegisterSpillDecoder during package initialization, read by reduce
// tasks; init happens-before any run, so no locking is needed.
var spillDecoders [256]SpillDecoder

// RegisterSpillDecoder installs the decoder for a SpillMessage tag.
// Must be called from an init function (the registry is read without
// locks once runs start); registering a tag twice panics.
func RegisterSpillDecoder(tag byte, dec SpillDecoder) {
	if spillDecoders[tag] != nil {
		panic(fmt.Sprintf("mr: spill decoder tag %d registered twice", tag))
	}
	spillDecoders[tag] = dec
}

const spillTagPacked = 0

// SpillTag implements SpillMessage: Packed values travel under the
// reserved tag 0 as a counted run of tagged elements.
func (p Packed) SpillTag() byte { return spillTagPacked }

// AppendSpill implements SpillMessage.
func (p Packed) AppendSpill(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p.Msgs)))
	for _, m := range p.Msgs {
		dst = appendSpillMessage(dst, m)
	}
	return dst
}

func init() {
	RegisterSpillDecoder(spillTagPacked, func(b []byte) (Message, []byte, error) {
		n, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, nil, errSpillCorrupt
		}
		b = b[w:]
		msgs := make([]Message, 0, n)
		for i := uint64(0); i < n; i++ {
			m, rest, err := decodeSpillMessage(b)
			if err != nil {
				return nil, nil, err
			}
			msgs = append(msgs, m)
			b = rest
		}
		return Packed{Msgs: msgs}, b, nil
	})
}

// ErrSpill is the sentinel matched (via errors.Is) by every error of
// the spill path — a temp file that cannot be created, written or read
// back, a segment that does not decode. These are faults of the host
// (spill directory missing, disk full), never of the query.
var ErrSpill = errors.New("mr: spill")

var errSpillCorrupt = fmt.Errorf("%w: corrupt record encoding", ErrSpill)

// spillableLeaf reports whether one message can travel through a spill
// file: it implements SpillMessage and its tag has a decoder.
func spillableLeaf(m Message) bool {
	sm, ok := m.(SpillMessage)
	return ok && spillDecoders[sm.SpillTag()] != nil
}

// spillable reports whether m — including the elements of a Packed
// value — can spill.
func spillable(m Message) bool {
	if p, ok := m.(Packed); ok {
		for _, e := range p.Msgs {
			if !spillableLeaf(e) {
				return false
			}
		}
		return true
	}
	return spillableLeaf(m)
}

// partitionSpillable reports whether every message of a task partition
// can spill (engine-packed runs included).
func partitionSpillable(parts [][]record) bool {
	for _, recs := range parts {
		for i := range recs {
			r := &recs[i]
			if r.packed != nil {
				for _, m := range r.packed {
					if !spillable(m) {
						return false
					}
				}
			} else if !spillable(r.msg) {
				return false
			}
		}
	}
	return true
}

// Record wire form: uvarint key length, key bytes, varint modelled
// size, a form byte (0 = single message, 1 = engine-packed run), then
// the tagged message payload(s); packed runs carry a uvarint count.
const (
	spillFormSingle = 0
	spillFormPacked = 1
)

func appendSpillMessage(dst []byte, m Message) []byte {
	sm := m.(SpillMessage) // partitionSpillable vetted the whole partition
	dst = append(dst, sm.SpillTag())
	return sm.AppendSpill(dst)
}

func appendSpillRecord(dst []byte, r *record) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.key)))
	dst = append(dst, r.key...)
	dst = binary.AppendVarint(dst, r.size)
	if r.packed != nil {
		dst = append(dst, spillFormPacked)
		dst = binary.AppendUvarint(dst, uint64(len(r.packed)))
		for _, m := range r.packed {
			dst = appendSpillMessage(dst, m)
		}
		return dst
	}
	dst = append(dst, spillFormSingle)
	return appendSpillMessage(dst, r.msg)
}

func decodeSpillMessage(b []byte) (Message, []byte, error) {
	if len(b) == 0 {
		return nil, nil, errSpillCorrupt
	}
	dec := spillDecoders[b[0]]
	if dec == nil {
		return nil, nil, fmt.Errorf("%w: no decoder for tag %d", ErrSpill, b[0])
	}
	return dec(b[1:])
}

// decodeSpillRecord decodes one record from the front of b. The key
// aliases b (zero-copy, like arena-held keys): the read buffer stays
// alive exactly as long as records reference it.
func decodeSpillRecord(b []byte) (record, []byte, error) {
	kl, w := binary.Uvarint(b)
	if w <= 0 || uint64(len(b)-w) < kl {
		return record{}, nil, errSpillCorrupt
	}
	end := w + int(kl)
	key := b[w:end:end]
	b = b[end:]
	size, w := binary.Varint(b)
	if w <= 0 {
		return record{}, nil, errSpillCorrupt
	}
	b = b[w:]
	if len(b) == 0 {
		return record{}, nil, errSpillCorrupt
	}
	form := b[0]
	b = b[1:]
	switch form {
	case spillFormSingle:
		m, rest, err := decodeSpillMessage(b)
		if err != nil {
			return record{}, nil, err
		}
		return record{key: key, msg: m, size: size}, rest, nil
	case spillFormPacked:
		n, w := binary.Uvarint(b)
		if w <= 0 {
			return record{}, nil, errSpillCorrupt
		}
		b = b[w:]
		msgs := make([]Message, 0, n)
		for i := uint64(0); i < n; i++ {
			m, rest, err := decodeSpillMessage(b)
			if err != nil {
				return record{}, nil, err
			}
			msgs = append(msgs, m)
			b = rest
		}
		return record{key: key, packed: msgs, size: size}, b, nil
	default:
		return record{}, nil, errSpillCorrupt
	}
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

// spillPartition is one spilled task partition: reducer segments laid
// out consecutively in one temp file.
type spillPartition struct {
	f    *os.File
	segs []spillSeg // per reducer
}

// spillSeg locates one reducer's records within the file.
type spillSeg struct {
	off, len int64
	count    int32
}

// writePartition serializes tp's per-reducer runs into a fresh spill
// file, reducer segments in reducer order, charging the encode scratch
// to the budget. The caller owns dropping tp.parts on success.
func (s *spillSet) writePartition(tp *taskPartition, b *Budget) (*spillPartition, error) {
	f, err := s.create()
	if err != nil {
		return nil, err
	}
	sp := &spillPartition{f: f, segs: make([]spillSeg, len(tp.parts))}
	var scratch []byte
	var off int64
	for p, recs := range tp.parts {
		grown := cap(scratch)
		scratch = scratch[:0]
		for i := range recs {
			scratch = appendSpillRecord(scratch, &recs[i])
		}
		// The scratch grows through append inside the encoders; charge
		// the growth once it is known (cumulative, so the total stays
		// schedule-independent).
		if cap(scratch) > grown {
			b.charge(int64(cap(scratch) - grown))
		}
		if _, err := f.Write(scratch); err != nil {
			s.drop(f)
			return nil, fmt.Errorf("%w: write: %w", ErrSpill, err)
		}
		sp.segs[p] = spillSeg{off: off, len: int64(len(scratch)), count: int32(len(recs))}
		off += int64(len(scratch))
	}
	b.noteSpill(off)
	return sp, nil
}

// appendSegment reads reducer ri's segment back and decodes onto dst the
// records whose key falls in [lo, hi) (nil bounds = all of them),
// returning their modelled bytes. The read buffer is charged to the
// budget; keys alias it. Concurrent reduce tasks may read different
// segments of one file (ReadAt is positional and thread-safe). Each
// sub-range task of a split partition reads and decodes the whole
// segment: redundant work, but deterministic and budget-charged per
// task, and bounded by the sub-range cap (splitMaxKeys) on how many
// sub-tasks one partition can become.
func (sp *spillPartition) appendSegment(dst []record, ri int, lo, hi []byte, b *Budget) ([]record, int64, error) {
	seg := sp.segs[ri]
	if seg.count == 0 {
		return dst, 0, nil
	}
	buf := grabBytes(b, int(seg.len))
	if _, err := sp.f.ReadAt(buf, seg.off); err != nil {
		return dst, 0, fmt.Errorf("%w: read: %w", ErrSpill, err)
	}
	var kept int64
	for i := 0; i < int(seg.count); i++ {
		r, rest, err := decodeSpillRecord(buf)
		if err != nil {
			return dst, kept, err
		}
		if keyInRange(r.key, lo, hi) {
			dst = append(dst, r)
			kept += r.size
		}
		buf = rest
	}
	if len(buf) != 0 {
		return dst, kept, errSpillCorrupt
	}
	return dst, kept, nil
}
