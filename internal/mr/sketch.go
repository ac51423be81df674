package mr

import (
	"bytes"
	"sort"
)

// keySketch is the shuffle stage's heavy-key detector: a deterministic
// space-saving top-k counter over byte keys, weighted by modelled record
// bytes. Each shuffle task feeds its sketch from the counted two-pass
// placement loop (the target reducer and record size are already in
// hand there); shufflesDone merges the per-task sketches in declared
// (part, task) order, so the combined sketch — and every boundary
// derived from it — is identical at every pool width.
//
// The sketch is approximate twice over: the feed is a deterministic
// 1-in-sketchSampleEvery sample of each task's record stream (volumes
// scaled by the stride), and within the fed stream the counter is
// space-saving — an entry's volume never underestimates its key's fed
// volume, and a key covering more than 1/sketchEntries of the fed
// bytes is always present. That is exactly the fidelity splitting
// needs — boundaries only steer where a heavy partition is cut;
// correctness never depends on them (any byte-string boundary
// partitions the key space).
//
// Key storage is a fixed arena obtained through grabBytes, so the
// sketch's memory is charged to the run's budget like every other bulk
// engine buffer (TestSkewSketchBudgetCharged pins the charge).
const (
	// sketchEntries is the number of tracked heavy-key candidates.
	sketchEntries = 16
	// sketchKeyBytes caps the stored bytes per key; longer keys are
	// tracked by prefix (full = false) and split only at the prefix.
	sketchKeyBytes = 48
	// splitMaxKeys caps how many heavy keys one split partition
	// isolates: each fully-stored key adds two boundaries, so a split
	// partition becomes at most 2·splitMaxKeys+1 sub-ranges — bounding
	// the redundant per-sub segment scans.
	splitMaxKeys = 4
	// sketchSampleEvery is the shuffle feed's sampling stride: the
	// placement loop observes every Nth record by position in the task's
	// record stream — per record, whether or not the job packs — so the
	// sample is schedule-independent, with the record's size scaled by
	// N. Sampling keeps the sketch off the per-record hot path; a key
	// heavy enough to split on is far too frequent to hide from a 1-in-8
	// sample (TestSkewSketchFedPerRecord).
	sketchSampleEvery = 8
)

// sketchEntry is one tracked key: its stored length, whether the stored
// bytes are the whole key, the key's target reducer, and the byte
// volume attributed to it.
type sketchEntry struct {
	klen int32
	full bool
	red  int32
	vol  int64
}

type keySketch struct {
	n       int
	last    int // entry hit by the previous observe: skew's fast path
	entries [sketchEntries]sketchEntry
	keys    []byte // sketchEntries fixed slots of sketchKeyBytes
}

// newKeySketch allocates a sketch with budget-charged key storage.
func newKeySketch(b *Budget) *keySketch {
	return &keySketch{keys: grabBytes(b, sketchEntries*sketchKeyBytes)}
}

// slot returns entry i's stored key bytes.
func (s *keySketch) slot(i int) []byte {
	off := i * sketchKeyBytes
	return s.keys[off : off+int(s.entries[i].klen)]
}

// observe attributes size bytes to key, whose target reducer is red.
func (s *keySketch) observe(key []byte, red int32, size int64) {
	stored, full := key, true
	if len(stored) > sketchKeyBytes {
		stored, full = stored[:sketchKeyBytes], false
	}
	s.add(stored, full, red, size)
}

// add is observe after truncation; absorb reuses it for merging.
func (s *keySketch) add(stored []byte, full bool, red int32, size int64) {
	if s.n > 0 { // a heavy key hits the same entry time after time
		if e := &s.entries[s.last]; e.full == full && bytes.Equal(s.slot(s.last), stored) {
			e.vol += size
			return
		}
	}
	for i := 0; i < s.n; i++ {
		e := &s.entries[i]
		if e.full == full && bytes.Equal(s.slot(i), stored) {
			e.vol += size
			s.last = i
			return
		}
	}
	if s.n < sketchEntries {
		i := s.n
		s.n++
		copy(s.keys[i*sketchKeyBytes:], stored)
		s.entries[i] = sketchEntry{klen: int32(len(stored)), full: full, red: red, vol: size}
		s.last = i
		return
	}
	// Space-saving eviction: the smallest entry inherits the newcomer
	// and keeps its volume as the overestimate bound. The first minimum
	// in slot order wins, so eviction is deterministic.
	min := 0
	for i := 1; i < sketchEntries; i++ {
		if s.entries[i].vol < s.entries[min].vol {
			min = i
		}
	}
	copy(s.keys[min*sketchKeyBytes:], stored)
	e := &s.entries[min]
	e.klen, e.full, e.red = int32(len(stored)), full, red
	e.vol += size
	s.last = min
}

// absorb merges o's entries into s in o's slot order. Merging the
// per-task sketches in declared (part, task) order makes the combined
// sketch schedule-independent.
func (s *keySketch) absorb(o *keySketch) {
	for i := 0; i < o.n; i++ {
		e := &o.entries[i]
		s.add(o.slot(i), e.full, e.red, e.vol)
	}
}

// splitBoundaries derives the ascending key boundaries that isolate the
// sketch's heaviest keys targeting reducer ri: up to splitMaxKeys keys
// picked by volume (ties broken by slot order, so the pick is
// deterministic), each contributing the key itself and — when the key
// is stored in full — its immediate successor key·0x00, so the range
// [key, key·0x00) contains exactly that key's group. The returned
// boundaries are sorted, deduplicated, budget-charged copies that own
// their bytes (the per-task sketches die with taskParts; the boundaries
// outlive them in the reduce slots).
func (s *keySketch) splitBoundaries(ri int32, b *Budget) [][]byte {
	var taken [sketchEntries]bool
	var bounds [][]byte
	for picked := 0; picked < splitMaxKeys; picked++ {
		best := -1
		for i := 0; i < s.n; i++ {
			if taken[i] || s.entries[i].red != ri {
				continue
			}
			if best < 0 || s.entries[i].vol > s.entries[best].vol {
				best = i
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		k := s.slot(best)
		kb := grabBytes(b, len(k))
		copy(kb, k)
		bounds = append(bounds, kb)
		if s.entries[best].full {
			succ := grabBytes(b, len(k)+1)
			copy(succ, k)
			succ[len(k)] = 0
			bounds = append(bounds, succ)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bytes.Compare(bounds[i], bounds[j]) < 0 })
	out := bounds[:0]
	for _, kb := range bounds {
		if len(out) == 0 || !bytes.Equal(out[len(out)-1], kb) {
			out = append(out, kb)
		}
	}
	return out
}
