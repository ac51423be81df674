package core

import (
	"encoding/binary"
	"hash/fnv"

	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// Skew handling (§6): "the presented framework can readily be adapted
// [to skew] when information on so-called heavy hitters is available or
// can be computed at the expense of an additional round." This file
// implements that adaptation for MSJ jobs: heavy join keys are detected
// by sampling the guard relations and handed to the job's role table
// (NewMSJJobSkew); where the kernel's mapper emits (reconcile.Map),
// requests on a heavy key are salted across saltFactor sub-keys
// (spreading the hot reducer's load), and the small assert messages are
// replicated to every salt — semantics are unchanged, reduce-side
// balance improves. Salting divides a hot key's
// group, which the engine's runtime range splitting (mr/split.go) cannot
// — a key group is one Reduce call — so the two are independent: a
// salted plan runs the same under any engine configuration.
const (
	// heavyFraction marks a join key heavy when it covers more than this
	// fraction of its guard relation's sampled facts.
	heavyFraction = 0.01
	// saltFactor is the number of sub-keys a heavy key is spread over.
	saltFactor = 16
)

// DetectHeavyKeys samples the guard relations of eqs and returns the
// set of join-key strings whose frequency exceeds heavyFraction of
// their relation ("heavy hitters"). This is the paper's extra sampling
// pass; it costs one scan of a sample per distinct (guard, join key)
// projection, over the tuples mr.Sample maps.
func DetectHeavyKeys(eqs []Equation, db *relation.Database) map[string]bool {
	heavy := make(map[string]bool)
	seen := make(map[string]bool) // packing groups already sampled
	for _, eq := range eqs {
		pk := eq.packKey()
		if seen[pk] {
			continue
		}
		seen[pk] = true
		rel := db.Relation(eq.Guard.Rel)
		if rel == nil || rel.Size() == 0 {
			continue
		}
		matcher := sgf.NewMatcher(eq.Guard)
		proj := sgf.NewProjector(eq.Guard, eq.JoinVars)
		counts := make(map[string]int)
		sampled := 0
		for i := 0; i < rel.Size(); i += mr.SampleStride {
			sampled++
			t := rel.Tuple(i)
			if matcher.Matches(t) {
				counts[proj.Apply(t).Key()]++
			}
		}
		threshold := heavyFraction * float64(sampled)
		for k, n := range counts {
			if float64(n) > threshold {
				heavy[k] = true
			}
		}
	}
	return heavy
}

// appendSalt appends a salt byte pair to a shuffle key. Salted keys
// never collide with unsalted ones because Tuple keys are varint
// sequences and the suffix changes the length.
func appendSalt(key []byte, salt int) []byte {
	var b [4]byte
	n := binary.PutUvarint(b[:], uint64(salt))
	key = append(key, 0xff)
	return append(key, b[:n]...)
}

// saltOf deterministically spreads a guard tuple id over salts.
func saltOf(id int64, factor int) int {
	h := fnv.New32a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(id))
	h.Write(b[:])
	return int(h.Sum32() % uint32(factor))
}

// SkewAwareBasicPlan is BasicPlan salting the heavy join keys it
// detects in db.
func SkewAwareBasicPlan(name string, strategy Strategy, queries []*sgf.BSGF, eqs []Equation, partition [][]int, db *relation.Database) (*Plan, error) {
	return BasicPlan(name, strategy, queries, eqs, partition, DetectHeavyKeys(eqs, db))
}
