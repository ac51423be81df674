package mr

import "bytes"

// Adaptive skew handling: runtime splitting of heavy reduce partitions.
//
// After the shuffle stage the engine knows every reduce partition's
// modelled byte load (taskPartition.loads, summed in declared order).
// When Config.SkewSplit is active and a partition's load exceeds
// that ratio × the mean partition load, the partition is split at key
// boundaries derived from the shuffle-time heavy-key sketch
// (sketch.go) into sub-partition reduce tasks that the work-stealing
// pool schedules independently — the hot partition's grouping and the
// reduces of its non-dominant keys stop serializing the run. A sub-range
// a dominant key has to itself needs no special case: its records are one
// group after the gather's one pass over them.
//
// The bit-for-bit contract survives splitting because:
//
//   - boundaries partition the key space, so a key group (one
//     Reducer.Reduce call) can never straddle two sub-tasks;
//   - each sub-task scans the partition's record stream in the same
//     declared (part, task) order and keeps its [lo, hi) share, so the
//     concatenation of the sub-tasks' inputs in sub order is a
//     permutation-by-range of the unsplit sequence with arrival order
//     preserved inside every range;
//   - the unsplit reducer reduces its groups in first-arrival order, the
//     order of each key's first record in that sequence. Each sub-task
//     reduces its own groups in the same relative order and knows, for
//     each, the index of its first record in the unsplit sequence
//     (reduceGroups' arrival). Its Output records, per relation, one run
//     of rows per group that added any, under that index. The merge
//     stage interleaves a split partition's sub-outputs by it — a k-way
//     merge of ascending runs, with no ties, since no group spans two
//     sub-tasks (mergeTask, interleave) — which reproduces the unsplit
//     reducer's Add sequence row for row (Output.Add only appends), so
//     relation.Merge's first-occurrence dedup keeps the same tuples in
//     the same order;
//   - per-reducer loads are folded as int64 sums over slots in slot
//     order, bit-identical to the unsplit accumulation.
//
// The split plan itself is deterministic: it is computed once at
// shufflesDone from loads and sketches merged in declared order, so
// the same job over the same data splits identically at every pool
// width. The only JobStats fields that differ from an unsplit run are
// the split observability fields (SplitReduceTasks, MaxReduceTaskMB);
// JobStats.StripSplitInfo normalizes them for differential comparison.

// reduceSlot is one scheduled reduce task: a whole reduce partition
// (lo and hi nil), or one key sub-range [lo, hi) of a split partition.
// Slots are ordered reducer-major, sub-range-minor: the output merge
// takes reducers in that order and interleaves a split reducer's
// sub-range slots by first arrival.
type reduceSlot struct {
	ri     int
	lo, hi []byte // key range [lo, hi); nil bound = unbounded
}

// split reports whether the slot is a sub-range of a split partition:
// every such slot has at least one bound (planReduceSlots cuts only at
// non-nil boundaries), a whole partition has none.
func (s reduceSlot) split() bool { return s.lo != nil || s.hi != nil }

// keyInRange reports whether key falls in [lo, hi); nil bounds are
// unbounded.
func keyInRange(key, lo, hi []byte) bool {
	if lo != nil && bytes.Compare(key, lo) < 0 {
		return false
	}
	if hi != nil && bytes.Compare(key, hi) >= 0 {
		return false
	}
	return true
}

// unsplitSlots is the slot layout with runtime splitting off: one
// full-range slot per reducer.
func unsplitSlots(r int) []reduceSlot {
	slots := make([]reduceSlot, r)
	for i := range slots {
		slots[i].ri = i
	}
	return slots
}

// planReduceSlots decides, once per job at shufflesDone, which reduce
// partitions split and at which boundaries. Every input — per-reducer
// loads and the merged sketch — is folded in declared (part, task)
// order, so the plan is a function of the job and the data alone.
func (jr *jobRun) planReduceSlots() []reduceSlot {
	r := jr.reducers
	if jr.e.cfg.SkewSplit <= 0 || r == 0 {
		return unsplitSlots(r)
	}
	loads := make([]int64, r)
	var total int64
	for part := range jr.taskParts {
		for ti := range jr.taskParts[part] {
			for ri, l := range jr.taskParts[part][ti].loads {
				loads[ri] += l
				total += l
			}
		}
	}
	if total == 0 {
		return unsplitSlots(r)
	}
	merged := newKeySketch(jr.gov.budget)
	for part := range jr.taskParts {
		for ti := range jr.taskParts[part] {
			if sk := jr.taskParts[part][ti].sketch; sk != nil {
				merged.absorb(sk)
			}
		}
	}
	mean := float64(total) / float64(r)
	slots := make([]reduceSlot, 0, r)
	for ri := 0; ri < r; ri++ {
		if float64(loads[ri]) <= jr.e.cfg.SkewSplit*mean {
			slots = append(slots, reduceSlot{ri: ri})
			continue
		}
		bounds := merged.splitBoundaries(int32(ri), jr.gov.budget)
		if len(bounds) == 0 {
			// The sketch saw no key of this reducer (possible when other
			// tasks' keys crowded it out): nothing to cut at.
			slots = append(slots, reduceSlot{ri: ri})
			continue
		}
		var lo []byte
		for _, b := range bounds {
			slots = append(slots, reduceSlot{ri: ri, lo: lo, hi: b})
			lo = b
		}
		slots = append(slots, reduceSlot{ri: ri, lo: lo})
	}
	return slots
}
