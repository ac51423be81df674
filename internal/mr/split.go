package mr

import "math"

// Adaptive skew handling: runtime splitting of heavy reduce partitions.
//
// After the shuffle stage the engine knows every reduce partition's
// modelled byte load (taskPartition.loads, summed in declared order).
// When Config.SkewSplit is active and a partition's load L exceeds that
// ratio × the mean partition load, the partition is cut at group
// boundaries after one gather: its one reduce task gathers and groups it
// exactly as it would an unsplit partition (reduceGroups), cuts the
// groups — already in first-arrival order — into contiguous pieces of
// whole groups (cut) and spawns one reduce task per piece over the same
// grouped set, which the work-stealing pool schedules independently. The hot partition's
// reduces stop serializing the run; its gather and grouping stay in one
// task, so each of its records is decoded, and each spilled segment read
// back, once.
//
// The cut has no knob. A heavy partition gets k = ⌈L / (ratio × mean)⌉
// and a piece ends before the group that would take it past L / k, so
// every piece is at most L / k unless it is a single group — a hot key's
// group gets a piece to itself — and any two consecutive pieces together
// exceed L / k, so a partition ends with at most 2k − 1 pieces and a job
// with O(r / ratio) reduce tasks. A heavy partition of one group stays
// whole.
//
// The bit-for-bit contract survives splitting because:
//
//   - every group lies whole in one piece, so one Reducer.Reduce call
//     sees all of its key's messages — the one condition a split must
//     keep (Geck et al., PAPERS.md);
//   - the pieces split the unsplit group sequence in order, so the merge
//     stage, concatenating their Outputs in piece order (mergeTask), sees
//     the unsplit reducer's Add sequence row for row, and relation.Merge's
//     first-occurrence dedup keeps the same tuples in the same order;
//   - per-reducer loads are folded as int64 sums over pieces in piece
//     order, bit-identical to the unsplit accumulation.
//
// The cut is a function of the job and the data alone — k comes from
// loads folded in declared (part, task) order, the groups are the
// unsplit ones — so the same job over the same data splits identically
// at every pool width. The only JobStats fields that differ from an
// unsplit run are the split observability fields (SplitReduceTasks,
// MaxReduceTaskMB); JobStats.StripSplitInfo normalizes them for
// differential comparison.

// piece is one reduce task's share of a reducer: groups [lo, hi) of the
// reducer's grouped set, in first-arrival order, their modelled bytes,
// and the Output the task filled.
type piece struct {
	lo, hi int
	load   int64
	out    *Output
}

// splitWays returns, per reducer, the k its partition is cut for (ways),
// from the loads and record counts the shuffle left, folded in declared
// (part, task) order.
func (jr *jobRun) splitWays() []int64 {
	r := jr.reducers
	ways := make([]int64, r)
	if jr.e.cfg.SkewSplit <= 0 {
		return ways
	}
	loads, counts := make([]int64, r), make([]int64, r)
	var total int64
	for part := range jr.taskParts {
		for ti := range jr.taskParts[part] {
			tp := &jr.taskParts[part][ti]
			for ri, l := range tp.loads {
				loads[ri] += l
				total += l
				counts[ri] += int64(tp.segs[ri].count)
			}
		}
	}
	mean := float64(total) / float64(r)
	for ri, l := range loads {
		ways[ri] = jr.ways(l, counts[ri], mean)
	}
	return ways
}

// ways is the k a partition of load l and count records is cut for,
// against the mean partition load: 0 for a partition that is not heavy,
// as every partition is with splitting off. A partition is heavy when
// its load exceeds SkewSplit × the mean, a test no NaN or infinite ratio
// passes. k is capped at the partition's record count, which no cut can
// exceed, so a ratio so small that ratio × mean rounds to zero still
// yields a finite k.
func (jr *jobRun) ways(l, count int64, mean float64) int64 {
	ratio := jr.e.cfg.SkewSplit
	if ratio <= 0 {
		return 0
	}
	limit := ratio * mean
	if float64(l) > limit {
		return int64(min(math.Ceil(float64(l)/limit), float64(count)))
	}
	return 0
}

// cut divides the set's groups, in first-arrival order, into contiguous
// pieces of whole groups for a k-way split of its load L: a new piece
// starts before a group when the current one is not empty and the group
// would take it past L / k — (cur + l)·k > L, in int64 — and each piece
// carries its groups' modelled bytes.
func (g *groupedSet) cut(k int64) []piece {
	var pieces []piece
	var p piece
	var start int32
	for gi, l := range g.locs {
		end := g.ends[l.first]
		var gl int64
		for _, i := range g.idx[start:end] {
			gl += g.recs[i].size
		}
		start = end
		if gi > p.lo && (p.load+gl)*k > g.load {
			p.hi = gi
			pieces = append(pieces, p)
			p = piece{lo: gi}
		}
		p.load += gl
	}
	p.hi = len(g.locs)
	return append(pieces, p)
}
