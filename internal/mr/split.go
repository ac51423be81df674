package mr

import "math"

// Adaptive skew handling: runtime splitting of heavy reduce partitions.
//
// A reduce task knows its partition's modelled byte load L once it has
// gathered it, and the mean partition load is the job's map output
// bytes over r (jobRun.load, folded by foldMaps). When Config.SkewSplit
// is active and L exceeds that ratio × the mean, the partition is cut at
// group boundaries after one gather: its one reduce task gathers and
// groups it exactly as it would an unsplit partition (reduceGroups),
// marks itself split, cuts the
// groups — already in first-arrival order — into contiguous pieces of
// whole groups (cut) and spawns one reduce task per piece over the same
// grouped set, which the work-stealing pool schedules independently. The hot partition's
// reduces stop serializing the run; its gather and grouping stay in one
// task, so each of its records is decoded, and each spilled segment read
// back, once. A one-reducer task past r = 1 cuts each of its reducer
// ranges alike, and reduces the pieces itself (reduceRanges).
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
// int64 sums of record sizes, the groups are the unsplit ones — so the
// same job over the same data splits identically
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

// cut divides whole's groups, in layout order, into contiguous pieces of
// whole groups for a k-way split of its load L: a new piece starts
// before a group when the current one is not empty and the group would
// take it past L / k — (cur + l)·k > L, in int64 — and each piece
// carries its groups' modelled bytes.
func (g *groupedSet) cut(whole piece, k int64) []piece {
	var pieces []piece
	p := piece{lo: whole.lo}
	start := g.start(whole.lo)
	for gi := whole.lo; gi < whole.hi; gi++ {
		end := g.ends[g.locs[gi].first]
		var gl int64
		for _, i := range g.idx[start:end] {
			gl += g.recs[i].size
		}
		start = end
		if gi > p.lo && (p.load+gl)*k > whole.load {
			p.hi = gi
			pieces = append(pieces, p)
			p = piece{lo: gi}
		}
		p.load += gl
	}
	p.hi = whole.hi
	return append(pieces, p)
}
