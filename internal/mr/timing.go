package mr

// JobTiming aggregates the measured host wall-clock spent inside one
// job's task units, by task kind. Each field sums the durations of that
// kind's tasks (CPU-seconds of work, not the job's elapsed span: with a
// multi-worker pool, tasks overlap). The sums are what cost-model
// calibration consumes — the engine's per-task work is what the paper's
// per-MB constants price, and summed task time is close to invariant
// across pool widths while the elapsed span is not.
//
// Timings are measurements of the host, not modelled quantities: they
// vary run to run and are deliberately kept out of JobStats, whose
// bit-for-bit determinism contract (identical at every pool width) the
// golden and differential tests pin.
type JobTiming struct {
	Name           string
	MapSeconds     float64 // map tasks (mapper over one split; Emit encodes and packs)
	ShuffleSeconds float64 // shuffle partition tasks (counted two-pass placement; near zero at r = 1, where the arena is handed over)
	ReduceSeconds  float64 // reduce partition tasks (gather through the key set, sort the distinct keys, scatter, reduce)
	MergeSeconds   float64 // output merge shards (relation.Merge, publish)
	// SplitSeconds is the share of ReduceSeconds spent in sub-range
	// reduce tasks created by the runtime skew splitter — a subset, not
	// an additional kind, so TotalSeconds is unaffected by splitting.
	SplitSeconds float64
}

// TotalSeconds returns the summed task time of all four kinds.
func (t JobTiming) TotalSeconds() float64 {
	return t.MapSeconds + t.ShuffleSeconds + t.ReduceSeconds + t.MergeSeconds
}
