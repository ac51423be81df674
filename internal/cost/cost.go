// Package cost implements the MapReduce I/O cost model of §3.3: the
// per-input-partition model introduced by the paper (Eq. 2, "cost_gumbo")
// and the aggregate model of Wang et al. / MRShare (Eq. 3, "cost_wang").
//
// All sizes are in MB and all costs are in simulated seconds (the
// constants of Table 5 are seconds per MB). The same model produces both
// job totals (for the optimizers) and per-task durations (for the cluster
// simulator that derives net time).
package cost

import (
	"fmt"
	"math"
)

// Model selects the cost model variant.
type Model int

const (
	// Gumbo is the paper's per-partition model (Eq. 2): each uniform
	// input part contributes its own map and merge cost.
	Gumbo Model = iota
	// Wang is the MRShare/Wang et al. model (Eq. 3): map cost is computed
	// once from aggregate input and intermediate sizes.
	Wang
)

// String returns the model's paper name: "gumbo" (Eq. 2) or "wang"
// (Eq. 3).
func (m Model) String() string {
	switch m {
	case Gumbo:
		return "gumbo"
	case Wang:
		return "wang"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Config holds the cost-model constants of Table 1 with the measured
// values of Table 5, plus the engine settings they interact with.
type Config struct {
	LocalRead  float64 // lr: local disk read cost per MB
	LocalWrite float64 // lw: local disk write cost per MB
	HDFSRead   float64 // hr: hdfs read cost per MB
	HDFSWrite  float64 // hw: hdfs write cost per MB
	Transfer   float64 // t: map->reduce transfer cost per MB

	MergeFactor int     // D: external sort merge factor
	BufMapMB    float64 // buf_map: map task buffer limit (MB)
	BufRedMB    float64 // buf_red: reduce task buffer limit (MB)

	JobOverhead  float64 // cost_h: fixed cost of starting one MR job (s)
	TaskOverhead float64 // fixed startup time per task (s), net-time model

	SplitMB       float64 // input split size; mappers per part = ceil(N_i/SplitMB)
	ReducerDataMB float64 // intermediate MB allocated per reducer (§5.1: 256MB)

	MetaPerRecordBytes int // per-record map output metadata (16 bytes in Hadoop)

	// Scale records the factor applied by Scaled (1 = paper scale). It
	// converts absolute full-scale settings (e.g. Pig's 1 GB-per-reducer
	// input allocation, baseline job overheads) into scaled units.
	Scale float64
}

// Default returns the constants measured on the paper's cluster
// (Table 5) together with standard Hadoop settings from Appendix B.
func Default() Config {
	return Config{
		LocalRead:          0.03,
		LocalWrite:         0.085,
		HDFSRead:           0.15,
		HDFSWrite:          0.25,
		Transfer:           0.017,
		MergeFactor:        10,
		BufMapMB:           409,
		BufRedMB:           512,
		JobOverhead:        6.0,
		TaskOverhead:       1.0,
		SplitMB:            128,
		ReducerDataMB:      256,
		MetaPerRecordBytes: 16,
		Scale:              1,
	}
}

// Zero returns a configuration with every constant zero except those the
// caller sets afterwards; used by the Appendix A NP-hardness gadget
// ("all I/O constants equal to 0, except hr = 1").
func Zero() Config {
	return Config{MergeFactor: 10, BufMapMB: 1, BufRedMB: 1, SplitMB: 128, ReducerDataMB: 256, Scale: 1}
}

// Scaled returns a copy with every size-dependent setting (buffers,
// split size, reducer allocation) and every fixed overhead multiplied by
// f. Because all remaining cost terms are linear in data size and the
// merge-log arguments are ratios of scaled quantities, the cost of a
// workload scaled by f under Scaled(f) is exactly f times its full-scale
// cost: experiments at 1/1000 of the paper's data sizes reproduce
// full-scale behaviour precisely, and dividing simulated times by f
// recovers paper-equivalent seconds.
func (c Config) Scaled(f float64) Config {
	s := c
	s.BufMapMB *= f
	s.BufRedMB *= f
	s.SplitMB *= f
	s.ReducerDataMB *= f
	s.JobOverhead *= f
	s.TaskOverhead *= f
	if s.Scale == 0 {
		s.Scale = 1
	}
	s.Scale *= f
	return s
}

// mergePasses returns the merge factor log_D(⌈x⌉) for x initial sort
// runs, exactly as the paper's merge_map/merge_red formulas write it
// (a fractional quantity; zero when the data fits in one buffer). The
// fractional form is what lets the per-partition model price map-side
// merges that the aggregate model averages away (§5.2 "Cost Model").
func (c Config) mergePasses(x float64) float64 {
	runs := math.Ceil(x)
	if runs <= 1 || c.MergeFactor <= 1 {
		return 0
	}
	return math.Log(runs) / math.Log(float64(c.MergeFactor))
}

// Mappers returns m_i, the number of map tasks for an input part of the
// given size.
func (c Config) Mappers(inputMB float64) int {
	if c.SplitMB <= 0 {
		return 1
	}
	m := int(math.Ceil(inputMB / c.SplitMB))
	if m < 1 {
		m = 1
	}
	return m
}

// Reducers returns r derived from the intermediate data size per §5.1's
// optimization (3): one reducer per ReducerDataMB of intermediate data.
func (c Config) Reducers(interMB float64) int {
	if c.ReducerDataMB <= 0 {
		return 1
	}
	r := int(math.Ceil(interMB / c.ReducerDataMB))
	if r < 1 {
		r = 1
	}
	return r
}

// mapMergeVolume returns the map-side merge volume V_i = M_i ·
// merge-passes: the MB that flow through the external sort's local
// read+write during the map phase. MergeMap prices it at lr+lw per MB;
// the calibration fit (Fit) uses the volume directly as the feature the
// lumped lr+lw coefficient multiplies.
func (c Config) mapMergeVolume(mi, mhat float64, mappers int) float64 {
	if mi <= 0 || c.BufMapMB <= 0 {
		return 0
	}
	perMapper := (mi + mhat) / float64(mappers)
	runs := math.Ceil(perMapper / c.BufMapMB)
	return mi * c.mergePasses(runs)
}

// MergeMap computes merge_map(M_i): the sort/merge cost in the map phase
// for intermediate size mi produced by `mappers` map tasks with metadata
// size mhat (all MB).
func (c Config) MergeMap(mi, mhat float64, mappers int) float64 {
	return (c.LocalRead + c.LocalWrite) * c.mapMergeVolume(mi, mhat, mappers)
}

// MapCost computes cost_map(N_i, M_i) = hr·N_i + merge_map(M_i) + lw·M_i.
func (c Config) MapCost(ni, mi, mhat float64, mappers int) float64 {
	return c.HDFSRead*ni + c.MergeMap(mi, mhat, mappers) + c.LocalWrite*mi
}

// redMergeVolume returns the reduce-side merge volume (see
// mapMergeVolume) for total intermediate size m over r reducers.
func (c Config) redMergeVolume(m float64, reducers int) float64 {
	if m <= 0 || c.BufRedMB <= 0 || reducers < 1 {
		return 0
	}
	perReducer := m / float64(reducers)
	runs := math.Ceil(perReducer / c.BufRedMB)
	return m * c.mergePasses(runs)
}

// MergeRed computes merge_red(M) for total intermediate size m spread
// over r reducers.
func (c Config) MergeRed(m float64, reducers int) float64 {
	return (c.LocalRead + c.LocalWrite) * c.redMergeVolume(m, reducers)
}

// RedCost computes cost_red(M, K) = t·M + merge_red(M) + hw·K.
func (c Config) RedCost(m, k float64, reducers int) float64 {
	return c.Transfer*m + c.MergeRed(m, reducers) + c.HDFSWrite*k
}

// Partition describes one uniform part I_i of a job's input: the mapper
// emits the same number of key-value pairs for every tuple of the part
// (§3.3). In practice a part is (a subset of) one input relation.
type Partition struct {
	Name    string
	InputMB float64 // N_i
	InterMB float64 // M_i
	Records int64   // map output records from this part (drives M̂_i)
	Mappers int     // m_i; 0 means derive from InputMB via Config.Mappers
}

// MetaMB returns M̂_i, the map output metadata size.
func (p Partition) MetaMB(c Config) float64 {
	return float64(p.Records) * float64(c.MetaPerRecordBytes) / (1 << 20)
}

// JobSpec carries everything needed to price one MR job.
type JobSpec struct {
	Partitions []Partition
	OutputMB   float64 // K
	Reducers   int     // r; 0 means derive from intermediate size
}

// InterMB returns M = Σ M_i.
func (j JobSpec) InterMB() float64 {
	var m float64
	for _, p := range j.Partitions {
		m += p.InterMB
	}
	return m
}

// mappersFor resolves m_i.
func (c Config) mappersFor(p Partition) int {
	if p.Mappers > 0 {
		return p.Mappers
	}
	return c.Mappers(p.InputMB)
}

// reducersFor resolves r.
func (c Config) reducersFor(j JobSpec) int {
	if j.Reducers > 0 {
		return j.Reducers
	}
	return c.Reducers(j.InterMB())
}

// JobCost prices the whole job under the chosen model:
//
//	cost_h + Σ_i cost_map(N_i, M_i) + cost_red(M, K)   (Gumbo, Eq. 2)
//	cost_h + cost_map(ΣN_i, ΣM_i)   + cost_red(M, K)   (Wang, Eq. 3)
func (c Config) JobCost(m Model, j JobSpec) float64 {
	total := c.JobOverhead
	switch m {
	case Gumbo:
		for _, p := range j.Partitions {
			total += c.MapCost(p.InputMB, p.InterMB, p.MetaMB(c), c.mappersFor(p))
		}
	case Wang:
		var n, mi float64
		var records int64
		mappers := 0
		for _, p := range j.Partitions {
			n += p.InputMB
			mi += p.InterMB
			records += p.Records
			mappers += c.mappersFor(p)
		}
		if mappers < 1 {
			mappers = 1
		}
		mhat := float64(records) * float64(c.MetaPerRecordBytes) / (1 << 20)
		total += c.MapCost(n, mi, mhat, mappers)
	default:
		panic(fmt.Sprintf("cost: unknown model %v", m))
	}
	total += c.RedCost(j.InterMB(), j.OutputMB, c.reducersFor(j))
	return total
}

// TaskPlan is the job broken into individual task durations for the
// cluster simulator. Map tasks are grouped per input partition.
type TaskPlan struct {
	MapTasks    []float64 // one duration per map task
	ReduceTasks []float64 // one duration per reduce task
	Overhead    float64   // job startup (cost_h)
}

// TasksLoaded converts a job spec into per-task durations. The per-task
// cost is the partition (resp. reduce) cost divided across its tasks,
// plus the fixed task overhead; this is the granularity at which the
// cluster simulator schedules waves. reduceLoadsMB are the measured
// per-reducer loads: the total reduce cost is apportioned proportionally
// to each reducer's shuffled bytes, so key skew stretches the reduce
// wave exactly as it would on a real cluster. Nil loads, loads of the
// wrong length and all-zero loads fall back to even division.
func (c Config) TasksLoaded(j JobSpec, reduceLoadsMB []float64) TaskPlan {
	plan := TaskPlan{Overhead: c.JobOverhead}
	for _, p := range j.Partitions {
		m := c.mappersFor(p)
		per := c.MapCost(p.InputMB, p.InterMB, p.MetaMB(c), m) / float64(m)
		for i := 0; i < m; i++ {
			plan.MapTasks = append(plan.MapTasks, per+c.TaskOverhead)
		}
	}
	r := c.reducersFor(j)
	total := c.RedCost(j.InterMB(), j.OutputMB, r)
	var sum float64
	if len(reduceLoadsMB) == r {
		for _, l := range reduceLoadsMB {
			sum += l
		}
	}
	for i := 0; i < r; i++ {
		share := 1 / float64(r)
		if sum > 0 {
			share = reduceLoadsMB[i] / sum
		}
		plan.ReduceTasks = append(plan.ReduceTasks, total*share+c.TaskOverhead)
	}
	return plan
}
