package mr

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/cost"
	"repro/internal/relation"
)

// Engine executes programs of jobs. It is safe for concurrent use: Run
// only reads the database it is given (relation.Database is
// internally locked), and all per-run state is private — each run
// builds its own task graph and worker goroutines. The one thing runs
// share is the workers' task scratch (taskScratch): pointer-free arrays
// holding no key, payload or relation byte, which a run's workers borrow
// from the Engine and return, so they start at the sizes earlier runs
// grew them to. The collector empties the Engine's pool of them within
// two cycles.
//
// Execution is task-granular: a job is decomposed into map tasks,
// shuffle partition tasks, reduce partition tasks and output merge
// shards (see jobrun.go), all scheduled on one work-stealing pool of
// Config.Workers workers (pool.go). Run extends the same graph across
// jobs at relation granularity: a job's map tasks over an input start
// the moment the merge shard producing that relation completes, so
// phases of dependent jobs overlap instead of meeting at per-job
// barriers. The cluster simulator still models the paper's per-job
// schedule; host scheduling only shortens wall-clock time. The pool
// times every task once, into the run's task record (progress.go).
//
// The per-record hot path moves bytes, not objects: from the mapper to
// the reduce task's gather a shuffle record is its wire form (spill.go)
// and nothing else. Mappers emit through the concrete Emitter, which
// encodes each record once into a grow-only per-map-task arena (zero
// allocations per record) with its modelled size already final — message
// packing is decided there, against a per-worker key set — keys are
// hashed with an inlined FNV-1a, a shuffle task copies the encoded
// records into per-reducer byte segments of one buffer with counted
// two-pass placement (the layout a spill file has, so spilling is one
// write) — or, when a job predicted to have one reducer finds its
// inputs within one reducer's allocation, its one reduce task maps
// every split into its own key set and measures r — records are
// grouped once, in the reduce task, through the same key set, the groups
// in the order their keys first arrived — reducer-major in a one-reducer
// task past r = 1 — and no key sorted (group.go), a
// heavy partition's groups then cut at group boundaries into pieces
// reduced as tasks of their own (split.go) — reducers walk a view over
// the segment bytes and append output facts to unindexed row buffers,
// and job outputs merge through relation.Merge, the one place an output
// tuple is hashed and deduplicated.
// Every goroutine a run starts is a pool worker (or the pool's
// cancellation watcher): tasks never fan out on their own, so panic
// containment and cancellation cover all of the engine's concurrency.
// None of this changes what the engine computes — outputs and stats are
// bit-for-bit identical at every parallelism setting.
type Engine struct {
	cfg Config
	// scratch holds the *taskScratch of workers between runs: a runTasks
	// worker takes one when it starts and puts back the one it holds when
	// it exits; a reduce task that lends its scratch to its pieces takes
	// another, and the run returns the lent ones once its pool stops.
	scratch sync.Pool
}

// Config is the engine's whole configuration: an immutable value fixed
// at NewEngine. None of the host settings can change an answer —
// outputs and stats are bit-for-bit identical at every Workers,
// SpillThreshold and SkewSplit setting — so one engine serves every
// run of a process.
type Config struct {
	Cost cost.Config
	// Workers sizes the unified worker pool a run executes on: every
	// task of a job — and, under Run, of the whole program — shares
	// these workers. ≤ 0 = GOMAXPROCS, 1 = strictly sequential.
	Workers int
	// SpillThreshold enables shuffle spill-to-disk: a map task's shuffle
	// partition whose modelled bytes reach the threshold is written to a
	// temp file under SpillDir ("" = os.TempDir) and streamed back by
	// the reduce stage (see spill.go). ≤ 0 = spill off.
	SpillThreshold int64
	SpillDir       string
	// SkewSplit enables runtime skew splitting: after shuffle, a reduce
	// partition whose modelled bytes exceed SkewSplit × the mean
	// partition load is cut at group boundaries after one gather into
	// pieces of whole key groups, one reduce task each, scheduled
	// independently (see split.go). ≤ 0, NaN or ±Inf = splitting off;
	// 1.5 is a reasonable start (split anything half again heavier than
	// the mean).
	SkewSplit float64
}

// NewEngine returns an engine running under cfg.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg, scratch: sync.Pool{New: func() any { return new(taskScratch) }}}
}

// Config returns the configuration the engine was built with.
func (e *Engine) Config() Config { return e.cfg }

// RunOptions observes and bounds one run; the zero value does neither.
type RunOptions struct {
	// Progress, when non-nil, is the run's task record, to poll live
	// (Snapshot) or fold once the run returns (CriticalPath); one fresh
	// Progress per run. Run records every run, into a Progress of its
	// own when this is nil.
	Progress *Progress
	// Budget, when non-nil, is charged the run's bulk allocations — arena
	// chunks, shuffle partitions, merge shards, spill buffers (one fresh
	// Budget per run; see Budget).
	Budget *Budget
}

// govern bundles one run's resource-governance state: the byte budget
// the run charges (nil = unaccounted) and its spill files (nil = spill
// off).
type govern struct {
	budget *Budget
	spill  *spillSet
}

func (e *Engine) newGovern(b *Budget) govern {
	g := govern{budget: b}
	if e.cfg.SpillThreshold > 0 {
		g.spill = newSpillSet(e.cfg.SpillDir)
	}
	return g
}

func (e *Engine) workers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// mapTaskResult is the output of one map task: its arena chunks — the
// messages it emitted, in wire form, back to back — how many there are,
// how many shuffle records they count as (one per distinct key when the
// job packs) and their modelled bytes (keys + payloads).
type mapTaskResult struct {
	chunks  [][]byte
	msgs    int64
	records int64
	bytes   int64
}

// outputOrder returns declared output names sorted for determinism.
func outputOrder(outputs map[string]int) []string {
	names := make([]string, 0, len(outputs))
	for n := range outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hashKey is FNV-1a over the key bytes, inlined so hashing a record
// costs no hasher object. It must stay bit-identical to hash/fnv's
// New32a over the same bytes: shuffle partition assignments — and
// therefore the per-reducer loads the goldens pin — depend on it.
func hashKey(key []byte) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// SampleStride is the sampler's stride: Sample maps every
// SampleStride-th tuple of an input.
const SampleStride = 100

// SampleCounts is what Sample read of one input: its size in tuples, the
// tuples it mapped, and the shuffle records and modelled bytes those
// emitted. Scaling them to the whole input (by Tuples / Sampled) is the
// caller's, so every float a caller derives from them is its own.
type SampleCounts struct {
	Tuples, Sampled, Records, Bytes int64
}

// Sample runs the job's mapper over every SampleStride-th tuple of each
// input through a map task's own emit loop: the step Gumbo uses to
// estimate M_i before running a job (§5.1 opt (3)), here the planner's
// and admission's; the engine measures r. Records and bytes are what the
// job's map tasks emit, size rule and packing included — an input's
// sample shares one key set, so under packing Records counts its
// distinct keys. It charges no budget; it fails on an input not in db.
func Sample(job *Job, db *relation.Database) ([]SampleCounts, error) {
	em, sc := Emitter{}, new(taskScratch)
	counts := make([]SampleCounts, len(job.Inputs))
	for k, name := range job.Inputs {
		rel := db.Relation(name)
		if rel == nil {
			return nil, fmt.Errorf("mr: sample: unknown input relation %q", name)
		}
		n, sampled := rel.Size(), (rel.Size()+SampleStride-1)/SampleStride
		if job.Packing {
			em.keys = sc.keySet(sampled, false)
		}
		em.records, em.bytes, em.keyed = 0, 0, 0
		if c := len(em.chunks); c > 0 { // write over the last chunk
			em.chunks = append(em.chunks[:0], em.chunks[c-1][:0])
		}
		res := em.mapSplit(job, name, mapTaskSpec{rel: rel, to: n}, SampleStride)
		counts[k] = SampleCounts{Tuples: int64(n), Sampled: int64(sampled), Records: res.records, Bytes: res.bytes}
	}
	return counts, nil
}
