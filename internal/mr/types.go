// Package mr implements an in-process, deterministic MapReduce engine
// modelled on Hadoop MR (§3.2, Figure 1): read → map → (combine/pack) →
// sort → shuffle → merge → reduce → write. Jobs run for real over real
// relations — outputs are exact — while the engine measures the byte
// quantities the cost model needs (per-input N_i, M_i, record counts,
// output K) and the four paper metrics (input bytes, communication
// bytes; net/total time are derived by internal/cluster from the cost
// model applied to these measurements).
//
// This engine is the substitute for the paper's 10-node Hadoop cluster:
// byte volumes are measured, times are modelled (docs/ARCHITECTURE.md
// maps each paper section to the package standing in for it).
package mr

import (
	"fmt"

	"repro/internal/relation"
)

// Emitter is the map-side output sink, one per map task (and per input
// Sample maps). Emit writes each record straight into the task's
// grow-only byte arena in the shuffle wire form (spill.go: lengths, modelled size, tag, key,
// payload) — the form the shuffle task copies into a reducer's segment
// and the reduce task decodes — so a map task's output is its chunks and
// three counters, and no per-record object exists before the reduce
// task's gather. A mapper builds key and payload in reused stack buffers
// (Tuple.AppendKey / sgf.Projector.AppendKey for keys, the typed
// encoders of internal/core for payloads) and emitting allocates nothing
// per record. The method is concrete — no interface value, no function
// value on the storing path — so neither buffer escapes to the heap.
//
// tag names the payload's type to the job's reducer; the engine never
// interprets tag or payload. size is the message's modelled serialized
// size in bytes, the unit of the intermediate-data accounting (M_i):
// the record is charged keyBytes(key) + size, whatever its encoded
// length — or, when the job packs (§5.1 opt. 1), size alone unless it is
// the first the task emits under its key: Emit asks the worker's key set
// before it encodes, so the size on the wire is final.
//
// Ownership: both slices are the caller's again when Emit returns.
type Emitter struct {
	chunks [][]byte // the arena: encoded records back to back, len = bytes used
	budget *Budget
	keys   *keySet // the keys emitted so far, when the job packs; else nil

	records, bytes int64 // emitted so far; the keys among them are len(keys.locs)
}

// Mapper processes one input fact. The same Mapper instance is used
// concurrently by multiple map tasks and must be stateless or internally
// synchronized. The tuple is a read-only view into the input relation
// (see relation.Relation.Tuple): it may be kept, and must be copied
// before being modified.
type Mapper interface {
	Map(input string, id int, t relation.Tuple, emit *Emitter)
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(input string, id int, t relation.Tuple, emit *Emitter)

// Map implements Mapper.
func (f MapperFunc) Map(input string, id int, t relation.Tuple, emit *Emitter) {
	f(input, id, t, emit)
}

// Group is a reducer's view of one key group: the (tag, payload) pairs
// of the key's messages in arrival order. It is an index over the
// reduce task's shuffle buffers — walking it allocates nothing and can
// be restarted any number of times.
type Group struct {
	set *recordSet
	run []int32 // the group's records, ascending = arrival order
}

// Len returns the number of messages in the group.
func (g *Group) Len() int { return len(g.run) }

// At returns the i-th message. The payload aliases the shuffle buffer:
// decode it (internal/core's typed decoders return copies), never
// retain it.
func (g *Group) At(i int) (tag byte, payload []byte) {
	id := int(g.run[i])
	return g.set.recs[id].tag, g.set.payload(id)
}

// Corrupt aborts the calling task: the run fails with an error wrapping
// ErrSpill. Payload decoders call it on bytes that do not decode — a
// payload is written and read by the same process, so this is a damaged
// spill file, never a fault of the query.
func Corrupt(what string) {
	panic(taskAbort{err: fmt.Errorf("%w: corrupt %s", ErrSpill, what)})
}

// Reducer processes one key group. Reduce is called once per distinct
// key of a reduce partition, in ascending key order, with the key's
// messages in arrival order. The same Reducer instance is used
// concurrently by multiple reduce tasks. The key, the group and every
// payload it hands out are owned by the engine: they point into shuffle
// buffers that are reused or released after Reduce returns, so
// implementations must not mutate or retain them (copy the key if
// needed; decoded values are copies and may be kept). This contract is
// guarded for every production reducer by TestReducersRetainNothing
// (internal/exec); docs/INVARIANTS.md has the fix recipes.
type Reducer interface {
	Reduce(key []byte, msgs *Group, out *Output)
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key []byte, msgs *Group, out *Output)

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key []byte, msgs *Group, out *Output) { f(key, msgs, out) }

// Output collects reducer output facts into named relations. One Output
// is private to each reduce task; task outputs are merged in task order
// after the job, keeping runs deterministic.
type Output struct {
	arities map[string]int
	rels    map[string]*relation.Relation
	order   []string
}

func newOutput(arities map[string]int) *Output {
	return &Output{arities: arities, rels: make(map[string]*relation.Relation)}
}

// Add appends a copy of the fact to the named output relation, so t may
// be scratch the reducer reuses. The relation must be declared in the
// job's Outputs map.
func (o *Output) Add(name string, t relation.Tuple) {
	r, ok := o.rels[name]
	if !ok {
		arity, declared := o.arities[name]
		if !declared {
			panic(fmt.Sprintf("mr: output relation %q not declared by the job", name))
		}
		r = relation.New(name, arity)
		o.rels[name] = r
		o.order = append(o.order, name)
	}
	r.Add(t)
}

// Job describes one MapReduce job.
type Job struct {
	Name string
	// Inputs is the job's declared read set, one entry per input
	// relation. The declaration must be complete and exact: the engine
	// feeds the mapper only these relations, and the pipelined program
	// scheduler wires producer→consumer edges per input from it
	// (Program.ReadSets) — map tasks over input k start as soon as
	// relation Inputs[k] exists, possibly while the job's other inputs
	// are still being produced. A mapper or reducer must therefore
	// never consult relations outside the declared set (closures over
	// relation data captured at plan time would break the scheduling
	// contract; the strategy suites and TestReducersRetainNothing catch both).
	Inputs  []string
	Outputs map[string]int // declared output relations: name → arity

	Mapper  Mapper
	Reducer Reducer

	// Reducers fixes r; 0 derives it per §5.1 optimization (3) from the
	// intermediate size measured after the job's last map task, not from
	// a sample as Gumbo does (ROADMAP: "The reducer count is decided
	// before the map phase" makes it sampled).
	Reducers int

	// Packing enables the message-packing optimization (§5.1 opt (1)):
	// the messages one map task emits under one key travel as one
	// record, the key charged once.
	Packing bool

	// ReducerInputMB, when positive, derives the reducer count from map
	// input size at this many full-scale MB per reducer, rather than
	// from intermediate size at the engine config's allocation: Pig's
	// policy of 1 GB of map input per reducer (§5.2).
	ReducerInputMB float64

	// InflateIntermediate multiplies modelled intermediate sizes
	// (serialization overhead of baseline systems; 1.0 = none, 0 = 1.0).
	InflateIntermediate float64

	// TimeFactor multiplies the derived task durations (execution-speed
	// handicap of baseline engines; 1.0 = none, 0 = 1.0). It does not
	// affect byte metrics.
	TimeFactor float64

	// ExtraOverheadSec adds per-job startup latency in full-scale
	// seconds (e.g. Hive query compilation); it is multiplied by the
	// cost configuration's Scale at simulation time.
	ExtraOverheadSec float64
}

// validate checks the job is runnable. The program scheduler validates
// every job before building the task graph, so failures are
// deterministic (lowest declared index) rather than schedule-dependent.
func (j *Job) validate() error {
	if j.Mapper == nil || j.Reducer == nil {
		return fmt.Errorf("mr: job %s lacks a mapper or reducer", j.Name)
	}
	return nil
}

// keyBytes is the modelled size of a shuffle key. Keys are encoded
// tuples (relation.Tuple.Key), whose physical encoding is compact; the
// cost model charges the same 10 bytes/field the relations use, which we
// approximate by the actual encoded key length rounded up to at least
// 2 bytes.
func keyBytes(key []byte) int64 {
	n := int64(len(key))
	if n < 2 {
		n = 2
	}
	return n
}
