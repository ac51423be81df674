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
	"slices"

	"repro/internal/relation"
)

// Emitter is the map-side output sink, one per map task (and one for
// all the inputs Sample maps). Emit writes each record straight into the task's
// grow-only byte arena in the shuffle wire form (spill.go: lengths,
// modelled size, tag, key, payload) — the form the shuffle task lays out
// by reducer over the same chunks and the reduce task decodes — so a map task's
// output is its chunks and three counters, and no per-record object
// exists before the reduce task's gather. In a one-reducer task Emit
// also writes the record array the task reduces, and the arena gets
// payload bytes and each distinct key's bytes once: the array entry
// holds what the header would.
// A mapper builds key and payload in reused stack buffers
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
	// chunks is the arena: encoded records back to back, len = bytes
	// used. In a one-reducer task it is every buffer of the task's record
	// set, one ladder over all of its splits.
	chunks [][]byte
	budget *Budget
	free   *[arenaRungs + 1][][]byte // a staged map task's: its worker's free rungs (open, seal); else nil
	keys   *keySet                   // the keys emitted so far, when the job packs or the task is a one-reducer one; else nil

	// grouped, stamps, split and pack are a one-reducer task's (Emit):
	// its record array, the last split each key group was charged in,
	// this split's number, and whether the job packs. grouped is nil in
	// a map task.
	grouped *[]record
	stamps  []int32
	split   int32
	pack    bool

	records, bytes int64 // emitted so far
	keyed          int64 // the records among them charged with their key's bytes, under packing
}

// Mapper processes one input fact: tuple id of input Job.Inputs[part].
// The engine passes the input's position, not its name, so a mapper that
// keeps per-input state indexes it and compares no strings per fact. The
// same Mapper instance is used concurrently by multiple map tasks and
// must be stateless or internally synchronized. The tuple is a read-only
// view into the input relation (see relation.Relation.Tuple): it may be
// kept, and must be copied before being modified.
type Mapper interface {
	Map(part int, id int, t relation.Tuple, emit *Emitter)
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(part int, id int, t relation.Tuple, emit *Emitter)

// Map implements Mapper.
func (f MapperFunc) Map(part int, id int, t relation.Tuple, emit *Emitter) {
	f(part, id, t, emit)
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
// key of a reduce partition, in first-arrival order — the order in which
// each key's first message appears in the partition's stream, map tasks
// in declared (input, task) order — with the key's messages in arrival
// order. The same Reducer instance is used concurrently by multiple
// reduce tasks. The key, the group and every payload it hands out are
// owned by the engine: they point into shuffle buffers that are reused or
// released after Reduce returns, so implementations must not mutate or
// retain them (copy the key if needed; decoded values are copies and may
// be kept). This contract is guarded for every production reducer by
// TestReducersRetainNothing (internal/exec); docs/INVARIANTS.md has the
// fix recipes.
type Reducer interface {
	Reduce(key []byte, msgs *Group, out *Output)
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key []byte, msgs *Group, out *Output)

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key []byte, msgs *Group, out *Output) { f(key, msgs, out) }

// Output collects reducer output facts for the job's declared
// relations. One Output is private to each reduce task; task outputs are
// merged in reducer order — a split partition's in piece order — after
// the job, keeping runs deterministic. A task's Output is a bag: Add
// appends each fact to an unindexed buffer (relation.Rows), duplicates
// included, and the job's output merge (mergeTask, relation.Merge) is
// the one place facts are hashed and deduplicated, so set semantics hold
// at the job output.
//
// A job's only piece appends straight into the buffers Merge adopts, as
// does a one-reducer task, which reduces every piece itself. A reduce
// task's piece of a job with more than one adds its facts into its
// worker's run-scoped staging (poolCtx.out), one slice per declared
// output, and keeps exact copies when it ends (seal): Merge copies such
// buffers once more, so growth slack in them would be allocated for
// nothing.
type Output struct {
	names []string           // the job's declared outputs, sorted
	arity []int              // per name
	rows  []*relation.Rows   // per name; nil until the first Add to it, or until seal when staged
	stage [][]relation.Value // per name: the worker's staging, when the piece is staged; else nil
	last  int                // the name the previous Add went to
}

// newOutput returns a reduce task's Output for the declared outputs
// names (sorted) of the given arities, adding into stage, when non-nil,
// until seal.
func newOutput(names []string, arity []int, stage [][]relation.Value) *Output {
	return &Output{names: names, arity: arity, rows: make([]*relation.Rows, len(names)), stage: stage}
}

// Add appends a copy of the fact to the named output relation's buffer,
// so t may be scratch the reducer reuses. The relation must be declared
// in the job's Outputs map. Add hashes nothing: it finds the buffer by
// comparing name with the one the previous Add used, then by a scan of
// the declared names.
func (o *Output) Add(name string, t relation.Tuple) {
	i := o.last // a valid program declares at least one output
	if o.names[i] != name {
		if i = slices.Index(o.names, name); i < 0 {
			panic(fmt.Sprintf("mr: output relation %q not declared by the job", name))
		}
		o.last = i
	}
	if o.stage != nil {
		if len(t) != o.arity[i] {
			panic(fmt.Sprintf("mr: adding a tuple of arity %d to output %q of arity %d", len(t), name, o.arity[i]))
		}
		o.stage[i] = append(o.stage[i], t...)
		return
	}
	rows := o.rows[i]
	if rows == nil {
		rows = relation.NewRows(o.arity[i])
		o.rows[i] = rows
	}
	rows.Append(t)
}

// seal ends a staged Output: each output's staged rows are copied into a
// buffer of exactly their length, and the staging is emptied for the
// worker's next piece.
func (o *Output) seal() {
	for i, vals := range o.stage {
		if len(vals) > 0 {
			o.rows[i] = relation.RowsOf(o.arity[i], append(make([]relation.Value, 0, len(vals)), vals...))
		}
		o.stage[i] = vals[:0]
	}
	o.stage = nil
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
	// The mapper is told a fact's input by its position here (Mapper.Map's
	// part), so the order is part of the job: a mapper indexes its
	// per-input state by it.
	Inputs  []string
	Outputs map[string]int // declared output relations: name → arity

	Mapper  Mapper
	Reducer Reducer

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

	// reducers fixes r, which only this package's tests do; 0 derives it
	// per §5.1 optimization (3) from the intermediate size measured after
	// the job's last split is mapped, by a map task or a one-reducer
	// task, not from a sample as Gumbo does.
	reducers int
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
