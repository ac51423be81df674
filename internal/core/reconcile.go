package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// reconcile is the role table of one reconcile job — the paper's one
// operator (Algorithm 1): a fact in a request role asks, under a key,
// whether a Boolean condition over assert classes holds there; a fact
// in an assert role states, under its key, that a conditional fact of
// its class exists; the reducer ORs a key group's asserts into a bit
// set and writes the carried tuple of every request whose condition
// holds over it, followed by its verdict's flag classes (the set's
// first flags bits) as 0/1 values. MSJ, EVAL, 1-ROUND, the SEQ filter,
// the full-tuple jobs and Hive's outer-join stages are this table
// filled differently (their constructors); the mapper and the reducer
// below never ask which one filled it.
//
// Redistribution argument, in one place: a Reduce call decides a
// request from the asserts of its own key group alone, so the table is
// correct iff every request meets, at its key, every assert its
// condition reads. Roles of one stream pair (a verdict's request and
// the classes its condition names) key on the same join values, so
// they do; salting (heavy) keeps it true by sending a heavy key's
// request to one salt and replicating its asserts to all of them.
type reconcile struct {
	kind, name string
	inputs     []string     // the read set, in first-mention order
	roles      []inputRoles // what a fact of each input sends, by the input's place in inputs
	outs       map[string]int
	verdicts   []verdict        // by request verdict index
	streams    map[string]int32 // streamKey → class of the assert roles added through class
	classes    int              // assert classes: the bits of a group's set
	words      int              // the set's length in uint64 words
	// keyed: every key leads with a verdict index — the request's own,
	// the assert's of — before the role's fields (EVAL: keys are
	// (query, guard tuple id), so one query's group never sees
	// another's marks and class bits are per query).
	keyed bool
	// heavy is the set of join keys (as built by the roles, unsalted)
	// spread over saltFactor sub-keys; nil salts nothing. See skew.go.
	heavy map[string]bool
}

// inputRoles are the roles the facts of one input relation play, each
// list in the order its roles were added: a fact sends its requests,
// then its asserts.
type inputRoles struct {
	requests []requestRole
	asserts  []assertRole
}

// fields says what a role sends of a fact: a projection of the tuple
// or, with id set, the tuple's id alone.
type fields struct {
	proj sgf.Projector
	id   bool
}

// on is the projection of atom a's facts on vars.
func on(a sgf.Atom, vars []string) fields { return fields{proj: sgf.NewProjector(a, vars)} }

// AnyTuple is the conformance pattern every tuple of the given arity
// matches: distinct variables v0, v1, … and no relation symbol.
func AnyTuple(arity int) sgf.Atom {
	args := make([]sgf.Term, arity)
	for i := range args {
		args[i] = sgf.V(fmt.Sprint("v", i))
	}
	return sgf.NewAtom("", args...)
}

// wholeTuple is the identity projection at the given arity.
func wholeTuple(arity int) fields {
	a := AnyTuple(arity)
	return on(a, a.Vars())
}

func (f fields) arity() int {
	if f.id {
		return 1
	}
	return f.proj.Arity()
}

func (f fields) appendKey(dst []byte, id int, t relation.Tuple) []byte {
	if f.id {
		return relation.Value(id).AppendKey(dst)
	}
	return f.proj.AppendKey(dst, t)
}

func (f fields) appendTo(dst relation.Tuple, id int, t relation.Tuple) relation.Tuple {
	if f.id {
		return append(dst, relation.Value(id))
	}
	return f.proj.AppendTo(dst, t)
}

// request describes one request role and its verdict: facts of input
// conforming to guard send, under key, the carry fields at modelled
// size bytes; the reducer writes them to out when cond holds over the
// group's asserts, bits mapping cond's atoms (by Atom.Key) to classes,
// followed by one 0/1 value for each of classes 0..flags-1.
type request struct {
	input string
	guard sgf.Atom // conformance pattern; its relation symbol is ignored
	key   fields
	carry fields
	size  int64
	cond  sgf.Condition
	bits  map[string]int32
	flags int
	out   string
}

type requestRole struct {
	matcher sgf.Matcher
	key     fields
	verdict int32
	carry   fields
	size    int64
}

type verdict struct {
	cond  sgf.CompiledCondition
	out   string
	arity uint64 // of the carried tuple, which travels without it
	flags int    // classes written after it, as 0/1 values
}

// assertRole is one assert role: facts conforming to matcher send class
// under key (in a keyed table, behind verdict index of).
type assertRole struct {
	matcher sgf.Matcher
	key     fields
	class   int32
	of      int32
}

func newReconcile(kind, name string) *reconcile {
	return &reconcile{
		kind: kind, name: name,
		outs:    make(map[string]int),
		streams: make(map[string]int32),
	}
}

// rolesOf returns the roles of rel's facts, nil when rel is not in the
// read set. The read set is a handful of names, so finding one is a
// scan. Only table building asks: Map is told its input's position and
// indexes roles by it.
func (t *reconcile) rolesOf(rel string) *inputRoles {
	for i, name := range t.inputs {
		if name == rel {
			return &t.roles[i]
		}
	}
	return nil
}

// input returns the roles of rel's facts, adding rel to the read set on
// first mention. Roles add their own input; calling it first fixes the
// relation's place in Job.Inputs.
func (t *reconcile) input(rel string) *inputRoles {
	if roles := t.rolesOf(rel); roles != nil {
		return roles
	}
	t.inputs = append(t.inputs, rel)
	t.roles = append(t.roles, inputRoles{})
	return &t.roles[len(t.roles)-1]
}

// output declares an output relation.
func (t *reconcile) output(name string, arity int) error {
	if _, dup := t.outs[name]; dup {
		return fmt.Errorf("core: %s %s: output %s defined twice", t.kind, t.name, name)
	}
	t.outs[name] = arity
	return nil
}

// request adds a request role; its verdict index is its position among
// the table's requests.
func (t *reconcile) request(r request) error {
	cond, err := sgf.CompileCondition(r.cond, func(k string) (int, bool) {
		c, ok := r.bits[k]
		return int(c), ok
	})
	if err != nil {
		return fmt.Errorf("core: %s %s: %w", t.kind, t.name, err)
	}
	if arity, ok := t.outs[r.out]; !ok || arity != r.carry.arity()+r.flags {
		return fmt.Errorf("core: %s %s: request writes %d fields to output %s", t.kind, t.name, r.carry.arity()+r.flags, r.out)
	}
	roles := t.input(r.input)
	roles.requests = append(roles.requests, requestRole{
		matcher: sgf.NewMatcher(r.guard),
		key:     r.key,
		verdict: int32(len(t.verdicts)),
		carry:   r.carry,
		size:    r.size,
	})
	t.verdicts = append(t.verdicts, verdict{cond: cond, out: r.out, arity: uint64(r.carry.arity()), flags: r.flags})
	return nil
}

// assert adds an assert role for the facts of input.
func (t *reconcile) assert(input string, a assertRole) {
	roles := t.input(input)
	roles.asserts = append(roles.asserts, a)
	t.classes = max(t.classes, int(a.class)+1)
}

// class returns the class of the assert stream "facts of atom keyed by
// their projection on vars", adding its role on first mention: verdicts
// whose conditions read the same stream share one class and one set of
// assert messages (the conditional-name sharing of Table 2).
func (t *reconcile) class(atom sgf.Atom, vars []string) int32 {
	sk := streamKey(atom, vars)
	c, ok := t.streams[sk]
	if !ok {
		c = int32(t.classes)
		t.streams[sk] = c
		t.assert(atom.Rel, assertRole{matcher: sgf.NewMatcher(atom), key: on(atom, vars), class: c})
	}
	return c
}

// job assembles the table's MapReduce job. Inputs is its complete read
// set — every relation a role reads, deduplicated, and nothing else
// (roles are compiled from the query, never from database contents).
// The engine's pipelined scheduler relies on that to start map tasks
// over each input relation independently.
func (t *reconcile) job() *mr.Job {
	t.words = (t.classes + 63) / 64
	return &mr.Job{
		Name:    t.name,
		Inputs:  t.inputs,
		Outputs: t.outs,
		Mapper:  t,
		Reducer: t,
		Packing: true,
	}
}

// streamJob is the one-role reconcile job whose map output is a single
// stream: the requests of guard pattern a keyed on vars, each carrying a
// tuple id as MSJ's do or, with asserts set, the asserts of conditional
// pattern a keyed on vars. It does not pack; the estimator composes
// packing across a group's equations itself (MSJSpec).
func streamJob(asserts bool, a sgf.Atom, vars []string) *mr.Job {
	t := newReconcile("stream", a.Rel)
	if asserts {
		t.class(a, vars)
	} else {
		t.input(a.Rel).requests = []requestRole{{matcher: sgf.NewMatcher(a), key: on(a, vars), carry: fields{id: true}, size: reqIDBytes}}
	}
	job := t.job()
	job.Packing = false
	return job
}

// Map sends what fact f (tuple id id) of input part sends in each of its
// roles: requests, then asserts, each in table order. The job's Inputs
// is t.inputs, so part indexes roles. Keys, carried tuples and payloads
// are built append-style in stack buffers — the engine copies key and
// payload into its arena at emit, so they are reusable immediately and
// mapping allocates nothing per fact.
func (t *reconcile) Map(part int, id int, f relation.Tuple, emit *mr.Emitter) {
	roles := &t.roles[part]
	var kb [48]byte
	var ob [8]relation.Value
	for i := range roles.requests {
		r := &roles.requests[i]
		if !r.matcher.Matches(f) {
			continue
		}
		key := r.key.appendKey(t.lead(kb[:0], r.verdict), id, f)
		if t.heavy[string(key)] { // map lookup, no allocation
			key = appendSalt(key, saltOf(int64(id), saltFactor))
		}
		Request{Verdict: r.verdict, Tuple: r.carry.appendTo(ob[:0], id, f)}.Emit(emit, key, r.size)
	}
	for i := range roles.asserts {
		a := &roles.asserts[i]
		if !a.matcher.Matches(f) {
			continue
		}
		key := a.key.appendKey(t.lead(kb[:0], a.of), id, f)
		if !t.heavy[string(key)] {
			Assert{Class: a.class}.Emit(emit, key)
			continue
		}
		for s := 0; s < saltFactor; s++ {
			Assert{Class: a.class}.Emit(emit, appendSalt(key, s))
		}
	}
}

// lead starts a key: with the verdict index in a keyed table.
func (t *reconcile) lead(dst []byte, verdict int32) []byte {
	if t.keyed {
		return binary.AppendVarint(dst, int64(verdict))
	}
	return dst
}

// Reduce reconciles one key group: the asserts into a bit set, then
// every request against it, in arrival order, writing its carried tuple
// and its verdict's flag classes.
func (t *reconcile) Reduce(key []byte, msgs *mr.Group, out *mr.Output) {
	// The set lives on the stack up to 128 classes; one class per
	// distinct conditional atom makes more a rarity.
	var stack [2]uint64
	bits := stack[:]
	if t.words <= len(stack) {
		bits = bits[:t.words]
	} else {
		bits = make([]uint64, t.words)
	}
	for i := 0; i < msgs.Len(); i++ {
		if tag, p := msgs.At(i); tag == TagAssert {
			c := t.assertClass(p)
			bits[c>>6] |= 1 << (c & 63)
		}
	}
	var ob [8]relation.Value // each output fact; Output.Add copies it
	for i := 0; i < msgs.Len(); i++ {
		if tag, p := msgs.At(i); tag == TagRequest {
			v, tuple := t.requestVerdict(key, p)
			if v.cond.Eval(bits) {
				fact := decodeValues(ob[:0], tuple, v.arity, "Request")
				for c := range v.flags {
					fact = append(fact, relation.Value(bits[c>>6]>>(c&63)&1))
				}
				out.Add(v.out, fact)
			}
		}
	}
}

// assertClass decodes an Assert payload for this table: the class is
// about to be a bit position.
func (t *reconcile) assertClass(p []byte) uint {
	c := DecodeAssert(p).Class
	if c < 0 || int(c) >= t.classes {
		mr.Corrupt("Assert class")
	}
	return uint(c)
}

// requestVerdict decodes the head of a Request payload for this table
// — the verdict index is about to index the table, and in a keyed
// table the key must lead with it too — and returns the verdict and the
// payload's rest, the carried tuple's values.
func (t *reconcile) requestVerdict(key, p []byte) (*verdict, []byte) {
	v, tuple := varint(p, "Request")
	if v < 0 || v >= int64(len(t.verdicts)) {
		mr.Corrupt("Request verdict")
	}
	if t.keyed {
		if lead, n := binary.Varint(key); n <= 0 || lead != v {
			mr.Corrupt("Request key")
		}
	}
	return &t.verdicts[v], tuple
}
