package core

import (
	"fmt"
	"strings"

	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// OneRoundMode classifies whether a BSGF query can be evaluated in a
// single fused MSJ+EVAL job (§5.1 optimization (4)).
type OneRoundMode int

const (
	// OneRoundInapplicable: the query needs the 2-round MSJ+EVAL plan.
	OneRoundInapplicable OneRoundMode = iota
	// OneRoundShared: all conditional atoms share one join key, so every
	// verdict for a guard fact lands on the same reducer and the full
	// Boolean condition is evaluated there (queries like A3 and B2).
	OneRoundShared
	// OneRoundDisjunctive: the condition is a pure disjunction of
	// (possibly negated) atoms; each literal is decidable at its own
	// join key and the union of per-key emissions realizes the OR.
	OneRoundDisjunctive
)

func (m OneRoundMode) String() string {
	switch m {
	case OneRoundShared:
		return "shared-key"
	case OneRoundDisjunctive:
		return "disjunctive"
	default:
		return "inapplicable"
	}
}

// joinSig is the ordered join-variable signature of an atom w.r.t. a
// guard.
func joinSig(guard, atom sgf.Atom) string {
	return strings.Join(sgf.SharedVars(guard, atom), "\x00")
}

// OneRoundApplicable reports how (and whether) q can run as one job.
func OneRoundApplicable(q *sgf.BSGF) OneRoundMode {
	atoms := q.CondAtoms()
	if len(atoms) == 0 {
		return OneRoundInapplicable
	}
	sig := joinSig(q.Guard, atoms[0])
	shared := sig != ""
	for _, a := range atoms[1:] {
		if joinSig(q.Guard, a) != sig {
			shared = false
			break
		}
	}
	if shared {
		return OneRoundShared
	}
	if isLiteralDisjunction(q.Where) {
		return OneRoundDisjunctive
	}
	return OneRoundInapplicable
}

// AllOneRound reports whether every query can run as one job — the
// precondition of the 1-ROUND strategy.
func AllOneRound(queries []*sgf.BSGF) bool {
	for _, q := range queries {
		if OneRoundApplicable(q) == OneRoundInapplicable {
			return false
		}
	}
	return true
}

// isLiteralDisjunction reports whether c is a single literal or a
// disjunction of literals (atoms or negated atoms).
func isLiteralDisjunction(c sgf.Condition) bool {
	isLiteral := func(x sgf.Condition) bool {
		switch v := x.(type) {
		case sgf.AtomCond:
			return true
		case sgf.Not:
			_, ok := v.C.(sgf.AtomCond)
			return ok
		default:
			return false
		}
	}
	switch v := c.(type) {
	case sgf.Or:
		for _, x := range v.Cs {
			if !isLiteral(x) {
				return false
			}
		}
		return true
	default:
		return isLiteral(c)
	}
}

// literalsOf extracts the literals of a literal disjunction.
func literalsOf(c sgf.Condition) []Literal {
	switch v := c.(type) {
	case sgf.Or:
		var out []Literal
		for _, x := range v.Cs {
			out = append(out, literalsOf(x)...)
		}
		return out
	case sgf.Not:
		return []Literal{{Atom: v.C.(sgf.AtomCond).Atom, Negated: true}}
	case sgf.AtomCond:
		return []Literal{{Atom: v.Atom}}
	default:
		panic(fmt.Sprintf("core: not a literal disjunction: %T", c))
	}
}

// NewOneRoundJob builds the fused single-round job evaluating every
// query in one MapReduce job. Every query must be 1-round applicable.
func NewOneRoundJob(name string, queries []*sgf.BSGF) (*mr.Job, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("core: 1-round job %s has no queries", name)
	}
	outs := make(map[string]int, len(queries))
	var inputs []string
	seenInput := make(map[string]bool)
	addInput := func(rel string) {
		if !seenInput[rel] {
			seenInput[rel] = true
			inputs = append(inputs, rel)
		}
	}

	// Shared assert classes across all queries.
	type assertClass struct {
		rel     string
		matcher sgf.Matcher
		proj    sgf.Projector
	}
	var classes []assertClass
	classKeys := make(map[string]int32)
	classFor := func(guard, atom sgf.Atom) int32 {
		joinVars := sgf.SharedVars(guard, atom)
		ck := sgf.Atom.Key(atom) + "@"
		for _, p := range atom.VarPositions(joinVars) {
			ck += fmt.Sprintf("%d,", p)
		}
		if ci, ok := classKeys[ck]; ok {
			return ci
		}
		ci := int32(len(classes))
		classKeys[ck] = ci
		classes = append(classes, assertClass{
			rel:     atom.Rel,
			matcher: sgf.NewMatcher(atom),
			proj:    sgf.NewProjector(atom, joinVars),
		})
		return ci
	}

	// Per-query request groups: guard emissions keyed per distinct join
	// signature; in shared mode there is exactly one group.
	type reqGroup struct {
		proj     sgf.Projector // guard join-key projection
		literals []struct {
			class   int32
			negated bool
			atomKey string
		}
	}
	type querySpec struct {
		mode    OneRoundMode
		matcher sgf.Matcher
		project sgf.Projector
		groups  []reqGroup
		cond    sgf.Condition
		// condBits is the shared-mode condition compiled over the
		// class-index truth mask (bit = assert class); nil when the job
		// exceeds 64 classes and the reducer uses the truth-map path.
		condBits func(mask uint64) bool
		classOf  map[string]int32 // atom key -> class (shared mode truth lookup)
		outName  string
	}
	qspecs := make([]querySpec, len(queries))

	for qi, q := range queries {
		mode := OneRoundApplicable(q)
		if mode == OneRoundInapplicable {
			return nil, fmt.Errorf("core: query %s is not 1-round applicable", q.Name)
		}
		if _, dup := outs[q.Name]; dup {
			return nil, fmt.Errorf("core: 1-round job %s: output %s defined twice", name, q.Name)
		}
		outs[q.Name] = q.OutArity()
		addInput(q.Guard.Rel)
		spec := querySpec{
			mode:    mode,
			matcher: sgf.NewMatcher(q.Guard),
			project: sgf.NewProjector(q.Guard, q.Select),
			cond:    q.Where,
			classOf: make(map[string]int32),
			outName: q.Name,
		}
		if mode == OneRoundShared {
			atoms := q.CondAtoms()
			g := reqGroup{proj: sgf.NewProjector(q.Guard, sgf.SharedVars(q.Guard, atoms[0]))}
			for _, a := range atoms {
				ci := classFor(q.Guard, a)
				spec.classOf[a.Key()] = ci
				addInput(a.Rel)
			}
			spec.groups = []reqGroup{g}
		} else {
			bySig := make(map[string]int)
			for _, l := range literalsOf(q.Where) {
				sig := joinSig(q.Guard, l.Atom)
				gi, ok := bySig[sig]
				if !ok {
					gi = len(spec.groups)
					bySig[sig] = gi
					spec.groups = append(spec.groups, reqGroup{
						proj: sgf.NewProjector(q.Guard, sgf.SharedVars(q.Guard, l.Atom)),
					})
				}
				ci := classFor(q.Guard, l.Atom)
				spec.groups[gi].literals = append(spec.groups[gi].literals, struct {
					class   int32
					negated bool
					atomKey string
				}{class: ci, negated: l.Negated, atomKey: l.Atom.Key()})
				addInput(l.Atom.Rel)
			}
		}
		qspecs[qi] = spec
	}

	// Precompile mapper roles per input.
	type guardRole struct {
		q int32
	}
	guardRoles := make(map[string][]guardRole)
	for qi, q := range queries {
		guardRoles[q.Guard.Rel] = append(guardRoles[q.Guard.Rel], guardRole{q: int32(qi)})
	}
	assertRoles := make(map[string][]int32)
	for ci, c := range classes {
		assertRoles[c.rel] = append(assertRoles[c.rel], int32(ci))
	}

	mapper := mr.MapperFunc(func(input string, id int, t relation.Tuple, emit *mr.Emitter) {
		var kb [32]byte          // append-style shuffle keys, see NewMSJJob
		var ob [8]relation.Value // the projected output; Emit copies it
		for _, gr := range guardRoles[input] {
			spec := &qspecs[gr.q]
			if !spec.matcher.Matches(t) {
				continue
			}
			out := spec.project.AppendTo(ob[:0], t)
			for di := range spec.groups {
				ReqTuple{Q: gr.q, Disjunct: int32(di), Out: out}.Emit(emit, spec.groups[di].proj.AppendKey(kb[:0], t))
			}
		}
		for _, ci := range assertRoles[input] {
			c := &classes[ci]
			if c.matcher.Matches(t) {
				Assert{Class: ci}.Emit(emit, c.proj.AppendKey(kb[:0], t))
			}
		}
	})

	// Compile shared-mode conditions over the class-index bitmask; with
	// at most 64 assert classes the reducer reconciles without a map.
	useBits := len(classes) <= 64
	if useBits {
		for qi := range qspecs {
			spec := &qspecs[qi]
			if spec.mode != OneRoundShared {
				continue
			}
			spec.condBits = sgf.CompileCondition(spec.cond, func(k string) (int, bool) {
				ci, ok := spec.classOf[k]
				return int(ci), ok
			})
			if spec.condBits == nil {
				useBits = false
				break
			}
		}
	}

	reducer := mr.ReducerFunc(func(key []byte, msgs *mr.Group, out *mr.Output) {
		var ob [8]relation.Value // each request's output fact; Output.Add copies it
		if useBits {
			var asserted uint64
			for i := 0; i < msgs.Len(); i++ {
				if tag, p := msgs.At(i); tag == TagAssert {
					asserted |= uint64(1) << uint(DecodeAssert(p).Class)
				}
			}
			for i := 0; i < msgs.Len(); i++ {
				tag, p := msgs.At(i)
				if tag != TagReqTuple {
					continue
				}
				r := DecodeReqTuple(ob[:0], p)
				spec := &qspecs[r.Q]
				if spec.mode == OneRoundShared {
					if spec.condBits(asserted) {
						out.Add(spec.outName, r.Out)
					}
					continue
				}
				// Disjunctive: emit if any literal of this key group holds.
				for _, l := range spec.groups[r.Disjunct].literals {
					if (asserted&(uint64(1)<<uint(l.class)) != 0) != l.negated {
						out.Add(spec.outName, r.Out)
						break
					}
				}
			}
			return
		}
		var asserted map[int32]bool
		for i := 0; i < msgs.Len(); i++ {
			if tag, p := msgs.At(i); tag == TagAssert {
				if asserted == nil {
					asserted = make(map[int32]bool, 4)
				}
				asserted[DecodeAssert(p).Class] = true
			}
		}
		for i := 0; i < msgs.Len(); i++ {
			tag, p := msgs.At(i)
			if tag != TagReqTuple {
				continue
			}
			r := DecodeReqTuple(ob[:0], p)
			spec := &qspecs[r.Q]
			if spec.mode == OneRoundShared {
				ok := sgf.EvalCondition(spec.cond, truthOf(spec.classOf, asserted))
				if ok {
					out.Add(spec.outName, r.Out)
				}
				continue
			}
			// Disjunctive: emit if any literal of this key group holds.
			for _, l := range spec.groups[r.Disjunct].literals {
				if asserted[l.class] != l.negated {
					out.Add(spec.outName, r.Out)
					break
				}
			}
		}
	})

	return &mr.Job{
		Name:    name,
		Inputs:  inputs,
		Outputs: outs,
		Mapper:  mapper,
		Reducer: reducer,
		Packing: true,
	}, nil
}

// truthOf adapts the asserted-class set to the atom-key truth map that
// sgf.EvalCondition consumes.
func truthOf(classOf map[string]int32, asserted map[int32]bool) map[string]bool {
	truth := make(map[string]bool, len(classOf))
	for k, ci := range classOf {
		truth[k] = asserted[ci]
	}
	return truth
}
