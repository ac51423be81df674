package core

import (
	"fmt"

	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// NewMSJJob builds the single MapReduce job MSJ(S) of Algorithm 1,
// evaluating every semi-join equation of eqs at once. The mapper emits,
// for each guard-conforming fact, one request message per equation
// (keyed by the equation's join-key projection) and, for each
// conditional-conforming fact, one assert message per distinct assert
// class. The reducer reconciles requests with asserts and writes guard
// tuple ids to the equations' output relations.
//
// Gumbo's optimizations are applied: message packing (opt 1), tuple-id
// references (opt 2), and intermediate-size-based reducer allocation
// (opt 3, inside the engine). Shared conditional atoms across equations
// produce one assert stream instead of several.
//
// The job's Inputs list is its complete read set — every guard and
// conditional relation, deduplicated, and nothing else (the mapper's
// per-input roles are compiled from the equations, never from database
// contents). The engine's pipelined scheduler relies on that to start
// map tasks over each input relation independently (Plan.InputDeps).
func NewMSJJob(name string, eqs []Equation) (*mr.Job, error) {
	if len(eqs) == 0 {
		return nil, fmt.Errorf("core: MSJ job %s has no equations", name)
	}
	outs := make(map[string]int, len(eqs))
	for _, e := range eqs {
		if _, dup := outs[e.Out]; dup {
			return nil, fmt.Errorf("core: MSJ job %s: output %s defined twice", name, e.Out)
		}
		outs[e.Out] = 1
	}
	for _, e := range eqs {
		if e.Guard.Rel == e.Out || e.Cond.Rel == e.Out {
			return nil, fmt.Errorf("core: MSJ job %s: output %s occurs in a right-hand side", name, e.Out)
		}
	}

	// Assert classes: distinct (conditional atom, join projection) pairs.
	classOf := make([]int32, len(eqs)) // equation -> assert class
	classKeys := make(map[string]int32)
	type assertClass struct {
		rel     string
		matcher sgf.Matcher
		proj    sgf.Projector
	}
	var classes []assertClass
	for i, e := range eqs {
		ck := e.AssertClassKey()
		ci, ok := classKeys[ck]
		if !ok {
			ci = int32(len(classes))
			classKeys[ck] = ci
			classes = append(classes, assertClass{
				rel:     e.Cond.Rel,
				matcher: sgf.NewMatcher(e.Cond),
				proj:    sgf.NewProjector(e.Cond, e.JoinVars),
			})
		}
		classOf[i] = ci
	}

	// Per-input roles, precompiled.
	type guardRole struct {
		eq      int32
		matcher sgf.Matcher
		proj    sgf.Projector
	}
	guardRoles := make(map[string][]guardRole)
	assertRoles := make(map[string][]int32) // input -> class indices
	var inputs []string
	seen := make(map[string]bool)
	addInput := func(rel string) {
		if !seen[rel] {
			seen[rel] = true
			inputs = append(inputs, rel)
		}
	}
	for i, e := range eqs {
		addInput(e.Guard.Rel)
		guardRoles[e.Guard.Rel] = append(guardRoles[e.Guard.Rel], guardRole{
			eq:      int32(i),
			matcher: sgf.NewMatcher(e.Guard),
			proj:    sgf.NewProjector(e.Guard, e.JoinVars),
		})
	}
	for ci, c := range classes {
		addInput(c.rel)
		assertRoles[c.rel] = append(assertRoles[c.rel], int32(ci))
	}

	mapper := mr.MapperFunc(func(input string, id int, t relation.Tuple, emit *mr.Emitter) {
		// Shuffle keys are built append-style into one stack buffer,
		// skipping the projected tuple and builder allocations of
		// proj.Apply(t).Key(); the engine copies key and payload into its
		// arena at emit, so the buffer is reusable immediately.
		var kb [32]byte
		for _, g := range guardRoles[input] {
			if g.matcher.Matches(t) {
				ReqID{Eq: g.eq, ID: int64(id)}.Emit(emit, g.proj.AppendKey(kb[:0], t))
			}
		}
		for _, ci := range assertRoles[input] {
			c := &classes[ci]
			if c.matcher.Matches(t) {
				Assert{Class: ci}.Emit(emit, c.proj.AppendKey(kb[:0], t))
			}
		}
	})

	// classBit[eq] = 1 << classOf[eq]: with at most 64 assert classes
	// (always, in practice — one class per distinct conditional atom) the
	// reducer reconciles through a bitmask instead of allocating a map
	// per key group.
	var classBit []uint64
	if len(classes) <= 64 {
		classBit = make([]uint64, len(eqs))
		for i := range eqs {
			classBit[i] = uint64(1) << uint(classOf[i])
		}
	}

	reducer := mr.ReducerFunc(func(key []byte, msgs *mr.Group, out *mr.Output) {
		if classBit != nil {
			var asserted uint64
			for i := 0; i < msgs.Len(); i++ {
				if tag, p := msgs.At(i); tag == TagAssert {
					asserted |= uint64(1) << uint(DecodeAssert(p).Class)
				}
			}
			if asserted == 0 {
				return
			}
			for i := 0; i < msgs.Len(); i++ {
				if tag, p := msgs.At(i); tag == TagReqID {
					if r := DecodeReqID(p); asserted&classBit[r.Eq] != 0 {
						out.Add(eqs[r.Eq].Out, idTuple(r.ID))
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
		if asserted == nil {
			return
		}
		for i := 0; i < msgs.Len(); i++ {
			if tag, p := msgs.At(i); tag == TagReqID {
				if r := DecodeReqID(p); asserted[classOf[r.Eq]] {
					out.Add(eqs[r.Eq].Out, idTuple(r.ID))
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
