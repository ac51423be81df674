package core

import (
	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// Estimator predicts MR job costs for candidate plans before execution,
// the way Gumbo does (§5.1 optimization (3)): map output sizes M_i are
// estimated by simulating the map function on a sample of the input
// relations, and job costs follow Eq. 5 (grouped MSJ), Eq. 6 (separate
// MSJ jobs, as the degenerate case of singleton groups), Eq. 7 (EVAL)
// and Eq. 9/10 (plans).
//
// Relations produced by earlier subqueries of an SGF program do not
// exist at planning time; their cardinality is bounded by the (possibly
// recursive) cardinality of their defining query's guard — the same
// upper-bound reasoning the paper applies to output sizes ("K can be
// approximated by its upper bound N1").
type Estimator struct {
	CostCfg     cost.Config
	Model       cost.Model
	DB          *relation.Database
	Program     *sgf.Program // optional: provides bounds for derived relations
	SampleEvery int          // sampling stride; 0 = 100

	emitCache map[string]emitStat
	relCache  map[string]relInfo
}

// emitStat is a sampled (extrapolated) map-output contribution.
type emitStat struct {
	records float64
	mb      float64
}

type relInfo struct {
	count float64
	mb    float64
	arity int
	known bool // false for derived relations bounded via the program
}

// NewEstimator builds an estimator over db; prog may be nil when only
// base relations are referenced.
func NewEstimator(cfg cost.Config, model cost.Model, db *relation.Database, prog *sgf.Program) *Estimator {
	return &Estimator{
		CostCfg:   cfg,
		Model:     model,
		DB:        db,
		Program:   prog,
		emitCache: make(map[string]emitStat),
		relCache:  make(map[string]relInfo),
	}
}

func (e *Estimator) stride() int {
	if e.SampleEvery > 0 {
		return e.SampleEvery
	}
	return 100
}

// relInfo resolves a relation's cardinality and size, falling back to
// program-derived upper bounds for not-yet-materialized outputs.
func (e *Estimator) rel(name string) relInfo {
	if info, ok := e.relCache[name]; ok {
		return info
	}
	// Break potential cycles defensively while recursing.
	e.relCache[name] = relInfo{}
	info := relInfo{}
	if r := e.DB.Relation(name); r != nil {
		info = relInfo{
			count: float64(r.Size()),
			mb:    float64(r.Bytes()) / mr.MB,
			arity: r.Arity(),
			known: true,
		}
	} else if e.Program != nil {
		if q := e.Program.QueryByName(name); q != nil {
			g := e.rel(q.Guard.Rel)
			info = relInfo{
				count: g.count,
				mb:    g.count * float64(q.OutArity()) * relation.BytesPerField / mr.MB,
				arity: q.OutArity(),
			}
		}
	}
	e.relCache[name] = info
	return info
}

// sampleEmit estimates the records and bytes emitted for facts of rel
// conforming to matcher, where each emission costs keyOf+payload bytes.
func (e *Estimator) sampleEmit(cacheKey, relName string, atom sgf.Atom, joinVars []string, payload int64) emitStat {
	if s, ok := e.emitCache[cacheKey]; ok {
		return s
	}
	var s emitStat
	r := e.DB.Relation(relName)
	if r == nil || r.Size() == 0 {
		// Derived or empty relation: assume full conformance with an
		// analytic key size.
		info := e.rel(relName)
		keyBytes := float64(2 + 3*len(joinVars))
		s = emitStat{records: info.count, mb: info.count * (keyBytes + float64(payload)) / mr.MB}
		e.emitCache[cacheKey] = s
		return s
	}
	matcher := sgf.NewMatcher(atom)
	proj := sgf.NewProjector(atom, joinVars)
	stride := e.stride()
	sampled, conforming := 0, 0
	var bytes int64
	var kb [32]byte
	for i := 0; i < r.Size(); i += stride {
		sampled++
		t := r.Tuple(i)
		if matcher.Matches(t) {
			conforming++
			bytes += mr.KeyBytes(proj.AppendKey(kb[:0], t)) + payload
		}
	}
	if sampled > 0 {
		scale := float64(r.Size()) / float64(sampled)
		s = emitStat{records: float64(conforming) * scale, mb: float64(bytes) / mr.MB * scale}
	}
	e.emitCache[cacheKey] = s
	return s
}

// reqStat estimates the request stream of one equation: one ReqID per
// conforming guard fact.
func (e *Estimator) reqStat(eq Equation) emitStat {
	return e.sampleEmit("req:"+eq.Key(), eq.Guard.Rel, eq.Guard, eq.JoinVars, reqIDBytes)
}

// packKey identifies the packing group of an equation's requests: all
// equations with the same guard pattern and join-key projection emit
// records under identical keys, which the message-packing optimization
// collapses into one record per fact (§5.1 opt (1)).
func (eq Equation) packKey() string { return streamKey(eq.Guard, eq.JoinVars) }

// reqKeyStat estimates the key-only stream of a packing group: one
// record (and one key) per conforming guard fact.
func (e *Estimator) reqKeyStat(eq Equation) emitStat {
	return e.sampleEmit("reqkey:"+eq.packKey(), eq.Guard.Rel, eq.Guard, eq.JoinVars, 0)
}

// assertStat estimates the assert stream of one equation's assert class:
// one Assert per conforming conditional fact.
func (e *Estimator) assertStat(eq Equation) emitStat {
	return e.sampleEmit("assert:"+eq.AssertClassKey(), eq.Cond.Rel, eq.Cond, eq.JoinVars, assertBytes)
}

// guardConform estimates the number of facts of the guard relation
// conforming to the guard atom.
func (e *Estimator) guardConform(a sgf.Atom) float64 {
	s := e.sampleEmit("conform:"+a.Key(), a.Rel, a, nil, 0)
	return s.records
}

// MSJSpec builds the cost.JobSpec estimate for MSJ over the selected
// equations (by index into eqs). Shared input relations contribute one
// partition; shared assert classes contribute one assert stream; and
// equations sharing a join key pack their requests into one record per
// fact, paying the key and record metadata once (§5.1 opt (1)). These
// are exactly the commonalities that make grouping pay off in Eq. 5 vs
// Eq. 6.
func (e *Estimator) MSJSpec(eqs []Equation, idxs []int) cost.JobSpec {
	type acc struct {
		inter   float64
		records float64
	}
	parts := make(map[string]*acc)
	var order []string
	touch := func(rel string) *acc {
		a, ok := parts[rel]
		if !ok {
			a = &acc{}
			parts[rel] = a
			order = append(order, rel)
		}
		return a
	}
	var outMB float64
	seenClass := make(map[string]bool)
	seenPack := make(map[string]bool)
	for _, i := range idxs {
		eq := eqs[i]
		rs := e.reqStat(eq)
		g := touch(eq.Guard.Rel)
		// Request payload per equation; key bytes and record count once
		// per packing group.
		g.inter += rs.records * reqIDBytes / mr.MB
		if pk := eq.packKey(); !seenPack[pk] {
			seenPack[pk] = true
			ks := e.reqKeyStat(eq)
			g.inter += ks.mb
			g.records += ks.records
		}
		// Output X_i: one id tuple per matching guard fact (upper bound:
		// all requests match).
		outMB += rs.records * relation.BytesPerField / mr.MB
		ck := eq.AssertClassKey()
		if !seenClass[ck] {
			seenClass[ck] = true
			as := e.assertStat(eq)
			c := touch(eq.Cond.Rel)
			c.inter += as.mb
			c.records += as.records
		}
	}
	spec := cost.JobSpec{OutputMB: outMB}
	for _, rel := range order {
		a := parts[rel]
		spec.Partitions = append(spec.Partitions, cost.Partition{
			Name:    rel,
			InputMB: e.rel(rel).mb,
			InterMB: a.inter,
			Records: int64(a.records),
		})
	}
	return spec
}

// MSJCost prices MSJ over the selected equations (Eq. 5; singleton
// groups reproduce Eq. 6 term-wise).
func (e *Estimator) MSJCost(eqs []Equation, idxs []int) float64 {
	return e.CostCfg.JobCost(e.Model, e.MSJSpec(eqs, idxs))
}

// EvalSpec builds the cost.JobSpec estimate for EVAL over the queries
// (Eq. 7): guards are re-read and emit (key, tuple) records; each X
// relation is read and forwarded.
func (e *Estimator) EvalSpec(queries []*sgf.BSGF) cost.JobSpec {
	spec := cost.JobSpec{}
	seen := make(map[string]*cost.Partition)
	var order []string
	touch := func(rel string, inputMB float64) *cost.Partition {
		if p, ok := seen[rel]; ok {
			return p
		}
		seen[rel] = &cost.Partition{Name: rel, InputMB: inputMB}
		order = append(order, rel)
		return seen[rel]
	}
	const evalKeyBytes = 8
	for _, q := range queries {
		conform := e.guardConform(q.Guard)
		info := e.rel(q.Guard.Rel)
		tupleMB := float64(tupleTagByte+info.arity*relation.BytesPerField+evalKeyBytes) / mr.MB
		p := touch(q.Guard.Rel, info.mb)
		p.InterMB += conform * tupleMB
		p.Records += int64(conform)
		for ai, atom := range q.CondAtoms() {
			eq := Equation{Guard: q.Guard, Cond: atom, JoinVars: sgf.SharedVars(q.Guard, atom)}
			rs := e.reqStat(eq)
			xMB := rs.records * relation.BytesPerField / mr.MB
			xp := touch(XName(q.Name, ai), xMB)
			xp.InterMB += rs.records * float64(evalKeyBytes+assertBytes) / mr.MB
			xp.Records += int64(rs.records)
		}
		spec.OutputMB += conform * float64(q.OutArity()) * relation.BytesPerField / mr.MB
	}
	for _, rel := range order {
		spec.Partitions = append(spec.Partitions, *seen[rel])
	}
	return spec
}

// EvalCost prices the EVAL job for the queries.
func (e *Estimator) EvalCost(queries []*sgf.BSGF) float64 {
	return e.CostCfg.JobCost(e.Model, e.EvalSpec(queries))
}

// BasicCost prices a basic MR program (Eq. 9): the EVAL job plus one MSJ
// job per partition group.
func (e *Estimator) BasicCost(queries []*sgf.BSGF, eqs []Equation, partition [][]int) float64 {
	total := e.EvalCost(queries)
	for _, group := range partition {
		if len(group) > 0 {
			total += e.MSJCost(eqs, group)
		}
	}
	return total
}
