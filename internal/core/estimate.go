package core

import (
	"repro/internal/cost"
	"repro/internal/mr"
	"repro/internal/relation"
	"repro/internal/sgf"
)

// Estimator predicts MR job costs for candidate plans before execution,
// the way Gumbo does (§5.1 optimization (3)): map output sizes M_i are
// estimated by running the map function on a sample of the input
// relations (mr.Sample), and job costs follow Eq. 5 (grouped MSJ), Eq. 6 (separate
// MSJ jobs, as the degenerate case of singleton groups), Eq. 7 (EVAL)
// and Eq. 9/10 (plans).
//
// Relations produced by earlier subqueries of an SGF program do not
// exist at planning time; their cardinality is bounded by the (possibly
// recursive) cardinality of their defining query's guard — the same
// upper-bound reasoning the paper applies to output sizes ("K can be
// approximated by its upper bound N1").
type Estimator struct {
	CostCfg cost.Config
	Model   cost.Model
	DB      *relation.Database
	Program *sgf.Program // optional: provides bounds for derived relations

	samples  map[stream]mr.SampleCounts
	relCache map[string]relInfo
}

// stream names one map-output stream the estimator samples by its
// streamKey: the requests of a guard pattern or, with asserts set, the
// asserts of a conditional one. A self-join's guard and conditional atom
// can share a stream key and still send different messages, hence the
// flag.
type stream struct {
	asserts bool
	key     string
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
}

// NewEstimator builds an estimator over db; prog may be nil when only
// base relations are referenced.
func NewEstimator(cfg cost.Config, model cost.Model, db *relation.Database, prog *sgf.Program) *Estimator {
	return &Estimator{
		CostCfg:  cfg,
		Model:    model,
		DB:       db,
		Program:  prog,
		samples:  make(map[stream]mr.SampleCounts),
		relCache: make(map[string]relInfo),
	}
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

// emitStat extrapolates stream k — a's facts keyed on their projection
// on vars — to all of a's relation: the records it sends and their
// modelled MB, a request's key alone (MSJSpec prices each equation's
// payload itself), an assert's key and payload. A relation in the
// database is sampled once per stream by mr.Sample, through the one-role
// reconcile job that sends exactly that stream (streamJob). A derived or
// empty relation has no sample: every fact is assumed to conform, with an
// analytic key size.
func (e *Estimator) emitStat(k stream, a sgf.Atom, vars []string) emitStat {
	s, ok := e.samples[k]
	if !ok {
		if counts, err := mr.Sample(streamJob(k.asserts, a, vars), e.DB); err == nil { // err: a relation no query has produced yet
			s = counts[0]
		}
		e.samples[k] = s
	}
	if s.Sampled == 0 {
		info := e.rel(a.Rel)
		size := float64(2 + 3*len(vars))
		if k.asserts {
			size += assertBytes
		}
		return emitStat{records: info.count, mb: info.count * size / mr.MB}
	}
	bytes := s.Bytes
	if !k.asserts {
		bytes -= reqIDBytes * s.Records
	}
	scale := float64(s.Tuples) / float64(s.Sampled)
	return emitStat{records: float64(s.Records) * scale, mb: float64(bytes) / mr.MB * scale}
}

// packKey identifies the packing group of an equation's requests: all
// equations with the same guard pattern and join-key projection emit
// records under identical keys, which the message-packing optimization
// collapses into one record per fact (§5.1 opt (1)).
func (eq Equation) packKey() string { return streamKey(eq.Guard, eq.JoinVars) }

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
		req := stream{key: eq.packKey()}
		rs := e.emitStat(req, eq.Guard, eq.JoinVars)
		g := touch(eq.Guard.Rel)
		// Request payload per equation; key bytes and record count once
		// per packing group.
		g.inter += rs.records * reqIDBytes / mr.MB
		if !seenPack[req.key] {
			seenPack[req.key] = true
			g.inter += rs.mb
			g.records += rs.records
		}
		// Output X_i: one id tuple per matching guard fact (upper bound:
		// all requests match).
		outMB += rs.records * relation.BytesPerField / mr.MB
		as := stream{asserts: true, key: eq.AssertClassKey()}
		if !seenClass[as.key] {
			seenClass[as.key] = true
			st := e.emitStat(as, eq.Cond, eq.JoinVars)
			c := touch(eq.Cond.Rel)
			c.inter += st.mb
			c.records += st.records
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
		conform := e.emitStat(stream{key: streamKey(q.Guard, nil)}, q.Guard, nil).records
		info := e.rel(q.Guard.Rel)
		tupleMB := float64(tupleTagByte+info.arity*relation.BytesPerField+evalKeyBytes) / mr.MB
		p := touch(q.Guard.Rel, info.mb)
		p.InterMB += conform * tupleMB
		p.Records += int64(conform)
		for ai, atom := range q.CondAtoms() {
			eq := Equation{Guard: q.Guard, Cond: atom, JoinVars: sgf.SharedVars(q.Guard, atom)}
			rs := e.emitStat(stream{key: eq.packKey()}, eq.Guard, eq.JoinVars)
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
