package mr

import (
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// jobRun is one job execution decomposed into the task units the
// unified pool schedules:
//
//	input ready ──▶ map tasks (one per split of that input)
//	all maps    ──▶ reducer count, then shuffle partition tasks
//	              (one per map task: counted two-pass placement
//	              into one buffer)
//	all shuffles ─▶ reduce partition tasks (one per reducer:
//	              concatenate in task order through the key set,
//	              Reducer.Reduce per group in first-arrival order;
//	              a heavy partition cut at group boundaries after
//	              one gather, one task per piece)
//	all reduces ──▶ output merge shards (one per declared output
//	              relation, relation.Merge over the tasks' buffers
//	              in reducer and piece order)
//	all merges  ──▶ final stats fold, job counted done
//
// A job predicted to have one reducer (predictOne) waits for all its
// inputs; one task (reduceInline) then measures them. Past one reducer's
// allocation it spawns the map tasks. Otherwise it maps every split
// itself, Emit entering each record straight into its key set and
// record array, the record's only header, and takes r from the measured
// bytes as a staged job does; its groups, reducer-major past r = 1, go
// the staged reduce tasks' way (cut, pieces, merges). No split is mapped
// twice.
//
// A staged job's map tasks over an input are spawned the moment that
// input relation exists (inputReady), which is what lets the program
// scheduler start its map work over base relations — or over an
// upstream output that merged early — while other producers are still
// running. Stage joins are one counter (jobRun.left); every task
// writes into a pre-indexed slot and all order-sensitive folds (float
// accumulation of per-part MB, OutputMB) walk those slots in declared
// part/task/name order, so outputs and stats are bit-for-bit identical
// at every pool width and in both shapes (pinned by the golden,
// determinism and one-reducer differential tests).
// Every task is spawned under a label naming its job, kind and place
// (label), which is all the run's task record needs to time it; the
// one-reducer task is a map task of the record (part −1) whose reduce
// work runs as its next phase under a reduce label (poolCtx.then).
type jobRun struct {
	e       *Engine
	idx     int // the job's index in its program
	job     *Job
	inflate float64
	// gov is the run's resource governance: budget charges at the arena
	// / shuffle-partition / merge-shard sites, and the shuffle spill
	// configuration (shared across all jobs of a program run).
	gov govern

	// onOutput, when set, is invoked once per merged output relation,
	// from the merge task itself — the program scheduler's publish hook
	// (it releases dependent jobs' map tasks).
	onOutput func(c *poolCtx, name string, rel *relation.Relation)

	// left is the stage join: the current stage's unfinished tasks plus,
	// in the map stage, the inputs whose relation has not arrived, under
	// mu. A job's stages never overlap, so one counter serves them all;
	// the stage's last task sets the next stage's count before spawning
	// it, while no other task of the job is in flight.
	mu   sync.Mutex
	left int

	// one: the job is predicted to have one reducer (predictOne).
	one bool

	tasks   [][]mapTaskSpec   // per input part: that input's splits
	results [][]mapTaskResult // per input part, per map task
	// est[part] is the running estimate of the distinct keys a map task
	// of the part emits per 1024 input tuples, published by its finished
	// tasks and used to size later tasks' key sets when the job packs.
	// Gumbo's mappers are near uniform per input (the property Sample's
	// one stride relies on), so the estimate converges after the part's
	// first task; it only sets capacity — the set doubles past it and
	// results never depend on it.
	est []atomic.Int64

	reducers  int
	load      int64             // the map results' modelled bytes (foldMaps)
	taskParts [][]taskPartition // per input part, per map task
	// pieces is the reduce stage's work, per reducer: its reduce task's
	// share, or, for a partition cut at group boundaries, its pieces in
	// group order (split.go), each with its load and Output. Loads fold
	// and outputs merge reducer by reducer and piece by piece, which
	// keeps split runs bit-for-bit identical to unsplit ones.
	pieces   [][]piece
	outNames []string  // declared outputs, sorted
	outArity []int     // per output
	outMB    []float64 // per output, folded in name order
	merged   []*relation.Relation

	stats JobStats
}

// mapTaskSpec is one map task: a contiguous tuple range of one input.
type mapTaskSpec struct {
	rel      *relation.Relation
	from, to int
}

// newJobRun prepares the task-graph state for job idx of its program.
// The program must already have passed Validate.
func (e *Engine) newJobRun(idx int, job *Job, gov govern,
	onOutput func(c *poolCtx, name string, rel *relation.Relation)) *jobRun {
	inflate := job.InflateIntermediate
	if inflate <= 0 {
		inflate = 1.0
	}
	names := outputOrder(job.Outputs)
	arity := make([]int, len(names))
	for i, n := range names {
		arity[i] = job.Outputs[n]
	}
	return &jobRun{
		e:        e,
		idx:      idx,
		job:      job,
		inflate:  inflate,
		gov:      gov,
		onOutput: onOutput,
		left:     len(job.Inputs),
		tasks:    make([][]mapTaskSpec, len(job.Inputs)),
		results:  make([][]mapTaskResult, len(job.Inputs)),
		est:      make([]atomic.Int64, len(job.Inputs)),
		outNames: names,
		outArity: arity,
		stats:    JobStats{Name: job.Name, Parts: make([]PartStats, len(job.Inputs))},
	}
}

// label names the job's task of kind k at part and index to the task
// record.
func (jr *jobRun) label(k taskKind, part, index int) taskLabel {
	return taskLabel{job: int32(jr.idx), part: int32(part), index: int32(index), kind: k}
}

// predictOne decides, before any task runs, whether the job waits for
// all its inputs for its one task (reduceInline): the run does not
// spill, r is neither fixed nor input-based, and its base inputs
// (reads[part] < 0) alone fit one reducer's allocation (fitsOne).
func (jr *jobRun) predictOne(reads []int, db *relation.Database) {
	job := jr.job
	if jr.gov.spill != nil || job.reducers > 0 || job.ReducerInputMB > 0 {
		return
	}
	var baseMB float64
	for part, prod := range reads {
		if prod < 0 {
			baseMB += mbOf(db.Relation(job.Inputs[part]).Bytes())
		}
	}
	jr.one = jr.fitsOne(baseMB)
}

// fitsOne reports whether inputs of mb MB, inflated as the job's
// intermediate data is, fit one reducer's allocation.
func (jr *jobRun) fitsOne(mb float64) bool {
	return jr.e.cfg.Cost.Reducers(mb*jr.inflate) == 1
}

// inputReady is called exactly once per input part, as soon as that
// relation exists: immediately for base relations, from the producer's
// merge task for produced ones. It computes the input's splits
// (Cost.Mappers of the input MB, clamped to the tuple count, one task
// for empty inputs) and spawns the map tasks — unless the job waits for
// its one task, which the input's arrival may then release.
func (jr *jobRun) inputReady(c *poolCtx, part int, rel *relation.Relation) {
	inputMB, n := mbOf(rel.Bytes()), rel.Size()
	m := max(1, min(jr.e.cfg.Cost.Mappers(inputMB), n))
	specs := make([]mapTaskSpec, m)
	for t := 0; t < m; t++ {
		specs[t] = mapTaskSpec{rel: rel, from: n * t / m, to: n * (t + 1) / m}
	}
	jr.mu.Lock()
	jr.stats.Parts[part] = PartStats{Input: jr.job.Inputs[part], InputMB: inputMB, Mappers: m}
	jr.tasks[part] = specs
	jr.results[part] = make([]mapTaskResult, m)
	if jr.one {
		jr.left-- // the input arrived; the one-reducer task maps it
	} else {
		jr.left += m - 1 // the input arrived; its m tasks are pending
	}
	joined := jr.left == 0
	jr.mu.Unlock()
	if jr.one {
		if joined {
			c.spawn(jr.label(kindMap, -1, 0), jr.reduceInline)
		}
		return
	}
	jr.spawnMaps(c, part)
}

// spawnMaps spawns a map task per split of part.
func (jr *jobRun) spawnMaps(c *poolCtx, part int) {
	for ti := range jr.tasks[part] {
		c.spawn(jr.label(kindMap, part, ti), func(c *poolCtx) { jr.mapTask(c, part, ti) })
	}
}

// mapTask runs the mapper over one split through the production
// Emitter: records encoded into the task's arena, sizes fixed — packing
// decided, against the worker's key set, sized by the part's estimate,
// which the task then updates — at emit.
func (jr *jobRun) mapTask(c *poolCtx, part, ti int) {
	ts := jr.tasks[part][ti]
	n := ts.to - ts.from
	em := Emitter{budget: jr.gov.budget}
	if jr.job.Packing {
		keys := n
		if est := jr.est[part].Load(); est > 0 {
			keys = int(est*int64(n)/1024) + 8
		}
		em.keys = c.scratch.keySet(keys, false)
	}
	res := em.mapSplit(jr.job, jr.job.Inputs[part], ts, 1)
	if jr.job.Packing && n > 0 {
		jr.est[part].Store(res.records * 1024 / int64(n))
	}
	jr.results[part][ti] = res
	if jr.stageDone() {
		jr.mapsDone(c)
	}
}

// stageDone counts one task of the current stage finished and reports
// whether it was the stage's last.
func (jr *jobRun) stageDone() bool {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	jr.left--
	return jr.left == 0
}

// mapSplit runs job's mapper over every step-th tuple of ts through e and
// returns what it emitted: e's arena from its base on, and its counts —
// a map task's result, a one-reducer task's for one of its splits, or a
// sample's of one input.
func (e *Emitter) mapSplit(job *Job, input string, ts mapTaskSpec, step int) mapTaskResult {
	for i := ts.from; i < ts.to; i += step {
		job.Mapper.Map(input, i, ts.rel.Tuple(i), e)
	}
	n := len(e.chunks)
	res := mapTaskResult{chunks: e.chunks[e.base:n:n], msgs: e.records, records: e.records, bytes: e.bytes}
	if job.Packing {
		res.records = e.keyed
	}
	return res
}

// mapsDone (run by the last finishing map task) folds the map results,
// derives r and spawns one shuffle partition task per map task.
func (jr *jobRun) mapsDone(c *poolCtx) {
	jr.foldMaps()
	jr.reducers = jr.computeReducers()
	jr.taskParts = make([][]taskPartition, len(jr.tasks))
	for part := range jr.tasks {
		jr.taskParts[part] = make([]taskPartition, len(jr.tasks[part]))
	}
	jr.left = jr.stats.MapTasks
	for part := range jr.tasks {
		for ti := range jr.tasks[part] {
			c.spawn(jr.label(kindShuffle, part, ti), func(c *poolCtx) { jr.shuffleTask(c, part, ti) })
		}
	}
}

// foldMaps folds the per-split results in declared part/task order —
// float accumulation order is part of the bit-for-bit contract.
func (jr *jobRun) foldMaps() {
	total := 0
	for part := range jr.tasks {
		var interMB float64
		var records int64
		for ti := range jr.tasks[part] {
			res := &jr.results[part][ti]
			interMB += mbOf(res.bytes) * jr.inflate
			records += res.records
			jr.load += res.bytes
			total++
		}
		jr.stats.Parts[part].InterMB, jr.stats.Parts[part].Records = interMB, records
	}
	jr.stats.MapTasks = total
}

// reduceInline is a one-reducer job's task (see the header), run once
// its last input arrives. When it maps, it sizes the worker's record
// array, key set and stamps once, a record a tuple, counts as one map
// task a split, and hands the set on to its reduce phase
// (poolCtx.then): at r = 1 the job's one reduce task, which groups and
// reduces it as a gather; past it reduceRanges.
func (jr *jobRun) reduceInline(c *poolCtx) {
	sc := c.scratch
	n, splits := 0, 0 // tuples and splits
	var inputMB float64
	for part, specs := range jr.tasks {
		n, splits = n+specs[0].rel.Size(), splits+len(specs)
		inputMB += jr.stats.Parts[part].InputMB
	}
	if !jr.fitsOne(inputMB) {
		c.countAs(0)
		jr.left = splits
		for part := range jr.tasks {
			jr.spawnMaps(c, part)
		}
		return
	}
	c.countAs(splits)
	set := recordSet{bufs: make([][]byte, 0, splits*arenaRungs), recs: grow(&sc.recs, n)[:0]}
	ks := sc.keySet(n, false)
	stamps := grow(&sc.target, n)
	defer func() { sc.recs, sc.target = set.recs, stamps }() // keep what the walk grew
	var split int32
	for part := range jr.tasks {
		for ti := range jr.tasks[part] {
			from := len(set.recs)
			em := Emitter{chunks: set.bufs, base: len(set.bufs), budget: jr.gov.budget, keys: ks,
				grouped: &set.recs, stamps: stamps, split: split, pack: jr.job.Packing}
			res := em.mapSplit(jr.job, jr.job.Inputs[part], jr.tasks[part][ti], 1)
			jr.results[part][ti] = res
			set.bufs, stamps = em.chunks, em.stamps
			split++
			if h := c.pool.hooks; h != nil && h.Inline != nil {
				h.Inline(jr.idx, InlineSplit(set.recs[from:]))
			}
		}
	}
	jr.foldMaps()
	jr.results = nil // the record set holds the arenas now
	jr.reducers = jr.computeReducers()
	jr.reduceStage()
	c.then(jr.label(kindReduce, 0, 0), func(c *poolCtx) {
		g := &groupedSet{recordSet: set, load: jr.load}
		if jr.reducers > 1 {
			jr.reduceRanges(c, g, ks.locs)
			return
		}
		g.grouping = groupRecords(c.scratch, &g.recordSet, ks.locs)
		jr.reduceGrouped(c, g, 0)
	})
}

// reduceRanges is a one-reducer task's reduce phase past r = 1: it lays
// g out reducer-major, so reducer ri's groups [bounds[ri], bounds[ri+1])
// hold what its staged reduce task would gather, cuts each heavy range
// as that task would (the phase is then recorded as split), and reduces
// every piece in (reducer, piece) order, counting as that many tasks.
func (jr *jobRun) reduceRanges(c *poolCtx, g *groupedSet, locs []keyLoc) {
	locs, bounds := byReducer(c.scratch, &g.recordSet, locs, jr.reducers)
	g.grouping = groupRecords(c.scratch, &g.recordSet, locs)
	mean := float64(jr.load) / float64(jr.reducers)
	for ri := range jr.pieces {
		p := piece{lo: bounds[ri], hi: bounds[ri+1]}
		from, to := g.start(p.lo), g.start(p.hi)
		for _, i := range g.idx[from:to] {
			p.load += g.recs[i].size
		}
		jr.pieces[ri][0] = p
		if k := jr.ways(p.load, int64(to-from), mean); k > 0 {
			c.split, jr.pieces[ri] = true, g.cut(p, k)
			jr.left += len(jr.pieces[ri]) - 1
		}
	}
	c.countAs(jr.left)
	for _, pieces := range jr.pieces {
		for pi := range pieces {
			jr.reducePiece(c, g, &pieces[pi])
		}
	}
}

// computeReducers derives r per §5.1 optimization (3) (or honors the
// job's fixed count / Pig-style input-based allocation).
func (jr *jobRun) computeReducers() int {
	job, cost := jr.job, jr.e.cfg.Cost
	if job.reducers > 0 {
		return job.reducers
	}
	basis := jr.stats.InterMB()
	if job.ReducerInputMB > 0 {
		// ReducerInputMB is expressed at full scale (Pig's 1 GB of
		// map input per reducer); convert to the running scale.
		scale := cost.Scale
		if scale <= 0 {
			scale = 1
		}
		cost.ReducerDataMB, basis = job.ReducerInputMB*scale, jr.stats.InputMB()
	}
	return cost.Reducers(basis)
}

// shuffleTask partitions one map task's records by key hash with the
// counted two-pass placement: decode the task's arena once — hash each
// key, add the record to its reducer's segment, note its
// reducer and encoded length in worker scratch — allocate one buffer for
// all the segments (charged to the run's budget — the shuffle-partition
// accounting site), then copy every record, encoded as Emit left it,
// into its segment. Whether the job packs does not matter here: a
// record's size already says whether it carries its key. An arena that
// does not decode aborts the task like a damaged spill file. A
// partition at or past the spill threshold is then written to a temp
// file and its buffer dropped (see spill.go).
func (jr *jobRun) shuffleTask(c *poolCtx, part, ti int) {
	res := &jr.results[part][ti]
	reducers := jr.reducers
	tp := taskPartition{segs: make([]segment, reducers)}
	n := int(res.msgs)
	if n > 0 {
		target := grow(&c.scratch.target, n)
		lens := grow(&c.scratch.idx, n)
		i := 0
		for _, chunk := range res.chunks {
			for at := 0; at < len(chunk); i++ {
				r, next, err := readRecord(chunk, at)
				if err != nil || i == n {
					panic(taskAbort{err: errCorrupt})
				}
				p := int32(hashKey(chunk[r.off:r.off+r.klen]) % uint32(reducers))
				target[i], lens[i] = p, int32(next-at)
				tp.segs[p].len += int64(next - at)
				tp.segs[p].count++
				at = next
			}
		}
		if i != n {
			panic(taskAbort{err: errCorrupt})
		}
		pos := grow(&c.scratch.pos, reducers)
		var total int64
		for p := range tp.segs {
			tp.segs[p].off, pos[p] = total, total
			total += tp.segs[p].len
		}
		tp.buf = grabBytes(jr.gov.budget, int(total))
		i = 0
		for _, chunk := range res.chunks {
			for at := 0; at < len(chunk); i++ {
				p, next := target[i], at+int(lens[i])
				pos[p] += int64(copy(tp.buf[pos[p]:], chunk[at:next]))
				at = next
			}
		}
		if jr.gov.spill != nil && res.bytes >= jr.e.cfg.SpillThreshold {
			if err := tp.spill(jr.gov.spill, jr.gov.budget); err != nil {
				panic(taskAbort{err: err})
			}
		}
	}
	jr.taskParts[part][ti] = tp
	res.chunks = nil // release the arena: the partition holds a copy
	if jr.stageDone() {
		jr.shufflesDone(c)
	}
}

// shufflesDone spawns one reduce task per reducer.
func (jr *jobRun) shufflesDone(c *poolCtx) {
	// The map results are fully consumed (each task's arena was
	// released as its shuffle partition copied it); drop the
	// scaffolding so a finished stage doesn't hold memory for the
	// program's whole duration.
	jr.results = nil
	jr.reduceStage()
	for ri := range jr.reducers {
		c.spawn(jr.label(kindReduce, 0, ri), func(c *poolCtx) { jr.reduceTask(c, ri) })
	}
}

// reduceStage sets the reduce stage up: one piece per reducer until a
// cut says otherwise, and a task per reducer to join.
func (jr *jobRun) reduceStage() {
	r := jr.reducers
	jr.stats.Reducers, jr.stats.ReduceTasks = r, r
	jr.stats.ReduceLoadMB = make([]float64, r)
	jr.pieces = make([][]piece, r)
	whole := make([]piece, r)
	for ri := range whole {
		jr.pieces[ri] = whole[ri : ri+1 : ri+1]
	}
	jr.left = r
}

// reduceGroups is a reduce task's gather on worker scratch sc: it
// concatenates reducer ri's segment of every map task's partition in
// declared part/task order (so the records it sees — and the load it
// returns — are identical to a serial pass over the tasks), sizing the
// worker's key set for them first so that every record is gathered with
// its key group, and lays the records out by key (groupRecords), groups
// in first-arrival order. Whether a segment is held in memory or spilled
// is taskPartition's business (appendTo in spill.go): this loop is the
// one ordered-fold reader of docs/INVARIANTS.md. The buffer list is
// sized by the same walk: one buffer per non-empty segment, appendTo's
// one append.
func reduceGroups(sc *taskScratch, parts [][]taskPartition, ri int, b *Budget) (*groupedSet, error) {
	n, bufs := 0, 0
	for part := range parts {
		for ti := range parts[part] {
			if count := parts[part][ti].segs[ri].count; count > 0 {
				n += int(count)
				bufs++
			}
		}
	}
	g := &groupedSet{recordSet: recordSet{bufs: make([][]byte, 0, bufs), recs: grow(&sc.recs, n)[:0]}}
	ks := sc.keySet(n, true)
	for part := range parts {
		for ti := range parts[part] {
			kept, err := parts[part][ti].appendTo(&g.recordSet, ks, ri, b)
			if err != nil {
				return nil, err
			}
			g.load += kept
		}
	}
	g.grouping = groupRecords(sc, &g.recordSet, ks.locs)
	return g, nil
}

// reduceTask gathers and groups reducer ri's partition and reduces it.
func (jr *jobRun) reduceTask(c *poolCtx, ri int) {
	g, err := reduceGroups(c.scratch, jr.taskParts, ri, jr.gov.budget)
	if err != nil {
		panic(taskAbort{err: err})
	}
	jr.reduceGrouped(c, g, ri)
}

// reduceGrouped reduces reducer ri's grouped partition, held in the
// worker's scratch. A heavy partition's task (split.go) is recorded as
// split and first cuts its groups into pieces; past one piece it lends
// the grouped set, and the
// worker scratch that holds it, to the pieces and takes another scratch,
// counts the pieces into the stage in its own place, and spawns one
// reduce task per piece (labels 1..n, the gather keeping 0): its own
// span is then the gather and the cut alone, and CriticalPath chains
// every piece after it.
func (jr *jobRun) reduceGrouped(c *poolCtx, g *groupedSet, ri int) {
	pieces := jr.pieces[ri]
	pieces[0] = piece{hi: len(g.locs), load: g.load}
	if k := jr.ways(g.load, int64(len(g.recs)), float64(jr.load)/float64(jr.reducers)); k > 0 {
		c.split, pieces = true, g.cut(pieces[0], k)
		jr.pieces[ri] = pieces
	}
	if len(pieces) == 1 {
		jr.reducePiece(c, g, &pieces[0])
		return
	}
	g.sc = c.lend(jr.e)
	g.left.Store(int32(len(pieces)))
	jr.mu.Lock()
	jr.left += len(pieces) - 1
	jr.mu.Unlock()
	for pi := range pieces {
		l, p := jr.label(kindReduce, pi+1, ri), &pieces[pi]
		l.split = true
		c.spawn(l, func(c *poolCtx) { jr.reducePiece(c, g, p) })
	}
}

// reducePiece runs the user Reducer over one piece's groups into the
// piece's own Output. The last piece of a shared set to finish gives its
// scratch back to the run; a canceled run simply drops it.
func (jr *jobRun) reducePiece(c *poolCtx, g *groupedSet, p *piece) {
	out := newOutput(jr.outNames, jr.outArity)
	p.out = out
	g.each(p.lo, p.hi, func(key []byte, msgs *Group) { jr.job.Reducer.Reduce(key, msgs, out) })
	if g.sc != nil && g.left.Add(-1) == 0 {
		c.giveBack(g.sc)
	}
	if jr.stageDone() {
		jr.reducesDone(c)
	}
}

// reducesDone folds the piece loads into the per-reducer stats — int64
// sums, reducer by reducer and piece by piece, so a split partition's
// ReduceLoadMB is bit-identical to the unsplit accumulation — then
// spawns one output merge shard per declared output relation (sorted
// name order).
func (jr *jobRun) reducesDone(c *poolCtx) {
	var maxTask int64
	for ri, pieces := range jr.pieces {
		var load int64
		for _, p := range pieces {
			load += p.load
			maxTask = max(maxTask, p.load)
		}
		if len(pieces) > 1 {
			jr.stats.SplitReduceTasks += len(pieces)
		}
		jr.stats.ReduceLoadMB[ri] = mbOf(load) * jr.inflate
	}
	jr.stats.MaxReduceTaskMB = mbOf(maxTask) * jr.inflate
	// Every reduce task has concatenated its share; release the whole
	// job's shuffle records now rather than when the program finishes
	// (the jobRun stays reachable through the scheduler's closures),
	// and retire the job's consumed spill files (aborted runs instead
	// sweep them in the entry points' deferred spillSet.cleanup).
	for part := range jr.taskParts {
		for ti := range jr.taskParts[part] {
			if f := jr.taskParts[part][ti].f; f != nil {
				jr.gov.spill.drop(f)
			}
		}
	}
	jr.taskParts = nil
	jr.merged = make([]*relation.Relation, len(jr.outNames))
	jr.outMB = make([]float64, len(jr.outNames))
	jr.left = len(jr.outNames)
	for ni := range jr.outNames {
		c.spawn(jr.label(kindMerge, 0, ni), func(c *poolCtx) { jr.mergeTask(c, ni) })
	}
}

// mergeTask unions one output relation's reduce-task buffers in reducer
// order, a split partition's in piece order, with first-occurrence dedup
// (relation.Merge, the one place a job-output tuple is hashed) and
// publishes the merged relation through onOutput, releasing any map
// tasks of downstream jobs waiting on this relation. The pieces split
// their reducer's group sequence in order, so the merge sees rows in
// exactly the order the unsplit reducers appended them. The merge
// consumes the buffers: a lone one becomes the merged relation's slab.
func (jr *jobRun) mergeTask(c *poolCtx, ni int) {
	name := jr.outNames[ni]
	bufs := make([]*relation.Rows, 0, len(jr.pieces))
	for _, pieces := range jr.pieces {
		for _, p := range pieces {
			bufs = append(bufs, p.out.rows[ni])
		}
	}
	merged := relation.Merge(name, jr.outArity[ni], bufs)
	// The merge-shard accounting site: the merged relation is charged
	// before it is published to downstream consumers.
	jr.gov.budget.charge(merged.Bytes())
	jr.merged[ni] = merged
	jr.outMB[ni] = mbOf(merged.Bytes())
	if jr.onOutput != nil {
		jr.onOutput(c, name, merged)
	}
	if jr.stageDone() {
		jr.finishJob(c)
	}
}

// finishJob folds the per-output sizes in sorted name order (float
// accumulation order is part of the determinism contract) and counts
// the job done in the run's task record.
func (jr *jobRun) finishJob(c *poolCtx) {
	// Merge shards have consumed the reduce tasks' outputs; keep only the
	// merged relations (which may own their buffers' slabs).
	jr.pieces = nil
	for _, mb := range jr.outMB {
		jr.stats.OutputMB += mb
	}
	c.pool.rec.jobDone()
}
