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
//	              (one per map task: counted two-pass placement;
//	              at r = 1 the arena is the partition as it is)
//	all shuffles ─▶ reduce partition tasks (one per reducer:
//	              concatenate in task order through the key set,
//	              Reducer.Reduce per group in first-arrival order)
//	all reduces ──▶ output merge shards (one per declared output
//	              relation, relation.Merge inside; a split
//	              partition's sub-outputs interleaved by first arrival)
//	all merges  ──▶ final stats fold, job counted done
//
// Each input's map tasks are spawned independently the moment that
// input relation exists (inputReady), which is what lets the program
// scheduler start a downstream job's map work over base relations — or
// over an upstream output that merged early — while other producers are
// still running. Stage joins are one counter (jobRun.left); every task
// writes into a pre-indexed slot and all order-sensitive folds (float
// accumulation of per-part MB, OutputMB) walk those slots in declared
// part/task/name order, so outputs and stats are bit-for-bit identical
// at every pool width (pinned by the golden and determinism tests).
// Every task is spawned under a label naming its job, kind and place
// (label), which is all the run's task record needs to time it.
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
	taskParts [][]taskPartition // per input part, per map task
	// slots is the reduce-stage task layout, reducer-major and
	// sub-range-minor: one full-range slot per reducer normally; a heavy
	// partition under runtime splitting contributes one slot per key
	// sub-range (split.go). outs and slotLoads are indexed by slot; the
	// loads fold in slot order and a split partition's outputs
	// interleave by first arrival (mergeTask), which keeps split runs
	// bit-for-bit identical to unsplit ones.
	slots     []reduceSlot
	slotLoads []int64   // per slot: modelled bytes the task consumed
	outs      []*Output // per reduce slot
	outNames  []string  // declared outputs, sorted
	outArity  []int     // per output
	outMB     []float64 // per output, folded in name order
	merged    []*relation.Relation

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

// inputReady is called exactly once per input part, as soon as that
// relation exists: immediately for base relations, from the producer's
// merge task for produced ones. It computes the input's splits
// (Cost.Mappers of the input MB, clamped to the tuple count, one task
// for empty inputs) and spawns the map tasks.
func (jr *jobRun) inputReady(c *poolCtx, part int, rel *relation.Relation) {
	inputMB := mbOf(rel.Bytes())
	m := jr.e.cfg.Cost.Mappers(inputMB)
	if m > rel.Size() && rel.Size() > 0 {
		m = rel.Size()
	}
	if rel.Size() == 0 {
		m = 1
	}
	n := rel.Size()
	specs := make([]mapTaskSpec, m)
	for t := 0; t < m; t++ {
		specs[t] = mapTaskSpec{rel: rel, from: n * t / m, to: n * (t + 1) / m}
	}
	jr.mu.Lock()
	jr.stats.Parts[part] = PartStats{Input: jr.job.Inputs[part], InputMB: inputMB, Mappers: m}
	jr.tasks[part] = specs
	jr.results[part] = make([]mapTaskResult, m)
	jr.left += m - 1 // the input arrived; its m tasks are pending
	jr.mu.Unlock()
	for ti := range specs {
		ti := ti
		c.spawn(jr.label(kindMap, part, ti), func(c *poolCtx) { jr.mapTask(c, part, ti) })
	}
}

// mapTask runs the mapper over one split through the production
// Emitter: records encoded into the task's arena, sizes fixed — packing
// decided — at emit.
func (jr *jobRun) mapTask(c *poolCtx, part, ti int) {
	ts := jr.tasks[part][ti]
	n := ts.to - ts.from
	keys := n
	if est := jr.est[part].Load(); est > 0 {
		keys = int(est*int64(n)/1024) + 8
	}
	res := mapTuples(c.scratch, jr.job, jr.job.Inputs[part], ts, 1, keys, jr.gov.budget)
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

// mapTuples runs job's mapper over every step-th tuple of ts through a
// fresh Emitter charging b — with the worker's key set, sized for keys,
// when the job packs — and returns what it emitted. It is the map side of
// a map task (step 1) and of Sample (step SampleStride).
func mapTuples(sc *taskScratch, job *Job, input string, ts mapTaskSpec, step, keys int, b *Budget) mapTaskResult {
	em := Emitter{budget: b}
	if job.Packing {
		em.keys = sc.keySet(keys, false)
	}
	for i := ts.from; i < ts.to; i += step {
		job.Mapper.Map(input, i, ts.rel.Tuple(i), &em)
	}
	res := mapTaskResult{chunks: em.chunks, msgs: em.records, records: em.records, bytes: em.bytes}
	if job.Packing {
		res.records = int64(len(em.keys.locs))
	}
	return res
}

// mapsDone (run by the last finishing map task) folds the per-task
// measurements in declared part/task order — float accumulation order
// is part of the bit-for-bit contract — derives the reducer count, and
// spawns one shuffle partition task per map task.
func (jr *jobRun) mapsDone(c *poolCtx) {
	total := 0
	for part := range jr.tasks {
		p := &jr.stats.Parts[part]
		for ti := range jr.tasks[part] {
			res := &jr.results[part][ti]
			p.InterMB += mbOf(res.bytes) * jr.inflate
			p.Records += res.records
			total++
		}
	}
	jr.stats.MapTasks = total
	jr.reducers = jr.computeReducers()
	jr.stats.Reducers = jr.reducers
	jr.stats.ReduceTasks = jr.reducers

	jr.taskParts = make([][]taskPartition, len(jr.tasks))
	for part := range jr.tasks {
		jr.taskParts[part] = make([]taskPartition, len(jr.tasks[part]))
	}
	jr.left = total
	for part := range jr.tasks {
		for ti := range jr.tasks[part] {
			part, ti := part, ti
			c.spawn(jr.label(kindShuffle, part, ti), func(c *poolCtx) { jr.shuffleTask(c, part, ti) })
		}
	}
}

// computeReducers derives r per §5.1 optimization (3) (or honors the
// job's fixed count / Pig-style input-based allocation).
func (jr *jobRun) computeReducers() int {
	job, e := jr.job, jr.e
	reducers := job.Reducers
	if reducers <= 0 {
		perReducer, basis := e.cfg.Cost.ReducerDataMB, jr.stats.InterMB()
		if job.ReducerInputMB > 0 {
			// ReducerInputMB is expressed at full scale (Pig's 1 GB of
			// map input per reducer); convert to the running scale.
			scale := e.cfg.Cost.Scale
			if scale <= 0 {
				scale = 1
			}
			perReducer, basis = job.ReducerInputMB*scale, jr.stats.InputMB()
		}
		if perReducer <= 0 {
			reducers = 1
		} else {
			tmp := e.cfg.Cost
			tmp.ReducerDataMB = perReducer
			reducers = tmp.Reducers(basis)
		}
	}
	if reducers < 1 {
		reducers = 1
	}
	return reducers
}

// shuffleTask partitions one map task's records by key hash. With one
// reducer placement is the identity: the task's arena chunks become the
// partition's lone segment untouched, its load the modelled bytes the map
// task summed, and nothing is decoded, hashed, copied or charged (the
// reduce task's reader checks the arena). With more, or with one whose
// partition may split (0 < SkewSplit < 1), it runs the counted two-pass
// placement: decode the task's arena once — hash each key, add
// the record to its reducer's load and segment, note its reducer and
// encoded length in worker scratch — allocate one buffer for all the
// segments (charged to the run's budget — the shuffle-partition
// accounting site), then copy every record, encoded as Emit left it, into
// its segment; the arena's chunk list is reused to hold that one buffer.
// Whether the job packs does not matter here: a record's size already
// says whether it carries its key. An arena that does not decode aborts
// the task like a damaged spill file. A partition at or past the spill
// threshold is then written to a temp file and its chunks dropped (see
// spill.go).
func (jr *jobRun) shuffleTask(c *poolCtx, part, ti int) {
	res := &jr.results[part][ti]
	reducers := jr.reducers
	tp := taskPartition{
		segs:  make([]segment, reducers),
		loads: make([]int64, reducers),
	}
	n := int(res.msgs)
	// A lone partition holds the job's whole load, so it is over
	// SkewSplit × the mean, and needs the sketch the placement loop
	// feeds, exactly when SkewSplit < 1.
	split := jr.e.cfg.SkewSplit
	switch {
	case n == 0:
	case reducers == 1 && !(split > 0 && split < 1):
		var total int64
		for _, chunk := range res.chunks {
			total += int64(len(chunk))
		}
		tp.bufs = res.chunks
		tp.segs[0] = segment{len: total, count: int32(n)}
		tp.loads[0] = res.bytes
	default:
		if split > 0 {
			tp.sketch = newKeySketch(jr.gov.budget)
		}
		target := grow(&c.scratch.target, n)
		lens := grow(&c.scratch.idx, n)
		i := 0
		for _, chunk := range res.chunks {
			for at := 0; at < len(chunk); i++ {
				r, next, err := readRecord(chunk, at)
				if err != nil || i == n {
					panic(taskAbort{err: errCorrupt})
				}
				key := chunk[r.off : r.off+r.klen]
				p := int32(hashKey(key) % uint32(reducers))
				tp.loads[p] += r.size
				if tp.sketch != nil && i%sketchSampleEvery == 0 {
					tp.sketch.observe(key, p, r.size*sketchSampleEvery)
				}
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
		buf := grabBytes(jr.gov.budget, int(total))
		i = 0
		for _, chunk := range res.chunks {
			for at := 0; at < len(chunk); i++ {
				p, next := target[i], at+int(lens[i])
				pos[p] += int64(copy(buf[pos[p]:], chunk[at:next]))
				at = next
			}
		}
		clear(res.chunks[1:]) // release the arena's other chunks
		tp.bufs = append(res.chunks[:0], buf)
	}
	if n > 0 && jr.gov.spill != nil && res.bytes >= jr.e.cfg.SpillThreshold {
		if err := tp.spill(jr.gov.spill, jr.gov.budget); err != nil {
			panic(taskAbort{err: err})
		}
	}
	jr.taskParts[part][ti] = tp
	res.chunks = nil // the partition owns the bytes now
	if jr.stageDone() {
		jr.shufflesDone(c)
	}
}

// shufflesDone plans the reduce slot layout — one full-range task per
// reducer, plus sub-range tasks for partitions the skew splitter cut
// (split.go) — and spawns one reduce task per slot.
func (jr *jobRun) shufflesDone(c *poolCtx) {
	// The map results are fully consumed (each task's arena was
	// released as its shuffle partition copied it, or became that
	// partition at r = 1); drop the scaffolding
	// so a finished stage doesn't hold memory for the program's whole
	// duration.
	jr.results = nil
	r := jr.reducers
	jr.stats.ReduceLoadMB = make([]float64, r)
	slots := jr.planReduceSlots()
	jr.slots = slots
	jr.slotLoads = make([]int64, len(slots))
	for _, s := range slots {
		if s.split() {
			jr.stats.SplitReduceTasks++
		}
	}
	jr.outs = make([]*Output, len(slots))
	jr.left = len(slots)
	for si := range slots {
		si := si
		l := jr.label(kindReduce, 0, si)
		l.split = slots[si].split()
		c.spawn(l, func(c *poolCtx) { jr.reduceTask(c, si) })
	}
}

// reduceGroups is a reduce task's work on worker scratch sc: it
// concatenates slot's share of every map task's partition in declared
// part/task order (so the records it sees — and the load it returns —
// are identical to a serial pass over the tasks), sizing the worker's key
// set for them first so that every record is gathered with its key group,
// lays the records out by key (groupRecords) and calls fn once per
// distinct key, in first-arrival order, with the key's number g in that
// order and its messages in arrival order. On a split slot it also fills
// sc.arrival: arrival[g] is the index of group g's first record in the
// reducer's whole, unsplit stream, ascending in g. What "its share" means
// — a whole partition or a [lo, hi) key sub-range of it, held in memory
// or spilled — is taskPartition's business (count, appendTo in
// spill.go): this loop is the one ordered-fold reader of
// docs/INVARIANTS.md. The buffer list is sized by the same walk: one
// buffer per chunk of each non-empty segment, appendTo's one append each.
func reduceGroups(sc *taskScratch, parts [][]taskPartition, slot reduceSlot, b *Budget, fn func(g int, key []byte, msgs *Group)) (int64, error) {
	n, bufs := 0, 0
	for part := range parts {
		for ti := range parts[part] {
			tp := &parts[part][ti]
			n += tp.count(slot)
			bufs += tp.bufCount(slot.ri)
		}
	}
	set := recordSet{bufs: make([][]byte, 0, bufs), recs: grow(&sc.recs, n)[:0]}
	ks := sc.keySet(n, true)
	var arrival []int32
	if slot.split() {
		arrival = grow(&sc.arrival, n)
	}
	var load int64
	var at int32
	for part := range parts {
		for ti := range parts[part] {
			tp := &parts[part][ti]
			kept, err := tp.appendTo(&set, ks, slot, at, arrival, b)
			if err != nil {
				return load, err
			}
			load += kept
			at += tp.segs[slot.ri].count
		}
	}
	forEachGroup(&set, groupRecords(sc, &set, ks.locs), fn)
	return load, nil
}

// reduceTask runs one reduce slot through the user Reducer. On a split
// slot the Output records which group added which tuples, each group
// under its first-arrival index, for mergeTask's interleave.
func (jr *jobRun) reduceTask(c *poolCtx, si int) {
	slot := jr.slots[si]
	split := slot.split()
	out := newOutput(jr.outNames, jr.outArity, split)
	jr.outs[si] = out
	load, err := reduceGroups(c.scratch, jr.taskParts, slot, jr.gov.budget, func(g int, key []byte, msgs *Group) {
		if split {
			out.group = c.scratch.arrival[g]
		}
		jr.job.Reducer.Reduce(key, msgs, out)
	})
	if err != nil {
		panic(taskAbort{err: err})
	}
	jr.slotLoads[si] = load
	if jr.stageDone() {
		jr.reducesDone(c)
	}
}

// reducesDone folds the per-slot loads into the per-reducer stats —
// int64 sums over slots in slot order, so a split partition's
// ReduceLoadMB is bit-identical to the unsplit accumulation — then
// spawns one output merge shard per declared output relation (sorted
// name order).
func (jr *jobRun) reducesDone(c *poolCtx) {
	loads := make([]int64, jr.reducers)
	var maxTask int64
	for si := range jr.slots {
		loads[jr.slots[si].ri] += jr.slotLoads[si]
		if jr.slotLoads[si] > maxTask {
			maxTask = jr.slotLoads[si]
		}
	}
	for ri, l := range loads {
		jr.stats.ReduceLoadMB[ri] = mbOf(l) * jr.inflate
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
		ni := ni
		c.spawn(jr.label(kindMerge, 0, ni), func(c *poolCtx) { jr.mergeTask(c, ni) })
	}
}

// mergeTask unions one output relation's reduce-task buffers in reduce
// slot order (reducer-major) with first-occurrence dedup (relation.Merge,
// the one place a job-output tuple is hashed) and publishes the merged
// relation through onOutput, releasing any map tasks of downstream jobs
// waiting on this relation. A whole partition's task contributes its
// buffer as one run; a split partition's sub-range tasks contribute their
// group runs interleaved by first arrival (interleave), so the merge sees
// rows in exactly the order the unsplit reducers appended them. The merge
// consumes the buffers: a lone whole one becomes the merged relation's
// slab.
func (jr *jobRun) mergeTask(c *poolCtx, ni int) {
	name := jr.outNames[ni]
	runs := make([]relation.Run, 0, len(jr.outs))
	for lo := 0; lo < len(jr.slots); {
		hi := lo + 1
		for hi < len(jr.slots) && jr.slots[hi].ri == jr.slots[lo].ri {
			hi++
		}
		if hi-lo > 1 {
			runs = interleave(runs, jr.outs[lo:hi], ni)
		} else if b := jr.outs[lo].rows[ni]; b != nil {
			runs = append(runs, relation.Run{Rows: b, Hi: b.Size()})
		}
		lo = hi
	}
	merged := relation.Merge(name, jr.outArity[ni], runs)
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

// interleave appends to runs the group runs that one split partition's
// sub-range tasks (outs, in slot order) added to output ni, merged by
// first-arrival index: a k-way merge of lists each ascending in it, with
// no ties, since a key's group lies in one sub-range. Adjacent runs of
// one buffer are joined, so a partition whose output comes from one
// sub-range task yields that buffer whole.
func interleave(runs []relation.Run, outs []*Output, ni int) []relation.Run {
	type cursor struct {
		rows   *relation.Rows
		runs   []groupRun // the runs not yet taken
		offset int        // where the first of them starts in rows
	}
	cur := make([]cursor, 0, len(outs))
	for _, o := range outs {
		if b := o.rows[ni]; b != nil {
			cur = append(cur, cursor{rows: b, runs: o.runs[ni]})
		}
	}
	for {
		var c *cursor
		for i := range cur {
			if k := &cur[i]; len(k.runs) > 0 && (c == nil || k.runs[0].first < c.runs[0].first) {
				c = k
			}
		}
		if c == nil {
			return runs
		}
		end := int(c.runs[0].end)
		if last := len(runs) - 1; last >= 0 && runs[last].Rows == c.rows && runs[last].Hi == c.offset {
			runs[last].Hi = end
		} else {
			runs = append(runs, relation.Run{Rows: c.rows, Lo: c.offset, Hi: end})
		}
		c.runs, c.offset = c.runs[1:], end
	}
}

// finishJob folds the per-output sizes in sorted name order (float
// accumulation order is part of the determinism contract) and counts
// the job done in the run's task record.
func (jr *jobRun) finishJob(c *poolCtx) {
	// Merge shards have consumed the per-reducer outputs; keep only the
	// merged relations (which may own their buffers' slabs).
	jr.outs = nil
	for _, mb := range jr.outMB {
		jr.stats.OutputMB += mb
	}
	c.pool.rec.jobDone()
}
