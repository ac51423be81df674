package mr

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// The engine's unified work-stealing executor. One taskPool runs every
// schedulable unit of a job or a whole program — map tasks, shuffle
// partition tasks, reduce partition tasks, output merge shards — on a
// fixed set of worker goroutines. There is no per-phase or per-job
// fan-out/fan-in: a worker that finishes a reduce partition of one job
// immediately picks up whatever is runnable, typically a map task of a
// downstream or independent job. This is what lets Engine.Run's
// partition-level scheduling overlap phases of dependent jobs instead of
// idling workers at job barriers.
//
// Scheduling policy: each worker owns a private deque. Tasks spawned
// while running on a worker push onto that worker's deque; the owner
// pops newest-first (LIFO, cache-friendly for the stage that spawned
// them), while idle workers steal oldest-first (FIFO) from siblings, so
// stolen work is the coarsest available (the classic work-stealing
// discipline). Task execution order is therefore schedule-dependent —
// everything built on the pool writes results into pre-indexed slots
// and joins phases with counters, so observable results never depend on
// the order (see jobrun.go and the determinism tests).

// poolTask is one unit of schedulable work and its label for the run's
// task record (progress.go). The context handed to fn identifies the
// executing worker so the task can spawn follow-up work onto the local
// deque; the task must never block that worker (docs/INVARIANTS.md).
type poolTask struct {
	taskLabel
	fn func(c *poolCtx)
}

// poolCtx is the execution context handed to every task: one per pool
// worker, created by that worker's loop in runTasks and touched by no
// other goroutine, so the scratch it borrows from the Engine for as long
// as the loop runs needs no lock. A reduce task may swap that scratch for
// a fresh one (reduceGrouped).
type poolCtx struct {
	pool    *taskPool
	id      int // worker index owning the local deque
	scratch *taskScratch
	// stage, rungs and out are the worker's staging: memory a staged
	// task writes its bulk bytes through, keeping one exactly sized
	// copy. They hold query data, so they are the run's, never the
	// Engine's: they live as long as the worker's loop and go with the
	// run.
	//
	// stage is the shuffle's: a shuffle task places its records here
	// before copying them back into its map task's sealed arena
	// (shuffleTask).
	// It starts at one arena chunk and at least doubles when a partition
	// outgrows it, so the order in which a worker meets its partitions
	// barely moves what the run allocates. rungs is the free list a map
	// task opens its arena's chunks from, by position in the ladder (see
	// emit.go): each rung is charged on every opening, as a fresh one
	// is. out is the output staging of a reduce task's piece when its
	// job has more than one piece, one slice per declared output
	// (Output.seal).
	stage []byte
	rungs [arenaRungs + 1][][]byte
	out   [][]relation.Value
	// count, next and split are the running task's: the tasks of its
	// kind the record counts it as (countAs), the phase it hands on
	// (then), and whether it found a heavy partition to cut (ways).
	count int
	next  poolTask
	split bool
}

// taskScratch is one worker's reusable task memory: the pointer-free
// arrays a task needs only until it returns — or, for a reduce task that
// cuts its partition into pieces, until the last piece does: that task
// lends its scratch to the pieces and takes another (reduceGrouped,
// lend). A one-reducer task's next phase runs on the same worker and
// scratch (poolCtx.then), lending nothing.
// Between runs it is the Engine's (Engine.scratch), so a run's workers
// start with arrays sized by earlier runs. It never holds a []byte or
// anything else that points (TestScratchPointerFree; arena rungs, the
// shuffle's staging buffer and reduce output staging are the run's, on
// poolCtx), so no
// query can read another's keys, payloads or relations through it, and
// it is bounded: every buffer grows to the largest task run on it and
// nothing is kept per task. Every buffer is handed out to be overwritten — the key set's
// slots, to be cleared — before any read.
type taskScratch struct {
	recs   []record // reduceGroups, reduceInline: the gathered records
	idx    []int32  // shuffleTask: each record's encoded length; byReducer: each key's reducer; groupRecords: record indices laid out by key
	keys   keySet   // a map task's packing decisions under Emit, a reduce task's gather, or both in a one-reducer task
	locs   []keyLoc // byReducer: a one-reducer task's keys, reducer-major
	target []int32  // shuffleTask: each record's reducer; reduceInline: each key group's last split (Emit's stamps); groupRecords: each group's count, cursor, end
	pos    []int64  // shuffleTask: per-reducer write cursors
}

// grow returns *buf resized to n elements of unspecified content,
// reallocating only past the largest n seen.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// lend takes the worker's scratch for a task to hand on — a split
// partition's grouped set, to its pieces — and gives the worker another:
// one of the run's spares, else one of e's.
func (c *poolCtx) lend(e *Engine) *taskScratch {
	sc, p := c.scratch, c.pool
	p.spareMu.Lock()
	if n := len(p.spare); n > 0 {
		c.scratch, p.spare = p.spare[n-1], p.spare[:n-1]
	}
	p.spareMu.Unlock()
	if c.scratch == sc {
		c.scratch = e.scratch.Get().(*taskScratch)
	}
	return sc
}

// giveBack returns a lent scratch to the run's spares.
func (c *poolCtx) giveBack(sc *taskScratch) {
	p := c.pool
	p.spareMu.Lock()
	p.spare = append(p.spare, sc)
	p.spareMu.Unlock()
}

// then makes fn, labelled l, the running task's next phase: the task
// record runs it on this worker, with this scratch, once the task
// returns, and times it as a task of its own (Progress.run). A one-
// reducer task's reduce work follows its mapping this way.
func (c *poolCtx) then(l taskLabel, fn func(c *poolCtx)) {
	c.next = poolTask{l, fn}
}

// countAs makes the task record count the running task as n tasks of
// its kind: a one-reducer task's mapping, as the splits it mapped.
func (c *poolCtx) countAs(n int) {
	c.count = n
}

// spawn schedules fn, labelled l, onto the current worker's deque.
func (c *poolCtx) spawn(l taskLabel, fn func(c *poolCtx)) {
	c.pool.spawn(c.id, poolTask{l, fn})
}

// taskDeque is one worker's task queue. A plain mutex-guarded slice:
// pool tasks are coarse (thousands of records each), so queue traffic
// is far too low for the lock to matter.
type taskDeque struct {
	mu sync.Mutex
	q  []poolTask
}

func (d *taskDeque) push(t poolTask) {
	d.mu.Lock()
	d.q = append(d.q, t)
	d.mu.Unlock()
}

// pop removes the newest task (owner side, LIFO); an empty deque
// yields the zero task, whose fn is nil.
func (d *taskDeque) pop() (t poolTask) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.q)
	if n == 0 {
		return t
	}
	t = d.q[n-1]
	d.q[n-1] = poolTask{}
	d.q = d.q[:n-1]
	return t
}

// steal removes the oldest task (thief side, FIFO).
func (d *taskDeque) steal() (t poolTask) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.q) == 0 {
		return t
	}
	t = d.q[0]
	d.q[0] = poolTask{}
	d.q = d.q[1:]
	return t
}

// taskPool runs tasks to quiescence: runTasks returns when every
// spawned task — including tasks spawned by tasks — has finished, or
// once the pool stops early (stop: a task panic, a task-raised error
// or the run's context canceled), queued tasks then abandoned at the
// next task boundary.
type taskPool struct {
	deques []taskDeque
	rec    *Progress // the run's task record: spawn counts, run times
	// ctx is the run's context. next polls it directly on every grant
	// (on top of the async watcher that wakes parked workers), so the
	// number of tasks granted after a cancel is strictly bounded: at
	// most one per worker already past its poll.
	ctx context.Context

	mu   sync.Mutex // guards idle, panicked, failErr and the wakeup protocol
	cond *sync.Cond
	idle int
	// stopped flips once, on quiescence or an early stop. It is atomic
	// so the dequeue fast path can observe a stop without taking mu:
	// after a task panic or a context cancellation, workers must abandon
	// queued tasks promptly, not drain them.
	stopped  atomic.Bool
	panicked any   // first task panic, re-raised on the runTasks caller
	failErr  error // first task-raised run error (taskAbort)

	pendingMu sync.Mutex
	pending   int // spawned but unfinished tasks

	// spare holds, under spareMu, the scratches split partitions lent
	// their pieces and got back (reduceGrouped). A run's next lend takes one
	// before it asks the Engine, whose sync.Pool cannot hand a task a
	// scratch put back on another P's private slot: asking it every time
	// found a cold scratch for 66 of 150 lends in a 5 s skew-spill run on
	// 2 vCPUs, each regrown at the size of a heavy partition. runTasks
	// returns the spares to the Engine when the pool stops.
	spareMu sync.Mutex
	spare   []*taskScratch

	// hooks is the fault-injection seam installed via SetFaultHooks,
	// captured once at pool construction; grants numbers the task grants
	// it observes. Both are test-only instrumentation.
	hooks  *FaultHooks
	grants atomic.Int64
}

// FaultHooks instruments the task pool for fault-injection tests. The
// zero value observes nothing. Hooks run on worker goroutines on the
// task-grant path, so they can delay (sleep), park (block on a channel,
// or on ctx.Done() to hold a task until its run is provably canceled),
// or cancel (cancel the run's context) at chosen task indices; see
// SetFaultHooks.
type FaultHooks struct {
	// Grant, when non-nil, is called immediately before a granted task
	// executes, with the run's context and the pool-wide 0-based grant
	// index (the order in which workers were handed tasks —
	// schedule-dependent, but its range is deterministic: a full run
	// grants every task exactly once). Blocking stalls that worker;
	// canceling the run's context from inside the hook stops the pool at
	// the next task boundary.
	Grant func(ctx context.Context, n int)
	// Staged, when set, runs every job on the staged path: no job is
	// predicted to have one reducer (jobRun.predictOne), so map, shuffle
	// and reduce are tasks of their own. The one-reducer differential
	// tests hold the two shapes to each other with it.
	Staged bool
	// Inline, when non-nil, is called as a one-reducer task finishes
	// mapping a split (every split of its job, in declared order,
	// whatever r it measures), with the job's index in its program and
	// the split's records in emit order, valid during the call only. The
	// one-reducer differential test derives the task's arena charges
	// from them.
	Inline func(job int, split InlineSplit)
	// Span, when non-nil, times each task as Span of its label, not as
	// measured, so a span test asserts CriticalPath exactly.
	Span func(l taskLabel) int64
}

// InlineSplit is the records one split of a one-reducer task emitted,
// as FaultHooks.Inline sees them: recs[from:] of the task's record
// array, whose records' key groups index recs.
type InlineSplit struct {
	recs []record
	from int
}

// poolHooks holds the installed fault seam; nil means uninstrumented
// (the production state). An atomic pointer so installing hooks in a
// test cannot race with a pool being constructed elsewhere.
var poolHooks atomic.Pointer[FaultHooks]

// SetFaultHooks installs h as the fault-injection seam observed by
// every subsequently created pool, returning a function that restores
// the previous seam. Test-only: callers own serializing their use of
// the process-wide seam (tests that install hooks must not run in
// parallel with other pool-running tests).
func SetFaultHooks(h FaultHooks) (restore func()) {
	prev := poolHooks.Swap(&h)
	return func() { poolHooks.Store(prev) }
}

// spawn schedules fn onto worker `from`'s deque and wakes a sleeper if
// one is parked. The pending count is raised before the task becomes
// visible, so the pool cannot reach quiescence with fn still queued.
//
// Spawning on a quiescent pool — a poolCtx retained past runTasks — is
// misuse: the workers are gone and fn would sit queued forever. It
// panics rather than losing the task silently. (Detection is
// best-effort: it cannot race with a legitimate spawn, because those
// happen inside a running task, which holds pending > 0.)
func (p *taskPool) spawn(from int, t poolTask) {
	p.pendingMu.Lock()
	if p.pending == 0 && p.stopped.Load() {
		p.pendingMu.Unlock()
		panic("mr: taskPool.spawn after quiescence: poolCtx used outside its runTasks call")
	}
	p.pending++
	p.pendingMu.Unlock()
	p.rec.spawn(t.kind)
	p.deques[from].push(t)
	p.mu.Lock()
	if p.idle > 0 {
		p.cond.Signal()
	}
	p.mu.Unlock()
}

// finish records one task completion; the last completion stops the
// pool and releases every parked worker.
func (p *taskPool) finish() {
	p.pendingMu.Lock()
	p.pending--
	done := p.pending == 0
	p.pendingMu.Unlock()
	if done {
		p.stop(nil, nil)
	}
}

// stop is the pool's one stop path — quiescence, a task panic v, a
// task-raised run error err, or the run's context canceled: workers
// finish their current task and exit at the next task boundary (never
// mid-task, so a task's writes into its pre-indexed slot are either
// complete or never started), and queued tasks are abandoned. The first
// non-nil v and the first non-nil err are each kept; a cancellation
// records neither, since runTasks returns ctx.Err() itself.
func (p *taskPool) stop(v any, err error) {
	p.mu.Lock()
	if p.panicked == nil {
		p.panicked = v
	}
	if p.failErr == nil {
		p.failErr = err
	}
	p.stopped.Store(true)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// next returns a runnable task for worker id, or the zero task (nil fn)
// when the pool has stopped. The fast path pops the local deque, then
// steals; the slow path re-scans every deque under p.mu and parks. Spawners signal under
// the same lock after pushing, so a task pushed after the scan wakes
// the parked worker — no lost wakeups.
func (p *taskPool) next(id int) poolTask {
	if p.stopped.Load() || p.canceled() {
		// Quiescence (queues empty) or an early stop (queued tasks
		// abandoned): either way, stop taking work.
		return poolTask{}
	}
	if t := p.deques[id].pop(); t.fn != nil {
		return t
	}
	if t := p.stealFrom(id); t.fn != nil {
		return t
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.stopped.Load() || p.canceled() {
			return poolTask{}
		}
		if t := p.deques[id].pop(); t.fn != nil {
			return t
		}
		if t := p.stealFrom(id); t.fn != nil {
			return t
		}
		p.idle++
		p.cond.Wait()
		p.idle--
	}
}

// canceled reports whether the run's context is already canceled: the
// synchronous half of the cancellation protocol (the watcher goroutine
// in runTasks is the asynchronous half, waking parked workers). Polled
// once per task grant — pool tasks are coarse, so the check is noise.
func (p *taskPool) canceled() bool {
	return p.ctx != nil && p.ctx.Err() != nil
}

// stealFrom scans the other deques round-robin starting after id.
func (p *taskPool) stealFrom(id int) poolTask {
	n := len(p.deques)
	for k := 1; k < n; k++ {
		if t := p.deques[(id+k)%n].steal(); t.fn != nil {
			return t
		}
	}
	return poolTask{}
}

// taskAbort is the panic payload a task raises to fail the whole run
// with an error instead of a programming-bug panic: the budget's
// over-limit charge and the spill path's I/O failures use it. runOne
// stops the pool with its err rather than as a panic, so runTasks
// returns err to its caller instead of re-panicking.
type taskAbort struct{ err error }

// runOne executes t through the run's task record, which times it,
// and stops the pool on a task panic so the panic can be re-raised on
// the runTasks caller's goroutine — or, for a taskAbort payload, so
// the run fails with its error (budget exhaustion, spill I/O). The
// Grant fault hook fires inside the recovered scope, so an injected
// hook panic behaves exactly like a panic of the granted task itself;
// a task that panics leaves no span.
func (p *taskPool) runOne(c *poolCtx, t poolTask) {
	defer func() {
		if v := recover(); v != nil {
			if ta, ok := v.(taskAbort); ok {
				p.stop(nil, ta.err)
			} else {
				p.stop(v, nil)
			}
			return
		}
		p.finish()
	}()
	if h := p.hooks; h != nil && h.Grant != nil {
		h.Grant(p.ctx, int(p.grants.Add(1)-1))
	}
	p.rec.run(c, t)
}

// runTasks creates a pool of `workers` goroutines recording into rec,
// runs seed as the first task (unlabelled: no job's), and returns once
// the pool is quiescent (seed and every transitively spawned task
// finished) or stopped. A panic in any task stops the pool and is
// re-raised on the caller's goroutine, so user map/reduce panics
// surface to the Run caller; it wins over a task-raised error, which
// wins over a cancellation. Each worker takes one taskScratch from the
// Engine when it starts and puts back the one it holds when it exits, and
// the run's spare scratches go back with them; these workers and the
// watcher are the package's only goroutines.
//
// Cancellation is task-boundary-granular: a watcher goroutine (joined
// before return — runTasks leaks nothing) stops the pool when
// ctx.Done() fires, in-flight tasks run to completion, and queued
// tasks are abandoned, so at most `workers` further tasks are granted
// after the cancel. A canceled ctx always yields a non-nil return —
// ctx.Err(), i.e. context.Canceled or context.DeadlineExceeded — even
// when the pool raced to quiescence first, so callers observe a
// deterministic error for a canceled run.
func (e *Engine) runTasks(ctx context.Context, workers int, rec *Progress, seed func(c *poolCtx)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers < 1 {
		workers = 1
	}
	p := &taskPool{deques: make([]taskDeque, workers), rec: rec, ctx: ctx, hooks: poolHooks.Load()}
	p.cond = sync.NewCond(&p.mu)
	stopWatch := make(chan struct{})
	var watch sync.WaitGroup
	if done := ctx.Done(); done != nil {
		watch.Add(1)
		// The pool's cancellation watcher: wg-joined below via close(stopWatch), it only signals the pool's own stop protocol.
		go func() {
			defer watch.Done()
			select {
			case <-done:
				p.stop(nil, nil)
			case <-stopWatch:
			}
		}()
	}
	p.spawn(0, poolTask{fn: seed})
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		// The pool's worker loops, wg-joined below, with task panics re-raised after the join.
		go func(id int) {
			defer wg.Done()
			c := &poolCtx{pool: p, id: id, scratch: e.scratch.Get().(*taskScratch)}
			defer func() { e.scratch.Put(c.scratch) }() // whichever scratch the worker holds when it exits
			for {
				t := p.next(id)
				if t.fn == nil {
					return
				}
				p.runOne(c, t)
			}
		}(w)
	}
	wg.Wait()
	for _, sc := range p.spare {
		e.scratch.Put(sc)
	}
	close(stopWatch)
	watch.Wait()
	if p.panicked != nil {
		panic(p.panicked)
	}
	if p.failErr != nil {
		// A task-raised run failure (budget exhaustion, spill I/O) wins
		// over a concurrent cancel: the typed error is what the caller
		// acts on, and the failure is what actually stopped the run.
		return p.failErr
	}
	return ctx.Err()
}
