package server

import (
	"context"
	"sync"
	"time"

	gumbo "repro"
)

// batcher micro-batches concurrently arriving queries against one
// database. Submissions collect for at most window; when the window
// closes (or maxBatch submissions are waiting) the whole batch is merged
// into a single SGF program with gumbo.Merge and evaluated as one run, so
// the paper's §4.7 multi-query sharing (Greedy-BSGF grouping of
// overlapping semi-join atoms across queries) applies to live traffic and
// the batch consumes a single admission slot.
//
// Submissions with identical canonical query text are deduplicated
// before merging — the hot case of many clients asking the same
// question is answered by a single run — since gumbo.Merge itself
// requires pairwise-distinct output relation names (and no base/output
// collisions) across the batch. When the remaining distinct queries
// cannot be merged, or the merged run fails, the batch degrades to one
// run per distinct query, executed concurrently. Batched queries always
// run under the Auto strategy (individual strategy requests do not
// compose across a merge).
type batcher struct {
	srv      *Server
	dbe      *dbEntry
	window   time.Duration
	maxBatch int

	mu      sync.Mutex
	pending []*submission
}

// submission is one query waiting in a micro-batch.
type submission struct {
	q    *gumbo.Query
	done chan batchOutcome // buffered; receives exactly one outcome
}

// batchOutcome is what a flushed batch delivers to each submission.
type batchOutcome struct {
	res       *gumbo.Result
	cacheHit  bool
	batchSize int      // client queries answered by the run this outcome came from
	outputs   []string // distinct output names evaluated by that run
	err       error
}

func newBatcher(srv *Server, dbe *dbEntry, window time.Duration, maxBatch int) *batcher {
	if maxBatch < 2 {
		maxBatch = 2
	}
	return &batcher{srv: srv, dbe: dbe, window: window, maxBatch: maxBatch}
}

// submit enqueues q and blocks until its batch has run.
func (b *batcher) submit(q *gumbo.Query) batchOutcome {
	sub := &submission{q: q, done: make(chan batchOutcome, 1)}
	b.mu.Lock()
	b.pending = append(b.pending, sub)
	full := len(b.pending) >= b.maxBatch
	first := len(b.pending) == 1
	b.mu.Unlock()
	if full {
		b.flush()
	} else if first {
		time.AfterFunc(b.window, b.flush)
	}
	return <-sub.done
}

// flush runs whatever is pending. Safe to call concurrently and when
// nothing is pending (a size-triggered flush may leave a later
// timer-triggered flush with an empty batch).
func (b *batcher) flush() {
	b.mu.Lock()
	batch := b.pending
	b.pending = nil
	b.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	// Group submissions by canonical query text: many clients asking the
	// identical question share one run (and one cached plan) instead of
	// defeating the merge with duplicate output names.
	type group struct {
		q    *gumbo.Query
		subs []*submission
	}
	var groups []*group
	index := make(map[string]int)
	for _, sub := range batch {
		key := sub.q.String()
		if gi, ok := index[key]; ok {
			groups[gi].subs = append(groups[gi].subs, sub)
			continue
		}
		index[key] = len(groups)
		groups = append(groups, &group{q: sub.q, subs: []*submission{sub}})
	}

	deliver := func(g *group, res *gumbo.Result, hit bool, size int, outputs []string, err error) {
		if err == nil && size >= 2 {
			b.srv.batchedQueries.Add(uint64(len(g.subs)))
		}
		for _, sub := range g.subs {
			sub.done <- batchOutcome{res: res, cacheHit: hit, batchSize: size, outputs: outputs, err: err}
		}
	}
	// A batch outlives any single submitter (one run answers many
	// requests, and submitters may disconnect at different times), so
	// the run executes under a server-owned context rather than any one
	// request's: batch=true queries are not canceled by client
	// disconnects, only by the per-query deadline and the abort
	// endpoint, both of which runQuery applies itself.
	// A merged batch run is shared by many requests; no single request context can own it.
	ctx := context.Background()

	// runGroup evaluates one distinct query on behalf of all of its
	// submissions.
	runGroup := func(g *group) {
		res, hit, err := b.srv.runQuery(ctx, b.dbe, g.q, strategyAuto)
		if err == nil && len(g.subs) >= 2 {
			b.srv.batchRuns.Add(1)
		}
		deliver(g, res, hit, len(g.subs), []string{g.q.Name()}, err)
	}

	if len(groups) == 1 {
		runGroup(groups[0])
		return
	}
	queries := make([]*gumbo.Query, len(groups))
	outputs := make([]string, len(groups))
	for i, g := range groups {
		queries[i] = g.q
		outputs[i] = g.q.Name()
	}
	if merged, err := gumbo.Merge(queries...); err == nil {
		res, hit, rerr := b.srv.runQuery(ctx, b.dbe, merged, strategyAuto)
		if rerr == nil {
			b.srv.batchRuns.Add(1)
			for _, g := range groups {
				deliver(g, res, hit, len(batch), outputs, nil)
			}
			return
		}
		// A merged failure (e.g. one query references a missing relation)
		// cannot be attributed to a single submission; fall through so
		// healthy queries still succeed and the faulty one gets its own
		// error.
	}
	// The batch cannot run as one program (e.g. two distinct queries
	// chose the same output name) or the merged run failed: degrade to
	// one concurrent run per distinct query (admission control still
	// bounds actual engine concurrency).
	b.srv.mergeFallbacks.Add(1)
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *group) {
			defer wg.Done()
			runGroup(g)
		}(g)
	}
	wg.Wait()
}
