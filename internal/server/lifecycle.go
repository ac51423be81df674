package server

import (
	"cmp"
	"context"
	"errors"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	gumbo "repro"
)

// The query lifecycle layer: every plan execution is registered in the
// server's in-flight registry from before its admission wait until its
// result is final, carrying a live gumbo.Progress observer and a cancel
// hook. Two endpoints expose it:
//
//	GET    /v1/db/{db}/queries    list that database's in-flight queries
//	DELETE /v1/db/{db}/query/{id} cancel one (the run stops at its next
//	                              task boundary; the request gets 499)
//
// Cancellation, however triggered — client disconnect, the per-query
// deadline, or the abort endpoint — releases the admission slot and
// never leaves partial output visible: the engine drops canceled runs'
// state wholesale (see mr.Engine.Run).

// statusClientClosedRequest is the de-facto status (nginx's 499) for a
// run whose context was canceled — by the client going away or by an
// explicit abort — as opposed to 504 for an expired deadline.
const statusClientClosedRequest = 499

// queryInfo is one registry entry. Immutable after registration except
// for state, which flips queued → running under the registry lock.
type queryInfo struct {
	id       uint64
	db       *dbEntry // the instance, not its name: a re-created database is a new entry
	query    string
	strategy string
	started  time.Time
	progress *gumbo.Progress
	cancel   context.CancelFunc

	mu      sync.Mutex
	running bool
}

func (qi *queryInfo) markRunning() {
	qi.mu.Lock()
	qi.running = true
	qi.mu.Unlock()
}

func (qi *queryInfo) state() string {
	qi.mu.Lock()
	defer qi.mu.Unlock()
	if qi.running {
		return "running"
	}
	return "queued"
}

// register allocates a query id, wraps ctx so the abort endpoint can
// cancel the run, and publishes the entry. The caller must unregister
// it (runQuery defers this) — entries never outlive their run.
func (s *Server) register(ctx context.Context, db *dbEntry, q *gumbo.Query, strategy gumbo.Strategy) (context.Context, *queryInfo) {
	ctx, cancel := context.WithCancel(ctx)
	qi := &queryInfo{
		id:       s.qSeq.Add(1),
		db:       db,
		query:    q.String(),
		strategy: string(strategy),
		started:  time.Now(),
		progress: &gumbo.Progress{},
		cancel:   cancel,
	}
	s.qmu.Lock()
	s.inflight[qi.id] = qi
	s.qmu.Unlock()
	return ctx, qi
}

func (s *Server) unregister(qi *queryInfo) {
	s.qmu.Lock()
	delete(s.inflight, qi.id)
	s.qmu.Unlock()
	// Release the ctx wrapper's resources even when the run completed
	// normally (calling a CancelFunc after the fact is a no-op for the
	// finished run).
	qi.cancel()
}

// queryErrorStatus maps a run error to its HTTP status: a query that
// outgrew its memory budget asked for too much (413), a query shed at
// admission hit a transient capacity limit (503, with Retry-After set
// by the handler), a recovered execution panic or a failed spill file
// is the server's fault (500), an expired per-query deadline is the gateway's (504), an
// aborted or disconnected client is the client's (499), anything else
// is a query the engine rejected (422). The memory/panic cases are
// checked first: they are definite diagnoses, while a context error
// can co-occur with them on the same run.
func queryErrorStatus(err error) int {
	switch {
	case errors.Is(err, gumbo.ErrBudgetExceeded):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, errServerBusy):
		return http.StatusServiceUnavailable
	case errors.Is(err, errQueryPanicked), errors.Is(err, gumbo.ErrSpill):
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusUnprocessableEntity
	}
}

// inflightInfo is one queries-endpoint row.
type inflightInfo struct {
	ID       uint64       `json:"id"`
	Query    string       `json:"query"`
	Strategy string       `json:"strategy"`
	State    string       `json:"state"` // "queued" (admission wait) | "running"
	Seconds  float64      `json:"seconds"`
	Progress progressInfo `json:"progress"`
}

// progressInfo mirrors gumbo.ProgressSnapshot on the wire.
type progressInfo struct {
	MapTasksDone      int `json:"map_tasks_done"`
	MapTasksTotal     int `json:"map_tasks_total"`
	ShuffleTasksDone  int `json:"shuffle_tasks_done"`
	ShuffleTasksTotal int `json:"shuffle_tasks_total"`
	ReduceTasksDone   int `json:"reduce_tasks_done"`
	ReduceTasksTotal  int `json:"reduce_tasks_total"`
	MergeShardsDone   int `json:"merge_shards_done"`
	MergeShardsTotal  int `json:"merge_shards_total"`
	JobsDone          int `json:"jobs_done"`
	JobsTotal         int `json:"jobs_total"`
}

func encodeProgress(ps gumbo.ProgressSnapshot) progressInfo {
	return progressInfo{
		MapTasksDone: ps.MapTasksDone, MapTasksTotal: ps.MapTasksTotal,
		ShuffleTasksDone: ps.ShuffleTasksDone, ShuffleTasksTotal: ps.ShuffleTasksTotal,
		ReduceTasksDone: ps.ReduceTasksDone, ReduceTasksTotal: ps.ReduceTasksTotal,
		MergeShardsDone: ps.MergeShardsDone, MergeShardsTotal: ps.MergeShardsTotal,
		JobsDone: ps.JobsDone, JobsTotal: ps.JobsTotal,
	}
}

// handleListQueries lists the database's in-flight queries with live
// progress snapshots, oldest first (ids are allocated in start order).
func (s *Server) handleListQueries(w http.ResponseWriter, r *http.Request) {
	dbe := s.lookup(r.PathValue("db"))
	if dbe == nil {
		writeError(w, http.StatusNotFound, "database %q not found", r.PathValue("db"))
		return
	}
	now := time.Now()
	s.qmu.Lock()
	rows := make([]inflightInfo, 0, len(s.inflight))
	for _, qi := range s.inflight {
		if qi.db != dbe {
			continue
		}
		rows = append(rows, inflightInfo{
			ID:       qi.id,
			Query:    qi.query,
			Strategy: qi.strategy,
			State:    qi.state(),
			Seconds:  now.Sub(qi.started).Seconds(),
			Progress: encodeProgress(qi.progress.Snapshot()),
		})
	}
	s.qmu.Unlock()
	// Map iteration order is random; present a stable listing.
	slices.SortFunc(rows, func(a, b inflightInfo) int { return cmp.Compare(a.ID, b.ID) })
	writeJSON(w, http.StatusOK, map[string]any{"db": dbe.name, "queries": rows})
}

// handleAbortQuery cancels one in-flight query. The canceled run's own
// request fails with 499; the abort request itself gets 200 once the
// cancel is delivered (the run unwinds asynchronously at its next task
// boundary — poll /v1/stats or the queries endpoint to watch the slot
// free up).
func (s *Server) handleAbortQuery(w http.ResponseWriter, r *http.Request) {
	dbe := s.lookup(r.PathValue("db"))
	if dbe == nil {
		writeError(w, http.StatusNotFound, "database %q not found", r.PathValue("db"))
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid query id %q", r.PathValue("id"))
		return
	}
	s.qmu.Lock()
	qi := s.inflight[id]
	if qi != nil && qi.db != dbe {
		qi = nil
	}
	s.qmu.Unlock()
	if qi == nil {
		writeError(w, http.StatusNotFound, "no in-flight query %d in database %q", id, dbe.name)
		return
	}
	qi.cancel()
	s.aborted.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"aborted": id})
}
