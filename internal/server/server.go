// Package server implements the gumbo query service: a long-running,
// concurrent HTTP JSON front end over the gumbo library (the paper's
// batch system operationalized for live traffic, cf. docs/SERVER.md).
//
// The server manages named in-memory databases, bulk-loads relations
// into them, and evaluates SGF queries against them on one shared
// gumbo.System. Two mechanisms turn the library into a service:
//
//   - Admission control: a semaphore (Config.ConcurrentJobs) bounds how
//     many plan executions run at once; excess requests queue instead of
//     oversubscribing the host. Each admitted plan executes on its own
//     work-stealing worker pool (gumbo.WithHostWorkers in
//     Config.Options), so the engine's total worker count is bounded by
//     pool width × admitted plans.
//   - Plan caching: parsed-and-planned queries are kept in an LRU cache
//     keyed by database instance, Database.Generation, strategy and
//     canonical query text, so repeated query text skips parsing,
//     validation and cost-model sampling. Any load or drop bumps the
//     generation and thereby invalidates the database's cached plans.
//
// Every query runs alone, under its own request's context, strategy and
// admission slot. The paper's §4.7 multi-query sharing is a library
// operation (gumbo.Merge): a client that wants it merges its queries
// into one program before sending it.
//
// Determinism contract: query responses list output tuples in sorted
// order, so a response is bit-for-bit identical to encoding the relation
// a direct library call (System.Run / gumbo.Eval) produces — regardless
// of server concurrency or plan-cache state.
package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gumbo "repro"
	"repro/internal/relation"
)

// strategyAuto asks runQuery to resolve the strategy with System.Auto.
const strategyAuto gumbo.Strategy = "auto"

// strategies are the wire names the query endpoint accepts.
var strategies = gumbo.Strategies()

// Config configures a Server.
type Config struct {
	// ConcurrentJobs sizes the admission-control semaphore
	// (0 = GOMAXPROCS): at most that many plan executions run at once;
	// further requests queue. Total engine workers are therefore
	// bounded by the pool width (gumbo.WithHostWorkers) ×
	// ConcurrentJobs; size the pair to the host together.
	ConcurrentJobs int
	// PlanCacheSize bounds the LRU plan cache (entries; 0 = 128).
	PlanCacheSize int
	// MaxBodyBytes caps the size of a request body (0 = 32 MiB): one
	// oversized load must not be able to exhaust the daemon's memory
	// before validation even starts.
	MaxBodyBytes int64
	// QueryTimeout bounds each query execution (admission wait included):
	// a run past the deadline stops at its next task boundary and the
	// request fails with HTTP 504. 0 disables the deadline. Queries are
	// also canceled when the client disconnects or an abort is requested
	// via the query registry (DELETE /v1/db/{db}/query/{id}).
	QueryTimeout time.Duration
	// MemBudget is the server-wide memory budget in bytes (0 =
	// unlimited). Each admitted query commits its cost-model-predicted
	// bytes against it before running; a query whose reservation does
	// not fit is rejected with 503 + Retry-After instead of executed
	// (see memory.go for the full degradation ladder).
	MemBudget int64
	// QueryMemBudget caps the bytes one query's execution may charge
	// (0 = unlimited). A run that charges past the cap aborts
	// deterministically with HTTP 413, database untouched
	// (gumbo.ErrBudgetExceeded). It also clamps the per-query
	// reservation taken against MemBudget.
	QueryMemBudget int64
	// Options configure the shared gumbo.System: the engine's pool
	// width, spill and skew splitting (gumbo.WithHostWorkers, WithSpill,
	// WithSkewSplit) and the cost model (e.g. gumbo.WithScale for
	// scaled-down costs).
	Options []gumbo.Option
}

// Server is the concurrent query service. Create one with New and mount
// Handler on an http.Server; all methods are safe for concurrent use.
type Server struct {
	sys      *gumbo.System
	cache    *planCache
	sem      chan struct{}
	maxBody  int64
	timeout  time.Duration // per-query deadline (Config.QueryTimeout)
	mem      *memLedger    // global memory budget (Config.MemBudget)
	queryMem int64         // per-query byte budget (Config.QueryMemBudget)

	mu    sync.RWMutex
	dbs   map[string]*dbEntry
	dbSeq atomic.Uint64 // dbEntry id allocator

	// inflight is the registry of currently executing (or
	// admission-queued) plan runs, keyed by a server-lifetime query id:
	// the progress endpoint lists it, the abort endpoint cancels through
	// it. Entries live exactly as long as their runQuery call.
	qmu      sync.Mutex
	inflight map[uint64]*queryInfo
	qSeq     atomic.Uint64 // query id allocator

	queries  atomic.Uint64 // client queries received
	aborted  atomic.Uint64 // queries canceled via the abort endpoint
	shed     atomic.Uint64 // queries rejected by the memory ledger (503)
	panicked atomic.Uint64 // queries failed by a recovered panic (500)
	active   atomic.Int64  // plan executions currently admitted
}

// dbEntry is one named database session. id is unique per creation
// (name plus a server-lifetime sequence number) and keys the plan
// cache, so a dropped-and-recreated database can never hit plans cached
// for its predecessor — even if an in-flight query re-inserts a plan
// after the drop's purge, the stale entry is unreachable under the new
// id and simply ages out of the LRU.
type dbEntry struct {
	name   string
	id     string
	db     *gumbo.Database
	loadMu sync.Mutex // serializes read-modify-write bulk loads
}

// New returns a Server with its own gumbo.System.
func New(cfg Config) *Server {
	admit := cfg.ConcurrentJobs
	if admit <= 0 {
		admit = runtime.GOMAXPROCS(0)
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 32 << 20
	}
	queryMem := cfg.QueryMemBudget
	if queryMem < 0 {
		queryMem = 0
	}
	return &Server{
		sys:      gumbo.New(cfg.Options...),
		cache:    newPlanCache(cfg.PlanCacheSize),
		sem:      make(chan struct{}, admit),
		maxBody:  maxBody,
		timeout:  cfg.QueryTimeout,
		mem:      newMemLedger(cfg.MemBudget),
		queryMem: queryMem,
		dbs:      make(map[string]*dbEntry),
		inflight: make(map[uint64]*queryInfo),
	}
}

// System returns the shared gumbo.System (for tests comparing service
// responses with direct library runs under identical configuration).
func (s *Server) System() *gumbo.System { return s.sys }

// Handler returns the HTTP API (see docs/SERVER.md for the reference):
//
//	GET    /healthz              liveness
//	GET    /v1/stats             service counters
//	GET    /v1/dbs               list databases
//	PUT    /v1/db/{db}           create a database
//	GET    /v1/db/{db}           database info (relations, generation)
//	DELETE /v1/db/{db}           drop a database
//	POST   /v1/db/{db}/load      bulk-load relations
//	POST   /v1/db/{db}/query     evaluate an SGF query
//	GET    /v1/db/{db}/queries   list in-flight queries with progress
//	DELETE /v1/db/{db}/query/{id} abort an in-flight query
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/dbs", s.handleListDBs)
	mux.HandleFunc("PUT /v1/db/{db}", s.handleCreateDB)
	mux.HandleFunc("GET /v1/db/{db}", s.handleDBInfo)
	mux.HandleFunc("DELETE /v1/db/{db}", s.handleDropDB)
	mux.HandleFunc("POST /v1/db/{db}/load", s.handleLoad)
	mux.HandleFunc("POST /v1/db/{db}/query", s.handleQuery)
	mux.HandleFunc("GET /v1/db/{db}/queries", s.handleListQueries)
	mux.HandleFunc("DELETE /v1/db/{db}/query/{id}", s.handleAbortQuery)
	return mux
}

// runQuery plans (through the LRU cache) and executes q against the
// entry's database under the admission semaphore. strategyAuto resolves
// via System.Auto. Returns the result and whether the plan was a cache
// hit.
//
// Lifecycle: the run is registered in the in-flight query registry for
// its whole duration (admission wait included), so it is visible to
// the queries endpoint and abortable through the abort endpoint. ctx
// cancellation — client disconnect, the per-query deadline
// (Config.QueryTimeout), or an abort — unblocks the admission wait and
// stops an executing run at its next task boundary; the admission slot
// is released either way.
//
// The generation is read once, before the cache lookup: a load that
// lands between the read and the run may or may not be visible to the
// run (the same holds for a direct library call), but the cache key is
// consistent — a plan is only ever reused for the exact generation it
// was stored under.
//
// Memory governance (see memory.go): once the plan is known, the query
// reserves its predicted bytes against the global ledger — a
// reservation that does not fit is rejected with errServerBusy (503)
// before any engine work — and the run itself is charged against a
// fresh per-query budget, aborting with gumbo.ErrBudgetExceeded (413)
// if it outgrows the cap.
//
// Panic containment: runQuery is the query boundary — a panic escaping
// the engine (or the planner) is recovered here, after the pool has
// joined its workers and the run entry points have removed the run's
// spill files, and converted into errQueryPanicked (500). The deferred
// unregister, admission release and ledger release all run on the
// unwind, so a panicking query leaks nothing and the server keeps
// serving.
func (s *Server) runQuery(ctx context.Context, dbe *dbEntry, q *gumbo.Query, strategy gumbo.Strategy) (res *gumbo.Result, hit bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.panicked.Add(1)
			res, hit, err = nil, false, fmt.Errorf("%w: %v", errQueryPanicked, v)
		}
	}()
	if strategy == strategyAuto {
		strategy = s.sys.Auto(q)
	}
	if s.timeout > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, s.timeout)
		defer cancelTimeout()
	}
	ctx, qi := s.register(ctx, dbe, q, strategy)
	defer s.unregister(qi)
	// The admission slot covers planning too: on a cache miss,
	// cost-based planning samples the database (real engine work that
	// must not run unbounded). A canceled query gives up its place in
	// the admission queue immediately.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	s.active.Add(1)
	qi.markRunning()
	defer func() {
		s.active.Add(-1)
		<-s.sem
	}()
	gen := dbe.db.Generation()
	key := planKey(dbe.id, gen, strategy, q.String())
	plan, hit := s.cache.get(key)
	if !hit {
		plan, err = s.sys.Plan(q, dbe.db, strategy)
		if err != nil {
			return nil, false, err
		}
		s.cache.put(key, plan)
	}
	if s.mem.cap > 0 {
		need := s.sys.PredictBytes(plan, dbe.db)
		if s.queryMem > 0 && need > s.queryMem {
			// The per-query budget would abort the run before it could
			// charge more than this anyway.
			need = s.queryMem
		}
		if !s.mem.reserve(need) {
			s.shed.Add(1)
			return nil, false, errServerBusy
		}
		defer s.mem.release(need)
	}
	res, err = s.sys.RunPlanCtx(ctx, plan, dbe.db, gumbo.RunOptions{Progress: qi.progress, Budget: gumbo.NewBudget(s.queryMem)})
	return res, hit, err
}

func (s *Server) lookup(name string) *dbEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dbs[name]
}

// ---- handlers ----

func (s *Server) handleCreateDB(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("db")
	if !validDBName(name) {
		writeError(w, http.StatusBadRequest, "invalid database name %q (want 1-64 chars of [A-Za-z0-9_.-])", name)
		return
	}
	s.mu.Lock()
	if _, exists := s.dbs[name]; exists {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "database %q already exists", name)
		return
	}
	dbe := &dbEntry{
		name: name,
		id:   fmt.Sprintf("%s#%d", name, s.dbSeq.Add(1)),
		db:   gumbo.NewDatabase(),
	}
	s.dbs[name] = dbe
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{"db": name})
}

func (s *Server) handleDropDB(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("db")
	s.mu.Lock()
	dbe, exists := s.dbs[name]
	delete(s.dbs, name)
	s.mu.Unlock()
	if !exists {
		writeError(w, http.StatusNotFound, "database %q not found", name)
		return
	}
	s.cache.purgeDB(dbe.id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleListDBs(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{"dbs": names})
}

// relationInfo describes one relation in info/load responses.
type relationInfo struct {
	Name  string `json:"name"`
	Arity int    `json:"arity"`
	Size  int    `json:"size"`
	Added int    `json:"added,omitempty"`
}

func (s *Server) handleDBInfo(w http.ResponseWriter, r *http.Request) {
	dbe := s.lookup(r.PathValue("db"))
	if dbe == nil {
		writeError(w, http.StatusNotFound, "database %q not found", r.PathValue("db"))
		return
	}
	relations := dbe.db.Relations()
	rels := make([]relationInfo, 0, len(relations)) // non-nil: empty db encodes as []
	for _, rel := range relations {
		rels = append(rels, relationInfo{Name: rel.Name(), Arity: rel.Arity(), Size: rel.Size()})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"db":         dbe.name,
		"generation": dbe.db.Generation(),
		"relations":  rels,
	})
}

// handleLoad bulk-loads the relations of a load body (see load.go for
// its grammar). Tuple values are JSON integers or strings.
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	dbe := s.lookup(r.PathValue("db"))
	if dbe == nil {
		writeError(w, http.StatusNotFound, "database %q not found", r.PathValue("db"))
		return
	}
	// The body buffer grows with the bytes actually read, up to the cap:
	// nothing is sized from Content-Length.
	buf := loadPool.Get().(*loadBuffers)
	defer loadPool.Put(buf)
	buf.body.Reset()
	_, readErr := buf.body.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody))
	req, err := parseLoad(buf, readErr == nil)
	if readErr != nil && errors.Is(err, errTruncated) {
		err = readErr
	}
	if err != nil {
		writeError(w, bodyErrorStatus(err), "bad load request: %v", err)
		return
	}
	if len(req) == 0 {
		writeError(w, http.StatusBadRequest, "load request names no relations")
		return
	}
	// Loads into one database are serialized: loading merges the current
	// relation's rows with the body's into a new relation and publishes
	// it (relations are immutable once in a database), which would lose
	// tuples under a concurrent read-modify-write.
	dbe.loadMu.Lock()
	defer dbe.loadMu.Unlock()
	// Two passes make the request atomic: decode and validate everything
	// first, publish only if the whole payload is good — a 400 response
	// guarantees the database is untouched. pending accumulates per name
	// so a relation listed twice in one request merges instead of the
	// later entry overwriting the earlier one.
	pending := make(map[string]*gumbo.Relation, len(req))
	var order []string
	infos := make([]relationInfo, 0, len(req))
	for _, rp := range req {
		if rp.name == "" || rp.arity <= 0 {
			writeError(w, http.StatusBadRequest, "relation needs a name and a positive arity (got %q/%d)", rp.name, rp.arity)
			return
		}
		// Widths first, so nothing below is sized from the declared arity
		// alone: rows × arity is then what the body itself held.
		if ti, width := rp.misfit(); ti >= 0 {
			writeError(w, http.StatusBadRequest, "relation %s tuple %d: got %d values, want %d", rp.name, ti, width, rp.arity)
			return
		}
		// prev is what this entry loads into: the relation an earlier
		// entry of this body built, else the published one, else none.
		prev, seen := pending[rp.name]
		if seen {
			if prev.Arity() != rp.arity {
				writeError(w, http.StatusBadRequest, "relation %s listed twice with arities %d and %d", rp.name, prev.Arity(), rp.arity)
				return
			}
		} else {
			if prev = dbe.db.Relation(rp.name); prev != nil && prev.Arity() != rp.arity {
				writeError(w, http.StatusBadRequest, "relation %s exists with arity %d, load says %d", rp.name, prev.Arity(), rp.arity)
				return
			}
			order = append(order, rp.name)
		}
		if rp.bad != nil {
			writeError(w, http.StatusBadRequest, "relation %s tuple %d: %v", rp.name, rp.badRow, rp.bad)
			return
		}
		rel, base := prev, 0
		if prev != nil {
			base = prev.Size()
		}
		if prev == nil || rp.rows > 0 {
			// One dedup pass over the old rows, then the body's, hashing
			// each row once. Merge adopts a lone buffer, so the old rows
			// go only beside the body's, and the body's pooled values go
			// alone only as a copy: the published slab is never written,
			// and the pool's values never kept.
			var old *relation.Rows
			vals := rp.vals
			if base > 0 {
				old = relation.RowsIn(prev)
			} else {
				vals = slices.Clone(vals)
			}
			rel = relation.Merge(rp.name, rp.arity, []*relation.Rows{old, relation.RowsOf(rp.arity, vals)})
		}
		pending[rp.name] = rel
		infos = append(infos, relationInfo{Name: rp.name, Arity: rp.arity, Size: rel.Size(), Added: rel.Size() - base})
	}
	for _, name := range order {
		dbe.db.Put(pending[name])
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"db":         dbe.name,
		"generation": dbe.db.Generation(),
		"relations":  infos,
	})
}

// queryRequest is the query payload. Strategy is one of the names in the
// strategy cheat-sheet ("GREEDY", "GREEDY-SGF", ...) or "auto"/empty for
// System.Auto. Older clients' "batch" field is accepted and ignored:
// the decoder skips unknown fields.
type queryRequest struct {
	Query    string `json:"query"`
	Strategy string `json:"strategy"`
}

// queryResponse is the query result. Tuples are in sorted order — the
// canonical rendering, identical to a direct library run — and already
// JSON (encodeTuples).
type queryResponse struct {
	Output      string          `json:"output"`
	Arity       int             `json:"arity"`
	Tuples      json.RawMessage `json:"tuples"`
	Strategy    string          `json:"strategy"`
	Plan        planInfo        `json:"plan"`
	Metrics     metricsInfo     `json:"metrics"`
	Jobs        []jobInfo       `json:"jobs"`
	Cache       string          `json:"cache"`      // "hit" | "miss"
	BatchSize   int             `json:"batch_size"` // always 1: every run answers one query
	Fingerprint string          `json:"fingerprint"`
}

// planInfo summarizes the executed plan.
type planInfo struct {
	Jobs   int `json:"jobs"`
	Rounds int `json:"rounds"`
}

// metricsInfo mirrors gumbo.Metrics on the wire.
type metricsInfo struct {
	NetTimeSec   float64 `json:"net_time_s"`
	TotalTimeSec float64 `json:"total_time_s"`
	InputMB      float64 `json:"input_mb"`
	CommMB       float64 `json:"comm_mb"`
	OutputMB     float64 `json:"output_mb"`
	Jobs         int     `json:"jobs"`
	Rounds       int     `json:"rounds"`
}

// jobInfo mirrors one gumbo.JobStats on the wire (per-job metrics).
type jobInfo struct {
	Name        string  `json:"name"`
	InputMB     float64 `json:"input_mb"`
	InterMB     float64 `json:"inter_mb"`
	OutputMB    float64 `json:"output_mb"`
	Records     int64   `json:"records"`
	MapTasks    int     `json:"map_tasks"`
	ReduceTasks int     `json:"reduce_tasks"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	dbe := s.lookup(r.PathValue("db"))
	if dbe == nil {
		writeError(w, http.StatusNotFound, "database %q not found", r.PathValue("db"))
		return
	}
	var req queryRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, bodyErrorStatus(err), "bad query request: %v", err)
		return
	}
	q, err := gumbo.Parse(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	strategy := strategyAuto
	if req.Strategy != "" && req.Strategy != "auto" {
		strategy = gumbo.Strategy(req.Strategy)
		if !slices.Contains(strategies, strategy) {
			writeError(w, http.StatusBadRequest, "unknown strategy %q", req.Strategy)
			return
		}
	}
	s.queries.Add(1)

	res, hit, err := s.runQuery(r.Context(), dbe, q, strategy)
	if err != nil {
		status := queryErrorStatus(err)
		if status == http.StatusServiceUnavailable {
			// Shed load is transient: committed reservations drain as
			// running queries finish.
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, "%v", err)
		return
	}
	rel := res.Outputs.Relation(q.Name())
	if rel == nil {
		writeError(w, http.StatusInternalServerError, "run produced no relation %q", q.Name())
		return
	}
	cache := "miss"
	if hit {
		cache = "hit"
	}
	resp := queryResponse{
		Output:      q.Name(),
		Arity:       rel.Arity(),
		Tuples:      encodeTuples(rel),
		Strategy:    string(res.Plan.Strategy()),
		Plan:        planInfo{Jobs: res.Plan.Jobs(), Rounds: res.Metrics.Rounds},
		Metrics:     encodeMetrics(res.Metrics),
		Jobs:        encodeJobs(res.JobStats),
		Cache:       cache,
		BatchSize:   1,
		Fingerprint: fmt.Sprintf("%016x", q.Fingerprint()),
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses, size := s.cache.counters()
	s.mu.RLock()
	ndbs := len(s.dbs)
	s.mu.RUnlock()
	s.qmu.Lock()
	nflight := len(s.inflight)
	s.qmu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"databases":          ndbs,
		"queries":            s.queries.Load(),
		"batch_runs":         0, // kept for old clients; see docs/SERVER.md
		"batched_queries":    0,
		"merge_fallbacks":    0,
		"plan_cache_hits":    hits,
		"plan_cache_misses":  misses,
		"plan_cache_size":    size,
		"active_runs":        s.active.Load(),
		"admission_capacity": cap(s.sem),
		"inflight_queries":   nflight,
		"queries_aborted":    s.aborted.Load(),
		"queries_shed":       s.shed.Load(),
		"queries_panicked":   s.panicked.Load(),
		"mem_budget_bytes":   s.mem.cap,
		"mem_committed":      s.mem.load(),
		"query_mem_bytes":    s.queryMem,
	})
}

// ---- encoding helpers ----

// encodeTuples writes a relation's tuples as a JSON array in sorted
// order: integers as JSON numbers, interned strings as JSON strings.
// Rows are sorted by their encoded values (integers before strings per
// column, integers numerically, strings by text) — NOT by raw Value
// handles, whose string portion depends on process-global intern order
// — so the wire form is canonical: a function of relation contents
// only, independent of insertion order, scheduling, caching,
// and of what other requests the process served earlier.
func encodeTuples(rel *gumbo.Relation) json.RawMessage {
	n, arity := rel.Size(), rel.Arity()
	// texts[i*arity+j] is the text of string value j of row i, looked up
	// once; nil while the relation holds integers only.
	var texts []string
	for i := 0; i < n; i++ {
		for j, v := range rel.Tuple(i) {
			if v.IsString() {
				if texts == nil {
					texts = make([]string, n*arity)
				}
				texts[i*arity+j] = v.Text()
			}
		}
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	slices.SortFunc(rows, func(a, b int) int {
		ta, tb := rel.Tuple(a), rel.Tuple(b)
		for j, va := range ta {
			switch vb := tb[j]; {
			case va == vb:
			case !va.IsString() && !vb.IsString():
				return cmp.Compare(va, vb)
			case !va.IsString():
				return -1 // integers sort before strings
			case !vb.IsString():
				return 1
			default:
				return strings.Compare(texts[a*arity+j], texts[b*arity+j])
			}
		}
		return 0
	})
	out := append(make([]byte, 0, 2+n*(1+4*arity)), '[')
	for k, i := range rows {
		if k > 0 {
			out = append(out, ',')
		}
		out = append(out, '[')
		for j, v := range rel.Tuple(i) {
			if j > 0 {
				out = append(out, ',')
			}
			if v.IsString() {
				out = appendJSONString(out, texts[i*arity+j])
			} else {
				out = strconv.AppendInt(out, int64(v), 10)
			}
		}
		out = append(out, ']')
	}
	return append(out, ']')
}

// appendJSONString appends s as writeJSON's encoder writes it
// (encoding/json with SetEscapeHTML(false)): printable ASCII other than
// the quote and the backslash is copied, and a string holding anything
// else is written by encoding/json itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(s)
			return append(dst, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func encodeMetrics(m gumbo.Metrics) metricsInfo {
	return metricsInfo{
		NetTimeSec:   m.NetTime,
		TotalTimeSec: m.TotalTime,
		InputMB:      m.InputMB,
		CommMB:       m.CommMB,
		OutputMB:     m.OutputMB,
		Jobs:         m.Jobs,
		Rounds:       m.Rounds,
	}
}

func encodeJobs(stats []gumbo.JobStats) []jobInfo {
	out := make([]jobInfo, len(stats))
	for i, st := range stats {
		out[i] = jobInfo{
			Name:        st.Name,
			InputMB:     st.InputMB(),
			InterMB:     st.InterMB(),
			OutputMB:    st.OutputMB,
			Records:     st.Records(),
			MapTasks:    st.MapTasks,
			ReduceTasks: st.ReduceTasks,
		}
	}
	return out
}

// decodeJSON decodes the request body into dst, reading at most the
// server's body limit (past it, decoding fails with an
// *http.MaxBytesError).
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.UseNumber()
	return dec.Decode(dst)
}

// bodyErrorStatus is the status of a request whose body failed to read
// or decode: 413 past the body limit, 400 otherwise.
func bodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}

func validDBName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
		default:
			return false
		}
	}
	return true
}
