package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/mr"
)

// These tests exercise the query lifecycle layer end to end over HTTP:
// the in-flight registry, the abort endpoint, the per-query deadline,
// and the read-only handlers (list/info/stats) the rest of the suite
// only touched in passing. Tests that install mr.SetFaultHooks hold a
// process-wide seam and must not run in parallel.

// queriesResponse mirrors the queries-endpoint wire shape.
type queriesResponse struct {
	DB      string         `json:"db"`
	Queries []inflightInfo `json:"queries"`
}

// getStats fetches /v1/stats into a generic map.
func getStats(c *testClient) map[string]any {
	var stats map[string]any
	c.do("GET", "/v1/stats", nil, &stats)
	return stats
}

// statInt reads one integer counter out of a stats response.
func statInt(t *testing.T, stats map[string]any, key string) int64 {
	t.Helper()
	num, ok := stats[key].(json.Number)
	if !ok {
		t.Fatalf("stats[%q] = %v (%T), want number", key, stats[key], stats[key])
	}
	n, err := num.Int64()
	if err != nil {
		t.Fatalf("stats[%q] = %v: %v", key, num, err)
	}
	return n
}

// pollUntil retries cond every few milliseconds until it holds or the
// deadline passes (lifecycle transitions — registration, slot release —
// complete asynchronously with respect to the requests that cause them).
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestListDBsSortedAndEmpty: the dbs endpoint reports [] (not null) on
// a fresh server and a sorted name list afterwards.
func TestListDBsSortedAndEmpty(t *testing.T) {
	_, c := newTestClient(t, Config{})
	var list map[string]any
	if code := c.do("GET", "/v1/dbs", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if dbs, ok := list["dbs"].([]any); !ok || dbs == nil || len(dbs) != 0 {
		t.Fatalf("fresh server dbs = %v (%T), want empty array", list["dbs"], list["dbs"])
	}
	for _, name := range []string{"zebra", "alpha", "mid"} {
		if code := c.do("PUT", "/v1/db/"+name, nil, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", name, code)
		}
	}
	c.do("GET", "/v1/dbs", nil, &list)
	if got := fmt.Sprint(list["dbs"]); got != "[alpha mid zebra]" {
		t.Fatalf("dbs not sorted: %s", got)
	}
}

// TestDBInfoContents: the info endpoint reports every loaded relation
// with its arity and size, plus the current generation.
func TestDBInfoContents(t *testing.T) {
	_, c := newTestClient(t, Config{})
	c.loadBookstore("shop")
	var info map[string]any
	if code := c.do("GET", "/v1/db/shop", nil, &info); code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	if info["db"] != "shop" {
		t.Fatalf("info db = %v", info["db"])
	}
	if gen := statInt(t, info, "generation"); gen < 1 {
		t.Fatalf("generation %d after a load, want >= 1", gen)
	}
	want := map[string][2]int64{"R": {2, 4}, "S": {2, 3}, "T": {2, 3}} // name → arity, size
	rels := info["relations"].([]any)
	if len(rels) != len(want) {
		t.Fatalf("info lists %d relations, want %d: %v", len(rels), len(want), rels)
	}
	for _, raw := range rels {
		rel := raw.(map[string]any)
		name := rel["name"].(string)
		w, ok := want[name]
		if !ok {
			t.Fatalf("unexpected relation %q", name)
		}
		if arity := statInt(t, rel, "arity"); arity != w[0] {
			t.Errorf("relation %s arity %d, want %d", name, arity, w[0])
		}
		if size := statInt(t, rel, "size"); size != w[1] {
			t.Errorf("relation %s size %d, want %d", name, size, w[1])
		}
	}
	if code := c.do("GET", "/v1/db/nope", nil, nil); code != http.StatusNotFound {
		t.Fatalf("info on missing db: status %d, want 404", code)
	}
}

// TestStatsCounters: the stats endpoint reflects configuration
// (admission capacity) and traffic (query and plan-cache counters), and
// still sends the micro-batcher's three counters, at 0.
func TestStatsCounters(t *testing.T) {
	_, c := newTestClient(t, Config{ConcurrentJobs: 3})
	stats := getStats(c)
	if got := statInt(t, stats, "admission_capacity"); got != 3 {
		t.Fatalf("admission_capacity %d, want the configured 3", got)
	}
	if got := statInt(t, stats, "databases"); got != 0 {
		t.Fatalf("databases %d on a fresh server", got)
	}
	c.loadBookstore("shop")
	for i := 0; i < 2; i++ {
		if code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryW, "batch": i == 1}, nil); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	stats = getStats(c)
	if got := statInt(t, stats, "databases"); got != 1 {
		t.Errorf("databases %d, want 1", got)
	}
	if got := statInt(t, stats, "queries"); got != 2 {
		t.Errorf("queries %d, want 2", got)
	}
	// Same text twice: first run misses the plan cache, second hits.
	if got := statInt(t, stats, "plan_cache_misses"); got != 1 {
		t.Errorf("plan_cache_misses %d, want 1", got)
	}
	if got := statInt(t, stats, "plan_cache_hits"); got != 1 {
		t.Errorf("plan_cache_hits %d, want 1", got)
	}
	if got := statInt(t, stats, "plan_cache_size"); got != 1 {
		t.Errorf("plan_cache_size %d, want 1", got)
	}
	if got := statInt(t, stats, "inflight_queries"); got != 0 {
		t.Errorf("inflight_queries %d with nothing running", got)
	}
	if got := statInt(t, stats, "active_runs"); got != 0 {
		t.Errorf("active_runs %d with nothing running", got)
	}
	// The micro-batcher's counters stay on the wire for old clients.
	for _, key := range []string{"batch_runs", "batched_queries", "merge_fallbacks"} {
		if got := statInt(t, stats, key); got != 0 {
			t.Errorf("%s %d, want 0", key, got)
		}
	}
}

// TestInflightRegistryAndAbort walks the whole lifecycle with a real
// held query: a fault hook parks the engine so one query occupies the
// single admission slot, a second queues behind it, the queries
// endpoint shows both (running vs queued) with progress attached, the
// abort endpoint cancels each — promptly, even while the engine is
// parked — and once both unwind the slot is observably released.
func TestInflightRegistryAndAbort(t *testing.T) {
	_, c := newTestClient(t, Config{ConcurrentJobs: 1})
	c.loadBookstore("shop")

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	restore := mr.SetFaultHooks(mr.FaultHooks{Grant: func(context.Context, int) {
		once.Do(func() { close(started) })
		<-release
	}})
	defer restore()
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	post := func(src string) chan int {
		done := make(chan int, 1)
		go func() { done <- c.do("POST", "/v1/db/shop/query", map[string]any{"query": src}, nil) }()
		return done
	}
	running := post(queryZ)
	<-started // the first query holds the admission slot, parked mid-run
	queued := post(queryW)

	// Both queries must appear in the registry: one running, one still
	// waiting for admission.
	var rows queriesResponse
	pollUntil(t, "both queries registered", func() bool {
		if code := c.do("GET", "/v1/db/shop/queries", nil, &rows); code != http.StatusOK {
			t.Fatalf("queries endpoint: status %d", code)
		}
		return len(rows.Queries) == 2
	})
	states := map[string]*inflightInfo{}
	for i := range rows.Queries {
		states[rows.Queries[i].State] = &rows.Queries[i]
	}
	run, ok := states["running"]
	if !ok {
		t.Fatalf("no running query in %+v", rows.Queries)
	}
	que, ok := states["queued"]
	if !ok {
		t.Fatalf("no queued query in %+v", rows.Queries)
	}
	if run.ID >= que.ID {
		t.Errorf("running query id %d >= queued id %d; ids not in start order", run.ID, que.ID)
	}
	if run.Progress.JobsTotal < 1 {
		t.Errorf("running query reports jobs_total %d, want >= 1", run.Progress.JobsTotal)
	}
	stats := getStats(c)
	if got := statInt(t, stats, "inflight_queries"); got != 2 {
		t.Errorf("inflight_queries %d, want 2", got)
	}
	if got := statInt(t, stats, "active_runs"); got != 1 {
		t.Errorf("active_runs %d, want 1 (second query is admission-queued)", got)
	}

	// Abort the queued query: it has no engine run to unwind, so its
	// request must fail promptly with 499 even though the engine is
	// still parked.
	if code := c.do("DELETE", fmt.Sprintf("/v1/db/shop/query/%d", que.ID), nil, nil); code != http.StatusOK {
		t.Fatalf("abort queued query: status %d", code)
	}
	select {
	case code := <-queued:
		if code != statusClientClosedRequest {
			t.Fatalf("aborted queued query: status %d, want %d", code, statusClientClosedRequest)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("aborted queued query did not return")
	}

	// Abort the running query, then release the engine: the run unwinds
	// at its next task boundary and the request fails with 499.
	if code := c.do("DELETE", fmt.Sprintf("/v1/db/shop/query/%d", run.ID), nil, nil); code != http.StatusOK {
		t.Fatalf("abort running query: status %d", code)
	}
	close(release)
	select {
	case code := <-running:
		if code != statusClientClosedRequest {
			t.Fatalf("aborted running query: status %d, want %d", code, statusClientClosedRequest)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("aborted running query did not return")
	}
	restore()

	// The slot and registry entries are released...
	pollUntil(t, "registry to drain", func() bool {
		s := getStats(c)
		return statInt(t, s, "inflight_queries") == 0 && statInt(t, s, "active_runs") == 0
	})
	if got := statInt(t, getStats(c), "queries_aborted"); got != 2 {
		t.Errorf("queries_aborted %d, want 2", got)
	}
	// ...and a fresh query reuses the freed slot normally.
	if code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryW}, nil); code != http.StatusOK {
		t.Fatalf("query after aborts: status %d, want 200", code)
	}

	// Abort-endpoint error paths.
	if code := c.do("DELETE", fmt.Sprintf("/v1/db/shop/query/%d", run.ID), nil, nil); code != http.StatusNotFound {
		t.Errorf("abort of finished query: status %d, want 404", code)
	}
	if code := c.do("DELETE", "/v1/db/shop/query/xyz", nil, nil); code != http.StatusBadRequest {
		t.Errorf("abort with bad id: status %d, want 400", code)
	}
	if code := c.do("DELETE", "/v1/db/nope/query/1", nil, nil); code != http.StatusNotFound {
		t.Errorf("abort on missing db: status %d, want 404", code)
	}
	if code := c.do("GET", "/v1/db/nope/queries", nil, nil); code != http.StatusNotFound {
		t.Errorf("queries on missing db: status %d, want 404", code)
	}
}

// TestInflightRegistryIsPerDatabaseInstance: a query parked mid-run on
// a database that is then dropped and re-created under the same name
// belongs to the dropped instance. The new database neither lists nor
// aborts it, and the parked run still finishes normally.
func TestInflightRegistryIsPerDatabaseInstance(t *testing.T) {
	_, c := newTestClient(t, Config{ConcurrentJobs: 1})
	c.loadBookstore("shop")

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	restore := mr.SetFaultHooks(mr.FaultHooks{Grant: func(context.Context, int) {
		once.Do(func() { close(started) })
		<-release
	}})
	defer restore()
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	running := make(chan int, 1)
	go func() { running <- c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryZ}, nil) }()
	<-started
	var rows queriesResponse
	if code := c.do("GET", "/v1/db/shop/queries", nil, &rows); code != http.StatusOK || len(rows.Queries) != 1 {
		t.Fatalf("queries before drop: status %d, %d rows, want 200 and 1", code, len(rows.Queries))
	}
	id := rows.Queries[0].ID

	if code := c.do("DELETE", "/v1/db/shop", nil, nil); code != http.StatusNoContent {
		t.Fatalf("drop db: status %d", code)
	}
	if code := c.do("PUT", "/v1/db/shop", nil, nil); code != http.StatusCreated {
		t.Fatalf("re-create db: status %d", code)
	}
	if code := c.do("GET", "/v1/db/shop/queries", nil, &rows); code != http.StatusOK || len(rows.Queries) != 0 {
		t.Errorf("queries on re-created db: status %d, rows %+v, want 200 and none", code, rows.Queries)
	}
	if code := c.do("DELETE", fmt.Sprintf("/v1/db/shop/query/%d", id), nil, nil); code != http.StatusNotFound {
		t.Errorf("abort via re-created db: status %d, want 404", code)
	}

	close(release)
	select {
	case code := <-running:
		if code != http.StatusOK {
			t.Errorf("query on dropped db: status %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("query on dropped db did not return")
	}
}

// TestQueryTimeoutGatewayTimeout: with a per-query deadline configured,
// a query that cannot be admitted in time fails with 504 — the
// deadline covers the admission wait, so this path is deterministic
// (no reliance on how fast the engine executes).
func TestQueryTimeoutGatewayTimeout(t *testing.T) {
	_, c := newTestClient(t, Config{ConcurrentJobs: 1, QueryTimeout: 75 * time.Millisecond})
	c.loadBookstore("shop")

	// The first query's first task parks until the second query has been
	// answered and — whatever the wall clock says — its own run's
	// deadline has fired: the two queries' timers sit on different Ps
	// and fire up to a preemption quantum apart, so the second query's
	// 504 does not prove the first one's context is dead yet. If the
	// run's context is not the query's, it never fires: the test fails
	// below, and closing ended on exit unparks the task so the server
	// can shut down.
	started := make(chan struct{})
	release := make(chan struct{})
	ended := make(chan struct{})
	var once sync.Once
	restore := mr.SetFaultHooks(mr.FaultHooks{Grant: func(ctx context.Context, _ int) {
		once.Do(func() { close(started) })
		<-release
		select {
		case <-ctx.Done():
		case <-ended:
		}
	}})
	defer restore()
	defer close(ended)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	first := make(chan int, 1)
	go func() { first <- c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryZ}, nil) }()
	<-started

	// The slot is held: the second query waits in admission until its
	// 75ms deadline expires.
	if code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryW}, nil); code != http.StatusGatewayTimeout {
		t.Fatalf("admission-starved query: status %d, want 504", code)
	}
	close(release)
	// The parked query's own deadline expired while it was held; its
	// run unwinds to 504 as well.
	select {
	case code := <-first:
		if code != http.StatusGatewayTimeout {
			t.Fatalf("expired running query: status %d, want 504", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("expired query did not return")
	}
}

// TestClientDisconnectCancelsRun: a client that hangs up cancels its
// query's engine run, so the run's context must be the request's — with
// the ignored "batch" field set, too. The first task parks until its
// run's context is done; if that context is not the request's it never
// is, the test fails, and closing ended on exit unparks the task so the
// server can shut down.
func TestClientDisconnectCancelsRun(t *testing.T) {
	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("batch=%v", batch), func(t *testing.T) { clientDisconnectCancelsRun(t, batch) })
	}
}

func clientDisconnectCancelsRun(t *testing.T, batch bool) {
	_, c := newTestClient(t, Config{ConcurrentJobs: 1})
	c.loadBookstore("shop")

	started := make(chan struct{})
	canceled := make(chan struct{})
	ended := make(chan struct{})
	var startOnce, cancelOnce sync.Once
	restore := mr.SetFaultHooks(mr.FaultHooks{Grant: func(ctx context.Context, _ int) {
		startOnce.Do(func() { close(started) })
		select {
		case <-ctx.Done():
			cancelOnce.Do(func() { close(canceled) })
		case <-ended:
		}
	}})
	defer restore()
	defer close(ended)

	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	body, err := json.Marshal(map[string]any{"query": queryZ, "batch": batch})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, "POST", c.srv.URL+"/v1/db/shop/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := c.srv.Client().Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("query never started")
	}
	hangUp()
	select {
	case <-canceled:
	case <-time.After(10 * time.Second):
		t.Fatal("client hang-up did not cancel the engine run")
	}
	<-done
	var rows queriesResponse
	pollUntil(t, "the canceled query to unregister", func() bool {
		c.do("GET", "/v1/db/shop/queries", nil, &rows)
		return len(rows.Queries) == 0
	})
}
