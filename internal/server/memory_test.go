package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	gumbo "repro"
	"repro/internal/mr"
)

// These tests pin the server's memory-governance degradation ladder
// (memory.go): per-query budgets abort with 413, a saturated global
// ledger sheds with 503 + Retry-After, and a panicking query fails
// alone with 500 while the server keeps serving. Tests installing
// mr.SetFaultHooks hold a process-wide seam and must not run in
// parallel.

// TestQueryPanicContainment injects a panic into the first engine task
// grant: the query must fail with 500 (the panic is recovered at the
// query boundary, not the process), the registry and admission slot
// must drain, and the very next query must succeed.
func TestQueryPanicContainment(t *testing.T) {
	_, c := newTestClient(t, Config{})
	c.loadBookstore("shop")

	restore := mr.SetFaultHooks(mr.FaultHooks{Grant: func(_ context.Context, n int) {
		if n == 0 {
			panic("injected task fault")
		}
	}})
	defer restore()
	if code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryZ}, nil); code != http.StatusInternalServerError {
		t.Fatalf("panicking query: status %d, want 500", code)
	}
	restore()

	pollUntil(t, "registry and slot to drain after the panic", func() bool {
		s := getStats(c)
		return statInt(t, s, "inflight_queries") == 0 && statInt(t, s, "active_runs") == 0
	})
	if got := statInt(t, getStats(c), "queries_panicked"); got != 1 {
		t.Errorf("queries_panicked %d, want 1", got)
	}
	// The server keeps serving: the panic failed only its own query.
	if code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryZ}, nil); code != http.StatusOK {
		t.Fatalf("query after contained panic: status %d, want 200", code)
	}
	if got := statInt(t, getStats(c), "queries_panicked"); got != 1 {
		t.Errorf("queries_panicked %d after a clean query, want still 1", got)
	}
}

// TestQueryBudgetExceeded413: a one-byte per-query budget aborts every
// run deterministically with 413, the loaded data is untouched, and
// raising the budget lets the same query through.
func TestQueryBudgetExceeded413(t *testing.T) {
	_, c := newTestClient(t, Config{QueryMemBudget: 1})
	c.loadBookstore("shop")
	if code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryZ}, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget query: status %d, want 413", code)
	}
	stats := getStats(c)
	if got := statInt(t, stats, "query_mem_bytes"); got != 1 {
		t.Errorf("query_mem_bytes %d, want the configured 1", got)
	}
	pollUntil(t, "registry to drain after the abort", func() bool {
		s := getStats(c)
		return statInt(t, s, "inflight_queries") == 0 && statInt(t, s, "active_runs") == 0
	})
	// The abort left the database untouched.
	var info map[string]any
	if code := c.do("GET", "/v1/db/shop", nil, &info); code != http.StatusOK {
		t.Fatalf("info after abort: status %d", code)
	}
	if rels := info["relations"].([]any); len(rels) != 3 {
		t.Fatalf("relations after abort: %d, want 3", len(rels))
	}

	// An unbudgeted server runs the identical query fine.
	_, c2 := newTestClient(t, Config{})
	c2.loadBookstore("shop")
	if code := c2.do("POST", "/v1/db/shop/query", map[string]any{"query": queryZ}, nil); code != http.StatusOK {
		t.Fatalf("same query without a budget: status %d, want 200", code)
	}
}

// TestQuerySpillFailure500: a spill file that cannot be created (the
// spill directory is gone) is the host's fault, not the query's — 500,
// not 422 — and fails only that query: the registry drains, the
// database is untouched, and the same query succeeds once the
// directory exists.
func TestQuerySpillFailure500(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	_, c := newTestClient(t, Config{Options: []gumbo.Option{gumbo.WithSpill(1, dir)}})
	c.loadBookstore("shop")
	if code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryZ}, nil); code != http.StatusInternalServerError {
		t.Fatalf("query with a missing spill dir: status %d, want 500", code)
	}
	pollUntil(t, "registry to drain after the spill failure", func() bool {
		s := getStats(c)
		return statInt(t, s, "inflight_queries") == 0 && statInt(t, s, "active_runs") == 0
	})
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryZ}, nil); code != http.StatusOK {
		t.Fatalf("same query with the spill dir present: status %d, want 200", code)
	}
}

// TestGlobalMemoryShed503 walks the load-shedding rung: a parked query
// holds its reservation against a saturated global ledger, so a second
// query is rejected with 503 and a Retry-After hint before any engine
// work; once the first finishes the ledger drains and queries are
// admitted again.
func TestGlobalMemoryShed503(t *testing.T) {
	_, c := newTestClient(t, Config{MemBudget: 1, ConcurrentJobs: 2})
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

	first := make(chan int, 1)
	go func() { first <- c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryZ}, nil) }()
	// An empty ledger always admits one query (the first reservation is
	// never refused, so a tiny budget cannot starve the server); it is
	// now parked mid-engine, holding its reservation.
	<-started

	// Second query: its reservation cannot fit → shed with the header.
	body, err := json.Marshal(map[string]any{"query": queryW})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := c.srv.Client().Post(c.srv.URL+"/v1/db/shop/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second query: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Errorf("503 response carries no Retry-After header")
	}
	stats := getStats(c)
	if got := statInt(t, stats, "queries_shed"); got != 1 {
		t.Errorf("queries_shed %d, want 1", got)
	}
	if got := statInt(t, stats, "mem_budget_bytes"); got != 1 {
		t.Errorf("mem_budget_bytes %d, want the configured 1", got)
	}
	if got := statInt(t, stats, "mem_committed"); got <= 0 {
		t.Errorf("mem_committed %d while a reservation is held, want > 0", got)
	}

	// Unpark: the first query completes normally (its reservation was a
	// prediction, not a cap) and its reservation is released.
	close(release)
	select {
	case code := <-first:
		if code != http.StatusOK {
			t.Fatalf("parked query: status %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("parked query did not return")
	}
	restore()
	pollUntil(t, "ledger to drain", func() bool {
		return statInt(t, getStats(c), "mem_committed") == 0
	})
	// With the ledger drained, admission works again.
	if code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryW}, nil); code != http.StatusOK {
		t.Fatalf("query after drain: status %d, want 200", code)
	}
}

// TestMemLedgerUnit pins the ledger's admission rule directly: the cap
// disabled, the first-reservation exception, the fit check, and
// release symmetry.
func TestMemLedgerUnit(t *testing.T) {
	if l := newMemLedger(0); !l.reserve(1 << 40) {
		t.Fatalf("disabled ledger refused a reservation")
	}
	l := newMemLedger(100)
	if !l.reserve(1000) {
		t.Fatalf("empty ledger refused the first reservation (starvation guard)")
	}
	if l.reserve(1) {
		t.Fatalf("saturated ledger admitted a second reservation")
	}
	l.release(1000)
	if got := l.load(); got != 0 {
		t.Fatalf("committed %d after release, want 0", got)
	}
	if !l.reserve(60) || !l.reserve(40) {
		t.Fatalf("ledger refused reservations that fit the cap")
	}
	if l.reserve(1) {
		t.Fatalf("ledger admitted past the cap")
	}
	l.release(40)
	if !l.reserve(40) {
		t.Fatalf("ledger refused a reservation after an equal release")
	}
}
