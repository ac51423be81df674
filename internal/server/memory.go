package server

import (
	"errors"
	"sync"
)

// The server's degradation ladder (docs/SERVER.md, "Memory governance"):
// rather than letting concurrent queries allocate until the process
// dies, the server sheds load in stages. Each admitted query reserves
// its cost-model-predicted bytes against a global ledger before it
// runs; when the ledger is saturated, new queries are rejected with 503
// and a Retry-After hint instead of being executed. Each run is then
// governed by a per-query byte budget (gumbo.RunOptions.Budget): a query
// whose actual charges outgrow its budget is aborted deterministically
// with 413, leaving the database untouched. Spill-to-disk (configured
// on the System) lowers resident memory pressure underneath both.

// errServerBusy rejects a query at admission when the global memory
// ledger cannot fit its predicted reservation. Mapped to 503 with a
// Retry-After header: the condition is transient — slots free as
// running queries finish.
var errServerBusy = errors.New("server busy: global memory budget saturated, retry later")

// errQueryPanicked wraps a panic recovered at the query boundary.
// Mapped to 500; the panic fails only its own query — the pool joins
// its workers and the run's registry entry, admission slot, memory
// reservation and spill files are all released on the unwind — so the
// server keeps serving.
var errQueryPanicked = errors.New("internal error: query execution panicked")

// memLedger tracks the per-query byte reservations committed against
// the server-wide memory budget.
type memLedger struct {
	cap int64 // 0 = unlimited (ledger disabled)

	mu        sync.Mutex
	committed int64
}

func newMemLedger(cap int64) *memLedger {
	if cap < 0 {
		cap = 0
	}
	return &memLedger{cap: cap}
}

// reserve commits n bytes, reporting whether the reservation fits. The
// first query is always admitted, even when its prediction alone
// exceeds the cap: an over-cap prediction must degrade to
// one-query-at-a-time service (or a per-query 413 during the run), not
// starve the query forever.
func (l *memLedger) reserve(n int64) bool {
	if l.cap <= 0 {
		return true
	}
	if n < 0 {
		n = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.committed > 0 && l.committed+n > l.cap {
		return false
	}
	l.committed += n
	return true
}

// release returns a reservation to the ledger.
func (l *memLedger) release(n int64) {
	if l.cap <= 0 {
		return
	}
	if n < 0 {
		n = 0
	}
	l.mu.Lock()
	l.committed -= n
	l.mu.Unlock()
}

// load returns the currently committed bytes (stats endpoint).
func (l *memLedger) load() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed
}
