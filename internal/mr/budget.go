package mr

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Memory governance for one query run. A Budget is an atomic byte
// ledger charged at the engine's bulk allocation sites — arena chunks
// (Emitter.open: every rung a task opens, fresh or reopened from its
// worker's free list; the one exact chunk a staged map task seals its
// records into is covered by them), shuffle partitions (shuffleTask:
// their encoded bytes, staged in the worker's buffer and copied back
// into the sealed chunk), merge shards (mergeTask) and spill read-back
// buffers — before the memory is used.
//
// Charges are cumulative and never released mid-run: the total charged
// over a run is a function of the plan and the data alone (each site
// charges a modelled or actual byte count that does not depend on task
// interleaving), so whether a run exceeds its limit is deterministic at
// every pool width — unlike a high-water-mark check, which would trip
// or not depending on how many tasks happened to overlap. The whole
// ledger is released at once when the query ends and the run's state
// becomes garbage. Spilling a shuffle partition reduces resident
// memory, not the charged total: the budget bounds how much memory a
// query asks for over its lifetime, the spill threshold bounds how much
// of it is resident at once.

// ErrBudgetExceeded is the sentinel matched (via errors.Is) by every
// budget-exhaustion error the engine returns.
var ErrBudgetExceeded = errors.New("mr: memory budget exceeded")

// BudgetExceededError is the typed error for a run that charged past
// its byte budget. It matches ErrBudgetExceeded via errors.Is.
type BudgetExceededError struct {
	Limit     int64 // the budget's byte limit
	Charged   int64 // cumulative bytes charged, including the failing charge
	Requested int64 // the charge that crossed the limit
}

func (e *BudgetExceededError) Error() string {
	return fmt.Sprintf("mr: memory budget exceeded: charged %d bytes of a %d-byte budget (failing charge %d)", e.Charged, e.Limit, e.Requested)
}

// Is reports that a BudgetExceededError matches the ErrBudgetExceeded
// sentinel.
func (e *BudgetExceededError) Is(target error) bool { return target == ErrBudgetExceeded }

// Budget is the per-query byte ledger. The zero limit means unlimited:
// the ledger still counts (so MemStats are available) but never aborts.
// A nil *Budget is valid everywhere and observes nothing. Safe for
// concurrent use.
type Budget struct {
	limit        int64
	charged      atomic.Int64
	spilledBytes atomic.Int64
	spilledParts atomic.Int64
}

// NewBudget returns a budget aborting runs that charge more than limit
// bytes; limit <= 0 means count-only (never abort).
func NewBudget(limit int64) *Budget {
	if limit < 0 {
		limit = 0
	}
	return &Budget{limit: limit}
}

// charge adds n bytes to the ledger. Crossing the limit panics with a
// taskAbort carrying a BudgetExceededError: charges happen inside pool
// tasks, whose runner converts the panic into a deterministic run
// failure on the cancellation path (see taskPool.runOne).
func (b *Budget) charge(n int64) {
	if b == nil || n <= 0 {
		return
	}
	total := b.charged.Add(n)
	if b.limit > 0 && total > b.limit {
		panic(taskAbort{err: &BudgetExceededError{Limit: b.limit, Charged: total, Requested: n}})
	}
}

// noteSpill records one spilled shuffle partition of n file bytes.
func (b *Budget) noteSpill(n int64) {
	if b == nil {
		return
	}
	b.spilledBytes.Add(n)
	b.spilledParts.Add(1)
}

// MemStats is the memory accounting of one run, surfaced next to
// JobTimings by exec and gumbo. ChargedBytes, SpilledBytes and
// SpilledParts are modelled quantities, bit-for-bit identical at every
// pool width (the charge sites charge schedule-independent amounts).
type MemStats struct {
	// ChargedBytes is the cumulative bytes charged over the run's
	// lifetime: arena chunks, shuffle partitions, merge shards, spill
	// buffers. It is not a high-water mark — see Budget.
	ChargedBytes int64
	// LimitBytes is the budget's limit (0 = unlimited).
	LimitBytes int64
	// SpilledBytes counts shuffle bytes written to spill files.
	SpilledBytes int64
	// SpilledParts counts shuffle partitions that spilled to disk.
	SpilledParts int64
}

// Stats returns a snapshot of the ledger. Nil-safe.
func (b *Budget) Stats() MemStats {
	if b == nil {
		return MemStats{}
	}
	return MemStats{
		ChargedBytes: b.charged.Load(),
		LimitBytes:   b.limit,
		SpilledBytes: b.spilledBytes.Load(),
		SpilledParts: b.spilledParts.Load(),
	}
}

// grabBytes is the engine's accounted byte-slice allocator: every bulk
// []byte the engine allocates is charged to the run's budget before
// use (the accounting contract; docs/INVARIANTS.md names the test that
// pins each call site). Buffers a worker reuses within a run are
// charged per use instead, and a sealed arena by the rungs it copies.
func grabBytes(b *Budget, n int) []byte {
	b.charge(int64(n))
	return make([]byte, n)
}
