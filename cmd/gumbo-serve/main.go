// Command gumbo-serve runs the gumbo query service: a long-running HTTP
// JSON API for creating databases, bulk-loading relations and evaluating
// SGF queries concurrently on one shared gumbo.System, with plan caching
// (see docs/SERVER.md for the API reference and a curl walkthrough).
//
// Usage:
//
//	gumbo-serve [-addr :8080] [-workers N] [-jobs N] [-cache 128]
//	            [-max-body N] [-query-timeout 0] [-scale 0.001]
//	            [-mem-budget 0] [-query-mem 0]
//	            [-spill-threshold 0] [-spill-dir DIR] [-skew-split 0]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	gumbo "repro"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "engine worker pool for all plan tasks (0 = GOMAXPROCS)")
		jobs         = flag.Int("jobs", 0, "admission capacity: concurrently executing plans (0 = GOMAXPROCS)")
		cacheSize    = flag.Int("cache", 128, "plan-cache capacity (entries)")
		maxBody      = flag.Int64("max-body", 32<<20, "request body size cap in bytes")
		queryTimeout = flag.Duration("query-timeout", 0, "per-query deadline incl. admission wait; expired runs return 504 (0 disables)")
		scale        = flag.Float64("scale", 1, "cost-model scale factor (fraction of the paper's data sizes)")
		memBudget    = flag.Int64("mem-budget", 0, "server-wide memory budget in bytes; saturated admission returns 503 (0 = unlimited)")
		queryMem     = flag.Int64("query-mem", 0, "per-query memory budget in bytes; over-budget queries return 413 (0 = unlimited)")
		spillThresh  = flag.Int64("spill-threshold", 0, "spill shuffle partitions at this many bytes (0 = off)")
		spillDir     = flag.String("spill-dir", "", "directory for spill temp files (empty = system temp dir)")
		skewSplit    = flag.Float64("skew-split", 0, "split reduce partitions heavier than this ratio x the mean load (0 = off)")
	)
	flag.Parse()
	if err := checkSkewSplit(*skewSplit); err != nil {
		log.Fatalf("gumbo-serve: -skew-split: %v", err)
	}
	if *spillThresh > 0 {
		// Fail at start-up, not with a 500 on the first query that spills.
		if err := checkSpillDir(*spillDir); err != nil {
			log.Fatalf("gumbo-serve: -spill-dir is not a writable directory: %v", err)
		}
	}

	cfg := server.Config{
		ConcurrentJobs: *jobs,
		PlanCacheSize:  *cacheSize,
		MaxBodyBytes:   *maxBody,
		QueryTimeout:   *queryTimeout,
		MemBudget:      *memBudget,
		QueryMemBudget: *queryMem,
		Options: []gumbo.Option{
			gumbo.WithHostWorkers(*workers),
			gumbo.WithSpill(*spillThresh, *spillDir),
			gumbo.WithSkewSplit(*skewSplit),
		},
	}
	if *scale != 1 {
		cfg.Options = append(cfg.Options, gumbo.WithScale(*scale))
	}
	srv := server.New(cfg)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("gumbo-serve listening on %s (cache %d entries)", *addr, *cacheSize)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("gumbo-serve: %v", err)
	case <-ctx.Done():
		log.Printf("gumbo-serve: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("gumbo-serve: shutdown: %v", err)
		}
	}
}

// checkSkewSplit rejects a non-finite -skew-split ratio: flag.Float64
// parses NaN and Inf, and neither is a ratio a partition load can be
// compared with.
func checkSkewSplit(ratio float64) error {
	if math.IsNaN(ratio) || math.IsInf(ratio, 0) {
		return fmt.Errorf("ratio %v is not finite", ratio)
	}
	return nil
}

// checkSpillDir reports whether spill files can be created in dir
// ("" = the system temp dir, as the engine resolves it) by creating and
// removing one.
func checkSpillDir(dir string) error {
	f, err := os.CreateTemp(dir, "gumbo-spill-probe-*")
	if err != nil {
		return err
	}
	f.Close()
	return os.Remove(f.Name())
}
