// Command gumbo-bench regenerates the paper's evaluation tables and
// figures (§5) on the in-process engine and cluster simulator.
//
// Usage:
//
//	gumbo-bench                      # the full suite at scale 1/1000
//	gumbo-bench -scale 0.01          # closer to paper scale (slower)
//	gumbo-bench -exp E1,E3           # selected experiments
//	gumbo-bench -list                # list experiment ids
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0.001, "fraction of the paper's data sizes")
		expList  = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		nodes    = flag.Int("nodes", 10, "simulated cluster nodes")
		verify   = flag.Bool("verify", false, "cross-check outputs against the reference evaluator")
		workers  = flag.Int("workers", 0, "host worker pool for all engine tasks (0 = GOMAXPROCS, 1 = sequential)")
		progress = flag.Bool("v", false, "log each run")
		list     = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Name)
		}
		return
	}

	cfg := experiments.At(*scale)
	cfg.Cluster.Nodes = *nodes
	cfg.HostWorkers = *workers
	if *verify {
		cfg.Verify = true
	}
	if *progress {
		cfg.Progress = os.Stderr
	}

	// An interrupt cancels the running experiment at the engine's next
	// task boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *expList == "" {
		if err := experiments.RunAll(ctx, cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "gumbo-bench:", err)
			os.Exit(1)
		}
		return
	}
	for _, id := range strings.Split(*expList, ",") {
		e := experiments.ByID(strings.TrimSpace(id))
		if e == nil {
			fmt.Fprintf(os.Stderr, "gumbo-bench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		table, err := e.Run(ctx, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gumbo-bench:", err)
			os.Exit(1)
		}
		table.Render(os.Stdout)
	}
}
