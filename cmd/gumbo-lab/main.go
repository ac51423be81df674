// Command gumbo-lab sweeps generated SGF scenarios through every
// evaluation strategy at several pool widths, cross-checking all runs
// with a differential oracle, and calibrates the cost model's constants
// against the measured task times.
//
// Usage:
//
//	gumbo-lab -seeds 20
//	gumbo-lab -seeds 5 -widths 1,2,8 -guard-tuples 500 -out lab
//	gumbo-lab -short
//	gumbo-lab -cancel -seeds 5
//	gumbo-lab -faults -seeds 5
//	gumbo-lab -skew -seeds 5
//
// Exit status is 1 when any divergence is found (each is reported with
// a minimal shrunken reproduction), 0 on a clean sweep. With -out P the
// per-run table is written to P-runs.tsv, the per-scenario calibration
// table to P-calibration.tsv, and the full report to P.json.
//
// With -cancel the sweep instead cancels each scenario's run at a
// seeded random task boundary and checks the engine's cancellation
// contract: context.Canceled within a bounded number of task grants,
// untouched input data, no goroutine leaks, and a bit-for-bit clean
// re-run afterwards.
//
// With -faults the sweep injects failures instead: each scenario (run
// with spill forced on) gets a task panic at a seeded random grant
// index and a memory budget seeded below its real charge, checking the
// typed errors (re-raised sentinel, gumbo.ErrBudgetExceeded), untouched
// input data, no goroutine or spill temp-file leaks, and bit-for-bit
// clean re-runs.
//
// With -skew each scenario's zipf and dense variants run with runtime
// skew splitting off and on at every width: outputs and stats must be
// bit-for-bit identical (up to the split observability fields), and the
// sweep reports how much the heaviest reduce task shrank on the runs
// that split.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	gumbo "repro"
	"repro/internal/lab"
)

func main() {
	var (
		seeds       = flag.Int("seeds", 20, "number of generated scenarios (seeds 1..N)")
		widths      = flag.String("widths", "", "comma-separated pool widths (default 1,4,GOMAXPROCS)")
		guardTuples = flag.Int("guard-tuples", 0, "tuples per guard relation (default 2000)")
		condTuples  = flag.Int("cond-tuples", 0, "tuples per conditional relation (default 2000)")
		scale       = flag.Float64("scale", 0, "cost-config scale (default 1e-4)")
		noShrink    = flag.Bool("no-shrink", false, "skip shrinking failing scenarios")
		short       = flag.Bool("short", false, "small smoke sweep: few seeds, small data, widths 1,2")
		cancelMode  = flag.Bool("cancel", false, "cancellation sweep: cancel each scenario at a seeded task boundary and check clean teardown")
		faultsMode  = flag.Bool("faults", false, "fault sweep: inject task panics and budget exhaustion, check typed errors and clean teardown")
		skewMode    = flag.Bool("skew", false, "skew sweep: run zipf/dense scenario variants with runtime splitting off and on, check bit-for-bit agreement and report the balance gain")
		out         = flag.String("out", "", "output path prefix for TSV/JSON reports")
	)
	flag.Parse()

	scfg := lab.DefaultScenarioConfig()
	swcfg := lab.DefaultSweepConfig()
	if *short {
		*seeds = min(*seeds, 3)
		scfg.GuardTuples, scfg.CondTuples = 300, 300
		swcfg.Widths = []int{1, 2}
	}
	if *guardTuples > 0 {
		scfg.GuardTuples = *guardTuples
	}
	if *condTuples > 0 {
		scfg.CondTuples = *condTuples
	}
	if *scale > 0 {
		swcfg.Scale = *scale
	}
	if *widths != "" {
		ws, err := parseWidths(*widths)
		fatalIf(err)
		swcfg.Widths = ws
	}
	swcfg.Shrink = !*noShrink

	scenarios := lab.GenScenarios(*seeds, scfg)
	if *skewMode {
		fmt.Printf("skew-sweeping %d scenarios (zipf/dense variants, split off vs on)\n", len(scenarios))
		rep := lab.RunSkewSweep(scenarios, swcfg)
		fmt.Printf("%d runs over %d scenario variants, %d split, %d violations\n",
			len(rep.Records), rep.Scenarios, rep.SplitRuns(), len(rep.Failures))
		fmt.Printf("heaviest reduce task shrank %.2fx max, %.2fx mean over split runs\n",
			rep.MaxImprovement(), rep.MeanImprovement())
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "SKEW VIOLATION %s width %d: %s\n", f.Scenario, f.Width, f.Detail)
		}
		if len(rep.Failures) > 0 {
			os.Exit(1)
		}
		return
	}
	if *faultsMode {
		fmt.Printf("fault-sweeping %d scenarios\n", len(scenarios))
		rep := lab.RunFaultSweep(scenarios, swcfg)
		fmt.Printf("%d fault injections across %d scenarios, %d violations\n",
			rep.Checks, rep.Scenarios, len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "FAULT VIOLATION %s [%s @ %d]: %s\n", f.Scenario, f.Mode, f.Boundary, f.Detail)
		}
		if len(rep.Failures) > 0 {
			os.Exit(1)
		}
		return
	}
	if *cancelMode {
		fmt.Printf("cancel-sweeping %d scenarios\n", len(scenarios))
		rep := lab.RunCancelSweep(scenarios, swcfg)
		fmt.Printf("%d scenarios canceled cleanly, %d violations\n",
			rep.Scenarios-len(rep.Failures), len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "CANCEL VIOLATION %s at task boundary %d: %s\n", f.Scenario, f.Boundary, f.Detail)
		}
		if len(rep.Failures) > 0 {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("sweeping %d scenarios × %d strategies\n", len(scenarios), len(gumbo.Strategies()))
	res := lab.RunSweep(scenarios, swcfg)

	cal, err := lab.Calibrate(res.Runs, swcfg.BaseCostConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "gumbo-lab: calibration:", err)
	}
	rep := lab.NewReport(res, cal)
	fmt.Println(rep.Summary())
	if cal != nil {
		fmt.Printf("fitted constants: %s\n", cal.Fit.CoeffString())
	}
	for _, s := range res.Skips {
		fmt.Printf("skip %s under %s: %s\n", s.Scenario, s.Strategy, s.Reason)
	}

	if *out != "" {
		writeFile(*out+"-runs.tsv", rep.WriteRunsTSV)
		if cal != nil {
			writeFile(*out+"-calibration.tsv", rep.WriteCalibrationTSV)
		}
		writeFile(*out+".json", rep.WriteJSON)
	}

	for _, d := range res.Divergences {
		fmt.Fprintf(os.Stderr, "DIVERGENCE %s under %s width %d: %s\n", d.Scenario, d.Strategy, d.Width, d.Detail)
		if d.MinimalSource != "" {
			fmt.Fprintf(os.Stderr, "  minimal reproduction (seed %d):\n%s\n", d.MinimalSeed, indent(d.MinimalSource))
		}
	}
	if len(res.Divergences) > 0 {
		os.Exit(1)
	}
}

func parseWidths(s string) ([]int, error) {
	var ws []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad width %q", part)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	fatalIf(err)
	fatalIf(write(f))
	fatalIf(f.Close())
	fmt.Printf("wrote %s\n", path)
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ")
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gumbo-lab:", err)
		os.Exit(1)
	}
}
