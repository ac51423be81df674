// Command gumbo-lab sweeps generated SGF scenarios through every check
// of the lab (docs/LAB.md): every evaluation strategy at several pool
// widths under a differential oracle, the Auto plan under skew
// splitting and spill, and a cancel, a panic and a budget trip injected
// mid-run with clean teardown checked after each. It then calibrates
// the cost model's constants against the measured task times.
//
// Usage:
//
//	gumbo-lab -seeds 20
//	gumbo-lab -seeds 5 -widths 1,2,8 -guard-tuples 500 -out lab
//
// Exit status is 1 when any check fails (each failure is reported with
// a minimal shrunken reproduction), 0 on a clean sweep. With -out P the
// per-run table is written to P-runs.tsv, the per-scenario calibration
// table to P-calibration.tsv, and the full report to P.json.
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
		out         = flag.String("out", "", "output path prefix for TSV/JSON reports")
	)
	flag.Parse()

	scfg := lab.DefaultScenarioConfig()
	swcfg := lab.DefaultSweepConfig()
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
	fmt.Printf("sweeping %d scenarios × %d strategies\n", len(scenarios), len(gumbo.Strategies()))
	rep := lab.RunSweep(scenarios, swcfg)

	var err error
	if rep.Calibration, err = lab.Calibrate(rep.Runs, swcfg.BaseCostConfig()); err != nil {
		fmt.Fprintln(os.Stderr, "gumbo-lab: calibration:", err)
	}
	fmt.Println(rep.Summary())
	if rep.Calibration != nil {
		fmt.Printf("fitted constants: %s\n", rep.Calibration.Fit.CoeffString())
	}
	for _, s := range rep.Skips {
		fmt.Printf("skip %s under %s: %s\n", s.Scenario, s.Strategy, s.Reason)
	}

	if *out != "" {
		writeFile(*out+"-runs.tsv", rep.WriteRunsTSV)
		if rep.Calibration != nil {
			writeFile(*out+"-calibration.tsv", rep.WriteCalibrationTSV)
		}
		writeFile(*out+".json", rep.WriteJSON)
	}

	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "FAIL %s [%s] %s width %d boundary %d: %s\n",
			f.Scenario, f.Check, f.Strategy, f.Width, f.Boundary, f.Detail)
		if f.MinimalSource != "" {
			fmt.Fprintf(os.Stderr, "  minimal reproduction (seed %d):\n%s\n", f.MinimalSeed, indent(f.MinimalSource))
		}
	}
	if len(rep.Failures) > 0 {
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
