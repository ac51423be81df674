// Command bench is gumbo's one benchmark: four closed-loop workloads
// against the unmodified program, each measured in rounds whose medians
// are reported, with every output verified. README.md defines the
// metrics and the noise protocol; BENCHMARK.json at the repository root
// is the contract a driver runs it by.
//
// It imports only repro, repro/internal/server and
// repro/internal/workload, so that refactors behind those surfaces
// cannot break it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// commit is set by run.sh (-ldflags -X).
var commit = "unknown"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 20, "length of each measured phase")
	trace := fs.Int("trace", 2, "0: measured pass (end-to-end metrics), 1: traced pass (per-layer metrics), 2: both")
	repeat := fs.Int("repeat", 0, "A/A mode: run the measured pass N times, interleaved, and compare against BENCHMARK.json's bounds")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for trace files, result.json and spill files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The engine reads these when an option is 0; set, they would turn
	// nested-sgf into a governed run.
	os.Unsetenv("GUMBO_SPILL_THRESHOLD")
	os.Unsetenv("GUMBO_SKEW_SPLIT")

	todo := specs
	if *name != "" {
		todo = nil
		for _, sp := range specs {
			if sp.name == *name {
				todo = []spec{sp}
			}
		}
		if todo == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(filepath.Join(*out, "spill"))
	if *repeat > 0 {
		return aa(todo, *repeat, *seed, *seconds, *out, stdout, stderr)
	}
	sent, err := newSentinel(60 * time.Millisecond)
	if err != nil {
		fmt.Fprintln(stderr, "bench: sentinel:", err)
		return 1
	}
	cfg := config{
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		minRounds: 4,
		setups:    3,
		sentinel:  sent,
		outDir:    *out,
	}

	doc := document{Host: hostInfo(), Seed: *seed, Seconds: *seconds}
	failed := false
	var last *result
	for _, sp := range todo {
		for pass := 0; pass < 2; pass++ {
			if *trace != 2 && *trace != pass {
				continue
			}
			res, err := runWorkload(cfg, sp, pass == 1)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			printTable(stdout, res)
			doc.Passes = append(doc.Passes, res.wire(true))
			failed = failed || res.Failed > 0
			last = res
		}
	}
	if b, err := json.MarshalIndent(doc, "", " "); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	} else if err := os.WriteFile(filepath.Join(*out, "result.json"), b, 0o644); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if len(todo) == 1 && *trace != 2 {
		// The driver's contract: the last line is one JSON object.
		b, _ := json.Marshal(last.wire(false)) // plain numbers and strings: cannot fail
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if failed {
		return 1
	}
	return 0
}

// document is result.json: every pass of the invocation and the host it
// ran on.
type document struct {
	Host    host       `json:"host"`
	Seed    int64      `json:"seed"`
	Seconds int        `json:"seconds"`
	Passes  []wirePass `json:"passes"`
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit}
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wirePass is a result as JSON; without the labels it has exactly the
// keys the driver expects.
type wirePass struct {
	Workload  string                `json:"workload,omitempty"`
	Pass      string                `json:"pass,omitempty"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

func (r *result) wire(labels bool) wirePass {
	w := wirePass{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]wireMetric)}
	for _, m := range r.Metrics {
		w.Metrics[m.Name] = wireMetric{m.Value, m.Unit}
	}
	if labels {
		w.Workload, w.Pass = r.Workload, r.pass()
	}
	return w
}

func printTable(w io.Writer, r *result) {
	fmt.Fprintf(w, "== %s (%s pass): %d ops attempted, %d failed\n", r.Workload, r.pass(), r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-26s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range r.Raw {
		fmt.Fprintf(w, "%-26s %14.6g %s\n", "raw."+m.Name, m.Value, m.Unit)
	}
}

// aa runs the measured pass of every workload n times, passes
// interleaved and each in a process of its own, as a driver would, and
// holds each end-to-end metric's largest pairwise relative difference
// against the bound BENCHMARK.json gives it. The uncalibrated values are
// printed beside the calibrated ones.
func aa(todo []spec, n int, seed int64, seconds int, out string, stdout, stderr io.Writer) int {
	var contract struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &contract)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench: -repeat needs the bounds in BENCHMARK.json:", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	values := make(map[string][]float64) // "workload metric" -> one value per pass
	for i := 0; i < n; i++ {
		for _, sp := range todo {
			cmd := exec.Command(exe, "-workload", sp.name, "-trace", "0", "-out", out,
				"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
			cmd.Stderr = stderr
			table, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
				return 1
			}
			// The child's table lines are "name value unit".
			for _, line := range strings.Split(string(table), "\n") {
				f := strings.Fields(line)
				if len(f) != 3 {
					continue
				}
				if v, err := strconv.ParseFloat(f[1], 64); err == nil {
					values[sp.name+" "+f[0]] = append(values[sp.name+" "+f[0]], v)
				}
			}
			fmt.Fprintf(stderr, "pass %d/%d %s done\n", i+1, n, sp.name)
		}
	}
	exceeded := false
	fmt.Fprintf(stdout, "%-12s %-18s %12s %12s %12s %8s %8s\n", "workload", "metric", "min", "median", "max", "diff", "bound")
	for _, sp := range todo {
		for _, m := range contract.EndToEnd {
			v := values[sp.name+" "+m.Name]
			if len(v) != n {
				fmt.Fprintf(stderr, "bench: %s: %s printed %d times in %d passes\n", sp.name, m.Name, len(v), n)
				return 1
			}
			sort.Float64s(v)
			diff := ratio(v[n-1]-v[0], v[0])
			flag := ""
			if diff > m.Bound {
				flag, exceeded = "  EXCEEDED", true
			}
			fmt.Fprintf(stdout, "%-12s %-18s %12.6g %12.6g %12.6g %7.2f%% %7.2f%%%s\n",
				sp.name, m.Name, v[0], median(v), v[n-1], 100*diff, 100*m.Bound, flag)
			if v = values[sp.name+" raw."+m.Name]; len(v) == n {
				sort.Float64s(v)
				fmt.Fprintf(stdout, "%-12s %-18s %12.6g %12.6g %12.6g %7.2f%%\n", sp.name, "raw."+m.Name, v[0], median(v), v[n-1], 100*ratio(v[n-1]-v[0], v[0]))
			}
		}
	}
	if exceeded {
		return 1
	}
	return 0
}
