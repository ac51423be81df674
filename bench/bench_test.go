package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// contract is the part of BENCHMARK.json the harness must agree with.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []contractMetric `json:"end_to_end"`
	PerLayer  []contractMetric `json:"per_layer"`
}

type contractMetric struct{ Name, Unit string }

// TestSmoke runs both passes of every workload at toy size and holds
// what they emit against BENCHMARK.json: the same workloads, and per
// pass exactly the contract's metrics, each once, finite, in the stated
// unit, with no failed op and a well-formed trace file.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(c.Workloads), len(specs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	cfg := config{seed: 1, minRounds: 1, setups: 1, toy: true, outDir: t.TempDir()}
	for i, sp := range specs {
		if c.Workloads[i].Name != sp.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, c.Workloads[i].Name, sp.name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(cfg, sp, traced)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s: %d ops attempted, %d failed", sp.name, res.Attempted, res.Failed)
			}
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			seen := make(map[string]int)
			for _, m := range res.Metrics {
				seen[m.Name]++
				if !name.MatchString(m.Name) || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %q = %v", sp.name, m.Name, m.Value)
				}
			}
			for _, w := range want {
				if seen[w.Name] != 1 {
					t.Errorf("%s traced=%v: %s emitted %d times", sp.name, traced, w.Name, seen[w.Name])
				}
				for _, m := range res.Metrics {
					if m.Name == w.Name && m.Unit != w.Unit {
						t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", sp.name, m.Name, m.Unit, w.Unit)
					}
					if m.Name == w.Name && !traced && m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, m.Name, m.Value)
					}
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", sp.name, traced, len(res.Metrics), len(want))
			}
		}
		checkTrace(t, filepath.Join(cfg.outDir, "trace-"+sp.name+".json"))
	}
	if left, _ := os.ReadDir(filepath.Join(cfg.outDir, "spill")); len(left) != 0 {
		t.Errorf("%d spill files remain", len(left))
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.Spans) == 0 {
		t.Errorf("%s: no spans", path)
	}
	ids := make(map[int]bool)
	for _, s := range doc.Spans {
		ids[s.ID] = true
	}
	for _, s := range doc.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d names parent %d, which is not in the file", path, s.ID, s.Parent)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d ends before it starts", path, s.ID)
		}
	}
}
