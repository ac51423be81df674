package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckSpillDir: the start-up probe accepts a writable directory
// (leaving nothing behind) and rejects a missing one and a plain file.
func TestCheckSpillDir(t *testing.T) {
	dir := t.TempDir()
	if err := checkSpillDir(dir); err != nil {
		t.Errorf("writable directory rejected: %v", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("probe left %d files behind", len(left))
	}
	if err := checkSpillDir(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing directory accepted")
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkSpillDir(file); err == nil {
		t.Error("plain file accepted as a spill directory")
	}
}

// TestCheckSkewSplit: the start-up check accepts every finite ratio —
// off, on, and the negatives the engine reads as off — and rejects what
// flag.Float64 parses from "NaN", "Inf" and "-Inf".
func TestCheckSkewSplit(t *testing.T) {
	for _, ratio := range []float64{0, 1.5, 0.5, -1} {
		if err := checkSkewSplit(ratio); err != nil {
			t.Errorf("ratio %v rejected: %v", ratio, err)
		}
	}
	for _, ratio := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := checkSkewSplit(ratio); err == nil {
			t.Errorf("ratio %v accepted", ratio)
		}
	}
}
