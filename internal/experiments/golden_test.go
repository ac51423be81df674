package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from the current tables")

// TestFigureGolden pins the rows of the paper's BSGF, large-query and
// SGF figures (E1, E2, E3) and of the ablations (E11) at TestConfig,
// byte for byte: every modelled time, byte volume and relative cell.
// Notes are left out — E11's carry no figures, and run notes may carry
// host timings. A change that moves a figure on purpose regenerates the
// file with
//
//	go test -run TestFigureGolden ./internal/experiments/ -update
//
// and says which rows moved and why.
func TestFigureGolden(t *testing.T) {
	cfg := testConfig(t)
	var got bytes.Buffer
	for _, id := range []string{"E1", "E2", "E3", "E11"} {
		tbl, err := ByID(id).Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tbl.Notes = nil
		tbl.Render(&got)
	}
	path := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("figures differ from %s (regenerate with -update if the change is meant):\n--- got\n%s--- want\n%s", path, got.Bytes(), want)
	}
}
