package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestAblationPacking(t *testing.T) {
	tbl, err := AblationPacking(context.Background(), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	on, off := tbl.Rows[0], tbl.Rows[1]
	if cell(t, on[3]) >= cell(t, off[3]) {
		t.Errorf("packing did not cut comm: %s vs %s", on[3], off[3])
	}
	if cell(t, on[4]) >= cell(t, off[4]) {
		t.Errorf("packing did not cut records: %s vs %s", on[4], off[4])
	}
}

func TestAblationTupleID(t *testing.T) {
	tbl, err := AblationTupleID(context.Background(), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ids, full := tbl.Rows[0], tbl.Rows[1]
	if cell(t, ids[3]) >= cell(t, full[3]) {
		t.Errorf("tuple ids did not cut comm: %s vs %s", ids[3], full[3])
	}
}

func TestAblationReducerAllocation(t *testing.T) {
	tbl, err := AblationReducerAllocation(context.Background(), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	gumboRow, pigRow := tbl.Rows[0], tbl.Rows[1]
	if cell(t, gumboRow[1]) > cell(t, pigRow[1]) {
		t.Errorf("intermediate-based allocation net %s should not exceed input-based %s",
			gumboRow[1], pigRow[1])
	}
}

// TestAblationSkew asserts what E11d measured: both mitigations shrink
// the heaviest reduce task, only salting lowers modelled net time (a
// range cut leaves per-reducer loads alone), and on a single hot key
// salting's heaviest task is no larger than splitting's — a cut can
// isolate the hot key's group, never divide it.
func TestAblationSkew(t *testing.T) {
	tbl, err := AblationSkew(context.Background(), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want plain / salted / runtime split", len(tbl.Rows))
	}
	plain, salted, split := tbl.Rows[0], tbl.Rows[1], tbl.Rows[2]
	mb := func(s string) float64 { return cell(t, strings.TrimSuffix(s, "MB")) }
	if mb(salted[5]) >= mb(plain[5]) || mb(split[5]) >= mb(plain[5]) {
		t.Errorf("max reduce task not shrunk by both: plain %s salted %s split %s", plain[5], salted[5], split[5])
	}
	if mb(salted[5]) > mb(split[5]) {
		t.Errorf("salting's heaviest task %s exceeds splitting's %s on a single hot key", salted[5], split[5])
	}
	if cell(t, salted[1]) >= cell(t, plain[1]) {
		t.Errorf("salting did not lower net time: %s vs %s", salted[1], plain[1])
	}
	if split[1] != plain[1] || split[3] != plain[3] || split[4] != plain[4] {
		t.Errorf("runtime splitting moved net time or reducer loads: %v vs %v", split, plain)
	}
	pi := strings.TrimSuffix(plain[4], "x")
	si := strings.TrimSuffix(salted[4], "x")
	if cell(t, si) >= cell(t, pi) {
		t.Errorf("salting did not improve imbalance: %s vs %s", salted[4], plain[4])
	}
}

func TestAblationDynamic(t *testing.T) {
	tbl, err := AblationDynamic(context.Background(), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	static, dyn := tbl.Rows[0], tbl.Rows[1]
	if cell(t, dyn[2]) > 1.5*cell(t, static[2]) {
		t.Errorf("dynamic total %s far above static %s", dyn[2], static[2])
	}
}

func TestAblationsCombined(t *testing.T) {
	tbl, err := Ablations(context.Background(), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 10 {
		t.Errorf("combined ablations rows = %d", len(tbl.Rows))
	}
}
