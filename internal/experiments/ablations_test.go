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

func TestAblationSkew(t *testing.T) {
	tbl, err := AblationSkew(context.Background(), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	plain, salted := tbl.Rows[0], tbl.Rows[1]
	pi := strings.TrimSuffix(plain[4], "x")
	si := strings.TrimSuffix(salted[4], "x")
	if cell(t, si) >= cell(t, pi) {
		t.Errorf("salting did not improve imbalance: %s vs %s", salted[4], plain[4])
	}
	if cell(t, salted[1]) > cell(t, plain[1]) {
		t.Errorf("salting raised net time: %s vs %s", salted[1], plain[1])
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
