package experiments

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// testConfig returns the standard test configuration, skipping the
// calling test under -short: regenerating the full set of paper
// artifacts takes ~45s, which TestSmoke covers in miniature instead.
func testConfig(t *testing.T) Config {
	t.Helper()
	if testing.Short() {
		t.Skip("full artifact regeneration skipped in -short mode (see TestSmoke)")
	}
	return TestConfig()
}

// TestSmoke runs one complete experiment end to end — planning, the MR
// engine, the cluster simulator and reference verification — at a
// minimal scale, so -short runs still cover the whole pipeline.
func TestSmoke(t *testing.T) {
	tbl, err := AblationPacking(context.Background(), SmokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	on, off := tbl.Rows[0], tbl.Rows[1]
	if cell(t, on[3]) >= cell(t, off[3]) {
		t.Errorf("packing did not cut comm: %s vs %s", on[3], off[3])
	}
}

// cell parses a numeric cell like "32s", "53%", "1.23GB".
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(s, "s"), "%"), "GB")
	s = strings.TrimPrefix(s, "+")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad cell %q: %v", s, err)
	}
	return v
}

// rowLookup indexes table rows by the first n columns.
func rowLookup(tbl *Table, n int) map[string][]string {
	out := make(map[string][]string)
	for _, row := range tbl.Rows {
		out[strings.Join(row[:n], "|")] = row
	}
	return out
}

func TestFigure3Shape(t *testing.T) {
	cfg := testConfig(t)
	tbl, err := Figure3(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowLookup(tbl, 2)
	for _, q := range []string{"A1", "A2", "A3", "A4", "A5"} {
		seq := rows[q+"|SEQ"]
		par := rows[q+"|PAR"]
		greedy := rows[q+"|GREEDY"]
		if seq == nil || par == nil || greedy == nil {
			t.Fatalf("%s rows missing", q)
		}
		// PAR and GREEDY beat SEQ on net time (paper: 39%/31% average
		// improvement).
		if cell(t, par[2]) >= cell(t, seq[2]) {
			t.Errorf("%s: PAR net %s !< SEQ net %s", q, par[2], seq[2])
		}
		if cell(t, greedy[2]) >= cell(t, seq[2]) {
			t.Errorf("%s: GREEDY net %s !< SEQ net %s", q, greedy[2], seq[2])
		}
		// GREEDY's total time beats PAR's (grouping pays).
		if cell(t, greedy[3]) >= cell(t, par[3]) {
			t.Errorf("%s: GREEDY total %s !< PAR total %s", q, greedy[3], par[3])
		}
		// PAR reads more input than SEQ (no filtering between rounds).
		if cell(t, par[8]) <= 100 {
			t.Errorf("%s: PAR input%%seq = %s, want > 100%%", q, par[8])
		}
	}
	// 1-ROUND exists for A3 only and wins everything there.
	oneround := rows["A3|1-ROUND"]
	if oneround == nil {
		t.Fatal("A3 1-ROUND row missing")
	}
	for _, q := range []string{"A1", "A2", "A4", "A5"} {
		if rows[q+"|1-ROUND"] != nil {
			t.Errorf("%s unexpectedly has a 1-ROUND row", q)
		}
	}
	a3greedy := rows["A3|GREEDY"]
	if cell(t, oneround[2]) >= cell(t, a3greedy[2]) || cell(t, oneround[3]) >= cell(t, a3greedy[3]) {
		t.Errorf("A3 1-ROUND (%s net, %s tot) should beat GREEDY (%s, %s)",
			oneround[2], oneround[3], a3greedy[2], a3greedy[3])
	}
}

func TestFigure4Shape(t *testing.T) {
	cfg := testConfig(t)
	tbl, err := Figure4(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowLookup(tbl, 2)
	// B1: deep sequential plan -> PAR slashes net time drastically
	// (paper: 22% of SEQ) while SEQ total is competitive.
	b1seq, b1par, b1greedy := rows["B1|SEQ"], rows["B1|PAR"], rows["B1|GREEDY"]
	if cell(t, b1par[2]) >= 0.6*cell(t, b1seq[2]) {
		t.Errorf("B1: PAR net %s not ≪ SEQ net %s", b1par[2], b1seq[2])
	}
	if cell(t, b1greedy[3]) >= cell(t, b1par[3]) {
		t.Errorf("B1: GREEDY total %s !< PAR total %s", b1greedy[3], b1par[3])
	}
	// B2: 1-ROUND applies and beats everything (paper: 18% of SEQ).
	b2or := rows["B2|1-ROUND"]
	if b2or == nil {
		t.Fatal("B2 1-ROUND row missing")
	}
	b2seq := rows["B2|SEQ"]
	if cell(t, b2or[2]) >= cell(t, b2seq[2]) || cell(t, b2or[3]) >= cell(t, b2seq[3]) {
		t.Errorf("B2: 1-ROUND (%s, %s) should beat SEQ (%s, %s)",
			b2or[2], b2or[3], b2seq[2], b2seq[3])
	}
}

func TestFigure5Shape(t *testing.T) {
	cfg := testConfig(t)
	tbl, err := Figure5(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowLookup(tbl, 2)
	for _, q := range []string{"C1", "C2", "C3", "C4"} {
		par := rows[q+"|PARUNIT"]
		greedy := rows[q+"|GREEDY-SGF"]
		if par == nil || greedy == nil {
			t.Fatalf("%s rows missing", q)
		}
		// PARUNIT cuts net time vs SEQUNIT (paper: 55% lower on average).
		if cell(t, par[2]) >= 100 {
			t.Errorf("%s: PARUNIT net%% = %s, want < 100%%", q, par[2])
		}
		// GREEDY-SGF cuts total time vs SEQUNIT (paper: 27% down).
		if cell(t, greedy[3]) > 105 {
			t.Errorf("%s: GREEDY-SGF total%% = %s, want ≤ ~100%%", q, greedy[3])
		}
	}
}

func TestFigure7aShape(t *testing.T) {
	cfg := testConfig(t)
	tbl, err := Figure7a(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowLookup(tbl, 2)
	// Total time grows with data for every strategy; 1-ROUND stays best.
	for _, strat := range []string{"SEQ", "PAR", "GREEDY", "1-ROUND"} {
		small := rows["200M|"+strat]
		big := rows["1600M|"+strat]
		if small == nil || big == nil {
			t.Fatalf("%s rows missing", strat)
		}
		if cell(t, big[3]) <= cell(t, small[3]) {
			t.Errorf("%s: total did not grow with data (%s -> %s)", strat, small[3], big[3])
		}
	}
	for _, size := range []string{"200M", "1600M"} {
		or := rows[size+"|1-ROUND"]
		for _, strat := range []string{"SEQ", "PAR", "GREEDY"} {
			if cell(t, or[2]) > cell(t, rows[size+"|"+strat][2]) {
				t.Errorf("%s: 1-ROUND net %s not best vs %s %s", size, or[2], strat, rows[size+"|"+strat][2])
			}
		}
	}
}

func TestFigure7bShape(t *testing.T) {
	cfg := testConfig(t)
	tbl, err := Figure7b(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowLookup(tbl, 2)
	// More nodes never hurt net time; they help PAR markedly.
	for _, strat := range []string{"PAR", "GREEDY", "1-ROUND", "SEQ"} {
		five := rows["5|"+strat]
		twenty := rows["20|"+strat]
		if cell(t, twenty[2]) > cell(t, five[2])+1e-9 {
			t.Errorf("%s: net grew with nodes (%s -> %s)", strat, five[2], twenty[2])
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	cfg := testConfig(t)
	tbl, err := Figure8(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowLookup(tbl, 2)
	// SEQ's net grows with the atom count; 1-ROUND's stays flat-ish.
	seq2, seq16 := rows["2|SEQ"], rows["16|SEQ"]
	if cell(t, seq16[2]) < 2*cell(t, seq2[2]) {
		t.Errorf("SEQ net should grow strongly with atoms: %s -> %s", seq2[2], seq16[2])
	}
	or2, or16 := rows["2|1-ROUND"], rows["16|1-ROUND"]
	if cell(t, or16[2]) > 2.5*cell(t, or2[2]) {
		t.Errorf("1-ROUND net grew too much: %s -> %s", or2[2], or16[2])
	}
	// PAR's communication exceeds 1-ROUND's at 16 atoms (no packing).
	if cell(t, rows["16|PAR"][4]) <= cell(t, rows["16|1-ROUND"][4]) {
		t.Errorf("PAR comm %s should exceed 1-ROUND %s at 16 atoms",
			rows["16|PAR"][4], rows["16|1-ROUND"][4])
	}
}

func TestTable3Shape(t *testing.T) {
	cfg := testConfig(t)
	tbl, err := Table3(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Selectivity growth must not decrease SEQ's total time (more data
	// survives each filtering step).
	for _, row := range tbl.Rows {
		if row[0] != "SEQ" {
			continue
		}
		for _, c := range row[4:7] {
			if cell(t, c) < 0 {
				t.Errorf("SEQ total decreased with lower selectivity: %v", row)
			}
		}
	}
}

func TestCostModelExperimentShape(t *testing.T) {
	cfg := testConfig(t)
	tbl, err := CostModelExperiment(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	gumboTotal := cell(t, tbl.Rows[0][3])
	wangTotal := cell(t, tbl.Rows[1][3])
	if gumboTotal > wangTotal {
		t.Errorf("cost_gumbo-planned total %v should not exceed cost_wang-planned %v",
			gumboTotal, wangTotal)
	}
}

func TestRankingAccuracyShape(t *testing.T) {
	cfg := testConfig(t)
	cfg.Verify = false
	tbl, err := RankingAccuracy(context.Background(), cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	g := cell(t, tbl.Rows[0][2])
	w := cell(t, tbl.Rows[1][2])
	if g < w {
		t.Errorf("gumbo accuracy %v%% below wang %v%%", g, w)
	}
	if g < 60 {
		t.Errorf("gumbo accuracy %v%% implausibly low", g)
	}
}

func TestOptimalVsGreedyShape(t *testing.T) {
	cfg := testConfig(t)
	tbl, err := OptimalVsGreedy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if cell(t, row[4]) > 1.25 {
			t.Errorf("%s: greedy/opt ratio %s too high", row[0], row[4])
		}
	}
}

func TestBuildPlanUnknownStrategy(t *testing.T) {
	cfg := testConfig(t)
	wl := workload.A1()
	db := wl.Build(cfg.Scale)
	if _, err := cfg.runStrategies(context.Background(), wl, db, []core.Strategy{"NOPE"}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddNote("n=%d", 1)
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"X — demo", "a", "bb", "note: n=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(All()) != 12 {
		t.Errorf("registry has %d experiments", len(All()))
	}
	if ByID("E1") == nil || ByID("NOPE") != nil {
		t.Error("ByID lookup wrong")
	}
}
