package server

import (
	"fmt"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	gumbo "repro"
)

// listedStrategies returns, in order, the backquoted names the document
// at path lists between the first occurrence of start and the next
// occurrence of end; with tableRows only the first name of each line
// that opens a table row with one counts (the table's key column).
func listedStrategies(t *testing.T, path, start, end string, tableRows bool) []gumbo.Strategy {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, text, ok := strings.Cut(string(doc), start)
	if !ok {
		t.Fatalf("%s: no %q", path, start)
	}
	text, _, _ = strings.Cut(text, end)
	quoted := regexp.MustCompile("`([^`]+)`")
	var names []gumbo.Strategy
	for _, line := range strings.Split(text, "\n") {
		if tableRows && !strings.HasPrefix(line, "| `") {
			continue
		}
		for _, m := range quoted.FindAllStringSubmatch(line, -1) {
			names = append(names, gumbo.Strategy(m[1]))
			if tableRows {
				break
			}
		}
	}
	return names
}

// TestStrategyNamesAgree keeps the documents and the wire honest about
// what exists: the README's cheat-sheet, docs/SERVER.md's `strategy`
// field and docs/LAB.md's oracle section each list exactly
// gumbo.Strategies(), and the query endpoint answers 400 for a name
// outside the list and never for one inside it.
func TestStrategyNamesAgree(t *testing.T) {
	want := gumbo.Strategies()
	for _, doc := range []struct {
		path, start, end string
		tableRows        bool
	}{
		{"../../README.md", "## Strategy cheat-sheet", "\n## ", true},
		{"../../docs/SERVER.md", "for `System.Auto`, or one of", ".", false},
		{"../../docs/LAB.md", "under every strategy (", ")", false},
	} {
		if got := listedStrategies(t, doc.path, doc.start, doc.end, doc.tableRows); !reflect.DeepEqual(got, want) {
			t.Errorf("%s lists %v, gumbo.Strategies() is %v", doc.path, got, want)
		}
	}

	_, c := newTestClient(t, Config{})
	c.loadBookstore("shop")
	status := func(strategy string) int {
		return c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryW, "strategy": strategy}, nil)
	}
	for _, s := range want {
		if code := status(string(s)); code == http.StatusBadRequest {
			t.Errorf("strategy %s: 400", s)
		}
	}
	for _, s := range []string{"BOGUS", "greedy", "Greedy", "OneRound", "DYNAMIC", "FULL-TUPLE", "GREEDY ", "AUTO"} {
		if code := status(s); code != http.StatusBadRequest {
			t.Errorf("strategy %q: status %d, want 400", s, code)
		}
	}
}

// optQuery is a query over the bookstore with n distinct semi-joins.
func optQuery(n int) string {
	var atoms []string
	for _, args := range []string{"x, y", "y, x", "x, ?", "y, ?", "?, x", "?, y", "x, x"} {
		for _, rel := range []string{"S", "T"} {
			// An unguarded variable may occur in one atom only.
			fresh := fmt.Sprintf("a%d", len(atoms))
			atoms = append(atoms, rel+"("+strings.Replace(args, "?", fresh, 1)+")")
		}
	}
	return "Z := SELECT x FROM R(x, y) WHERE " + strings.Join(atoms[:n], " OR ") + ";"
}

// TestOptPlanTooLargeIsClientError: OPT enumerates every grouping of
// the semi-joins (BSGF-Opt is NP-complete, Theorem 1), so past the
// planner's limit the query is refused as the client's error — 422 with
// the limit in the body, nothing counted as a panic — and under it OPT
// still plans and runs. (At the limit itself, 12 semi-joins, planning is
// Bell(12) = 4.2 million cost probes, over a minute: too slow to keep
// here.)
func TestOptPlanTooLargeIsClientError(t *testing.T) {
	_, c := newTestClient(t, Config{})
	c.loadBookstore("shop")
	var body struct{ Error string }
	code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": optQuery(13), "strategy": "OPT"}, &body)
	if code != http.StatusUnprocessableEntity || !strings.Contains(body.Error, "at most 12 semi-joins") || !strings.Contains(body.Error, "has 13") {
		t.Errorf("OPT over 13 semi-joins: status %d, body %q; want 422 stating the limit and the size", code, body.Error)
	}
	if code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": optQuery(8), "strategy": "OPT"}, nil); code != http.StatusOK {
		t.Errorf("OPT over 8 semi-joins: status %d, want 200", code)
	}
	if got := statInt(t, getStats(c), "queries_panicked"); got != 0 {
		t.Errorf("queries_panicked %d, want 0", got)
	}
}
