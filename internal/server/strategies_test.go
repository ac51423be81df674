package server

import (
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
