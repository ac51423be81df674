package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	gumbo "repro"
)

// loadCase is one row of the load contract: a body posted to
// POST /v1/db/d/load over a database holding only Old/2 = {[1 2]}, and
// what must come back.
type loadCase struct {
	name   string
	body   string
	status int
	// msg is the exact error message of a rejection. A syntax or type
	// error pins only the "bad load request: " prefix: its wording is
	// the decoder's.
	msg string
	// db is the database after an accepted load, as dumpDB renders it.
	db string
}

const (
	badLoad     = "bad load request: "
	noRelations = "load request names no relations"
	oldOnly     = "Old/2 {[1 2]}"
)

// nested returns a load body with one relation R/1 = {[1]} and an
// unknown field whose value nests arrays to the given total depth (the
// body's own object counts as one level).
func nested(depth int) string {
	return `{"relations":[{"name":"R","arity":1,"tuples":[[1]]}],"x":` +
		strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`
}

// rel renders one relation entry of a load body.
func rel(name string, arity int, tuples string) string {
	return fmt.Sprintf(`{"name":%q,"arity":%d,"tuples":%s}`, name, arity, tuples)
}

// rels renders a load body from relation entries.
func rels(entries ...string) string {
	return `{"relations":[` + strings.Join(entries, ",") + `]}`
}

// loadContract is every way handleLoad rejects a body, in the order it
// checks them, and the edge cases encoding/json accepted.
var loadContract = []loadCase{
	// Syntax and type errors: the whole first value is checked before
	// any handler-level rule.
	{name: "empty body", body: ``, status: 400, msg: badLoad},
	{name: "whitespace only", body: " \n\t", status: 400, msg: badLoad},
	{name: "unterminated object", body: `{`, status: 400, msg: badLoad},
	{name: "unterminated relations", body: `{"relations":[]`, status: 400, msg: badLoad},
	{name: "array body", body: `[]`, status: 400, msg: badLoad},
	{name: "string body", body: `"relations"`, status: 400, msg: badLoad},
	{name: "number body", body: `5`, status: 400, msg: badLoad},
	{name: "truncated null", body: `nul`, status: 400, msg: badLoad},
	{name: "unquoted key", body: `{relations:[]}`, status: 400, msg: badLoad},
	{name: "single quotes", body: `{'relations':[]}`, status: 400, msg: badLoad},
	{name: "relations object", body: `{"relations":{}}`, status: 400, msg: badLoad},
	{name: "relations string", body: `{"relations":"R"}`, status: 400, msg: badLoad},
	{name: "relation number", body: `{"relations":[5]}`, status: 400, msg: badLoad},
	{name: "relation array", body: `{"relations":[[]]}`, status: 400, msg: badLoad},
	{name: "name number", body: `{"relations":[{"name":5,"arity":1}]}`, status: 400, msg: badLoad},
	{name: "name array", body: `{"relations":[{"name":["R"],"arity":1}]}`, status: 400, msg: badLoad},
	{name: "arity string", body: `{"relations":[{"name":"R","arity":"1"}]}`, status: 400, msg: badLoad},
	{name: "arity bool", body: `{"relations":[{"name":"R","arity":true}]}`, status: 400, msg: badLoad},
	{name: "arity fraction", body: `{"relations":[{"name":"R","arity":1.5}]}`, status: 400, msg: badLoad},
	{name: "arity exponent", body: `{"relations":[{"name":"R","arity":1e0}]}`, status: 400, msg: badLoad},
	{name: "arity overflow", body: `{"relations":[{"name":"R","arity":9223372036854775808}]}`, status: 400, msg: badLoad},
	{name: "tuples object", body: rels(rel("R", 1, `{}`)), status: 400, msg: badLoad},
	{name: "tuples string", body: rels(rel("R", 1, `"[[1]]"`)), status: 400, msg: badLoad},
	{name: "row number", body: rels(rel("R", 1, `[5]`)), status: 400, msg: badLoad},
	{name: "row string", body: rels(rel("R", 1, `[[1],"x"]`)), status: 400, msg: badLoad},
	{name: "row object", body: rels(rel("R", 1, `[{"0":1}]`)), status: 400, msg: badLoad},
	{name: "trailing comma in row", body: rels(rel("R", 1, `[[1,]]`)), status: 400, msg: badLoad},
	{name: "trailing comma in tuples", body: rels(rel("R", 1, `[[1],]`)), status: 400, msg: badLoad},
	{name: "missing comma", body: rels(rel("R", 2, `[[1 2]]`)), status: 400, msg: badLoad},
	{name: "leading zero", body: rels(rel("R", 1, `[[01]]`)), status: 400, msg: badLoad},
	{name: "leading plus", body: rels(rel("R", 1, `[[+1]]`)), status: 400, msg: badLoad},
	{name: "bare minus", body: rels(rel("R", 1, `[[-]]`)), status: 400, msg: badLoad},
	{name: "dangling dot", body: rels(rel("R", 1, `[[1.]]`)), status: 400, msg: badLoad},
	{name: "dangling exponent", body: rels(rel("R", 1, `[[1e]]`)), status: 400, msg: badLoad},
	{name: "hex number", body: rels(rel("R", 1, `[[0x10]]`)), status: 400, msg: badLoad},
	{name: "raw tab in string", body: rels(rel("R", 1, "[[\"a\tb\"]]")), status: 400, msg: badLoad},
	{name: "raw control byte in string", body: rels(rel("R", 1, "[[\"a\x01\"]]")), status: 400, msg: badLoad},
	{name: "unknown escape", body: rels(rel("R", 1, `[["\x41"]]`)), status: 400, msg: badLoad},
	{name: "short unicode escape", body: rels(rel("R", 1, `[["\u12"]]`)), status: 400, msg: badLoad},
	{name: "non-hex unicode escape", body: rels(rel("R", 1, `[["\u12g4"]]`)), status: 400, msg: badLoad},
	{name: "unterminated string", body: `{"relations":[{"name":"R`, status: 400, msg: badLoad},
	{name: "misspelt literal", body: rels(rel("R", 1, `[[nil]]`)), status: 400, msg: badLoad},
	{name: "depth 10001", body: nested(10001), status: 400, msg: badLoad},
	{name: "type error after a handler-level error", body: rels(rel("", 1, `[]`), `{"name":5}`), status: 400, msg: badLoad},
	{name: "syntax error after a handler-level error", body: `{"relations":[` + rel("", 1, `[]`) + `],`, status: 400, msg: badLoad},
	{name: "syntax error inside the body after a bad value", body: `{"relations":[` + rel("R", 1, `[[-1]]`) + `] x}`, status: 400, msg: badLoad},
	{name: "later relations key of the wrong type", body: `{"relations":[` + rel("R", 1, `[[1]]`) + `],"relations":5}`, status: 400, msg: badLoad},

	// Handler-level rejections, each with its message.
	{name: "null body", body: `null`, status: 400, msg: noRelations},
	{name: "empty object", body: `{}`, status: 400, msg: noRelations},
	{name: "no relations", body: `{"relations":[]}`, status: 400, msg: noRelations},
	{name: "null relations", body: `{"relations":null}`, status: 400, msg: noRelations},
	{name: "relations reset by null", body: `{"relations":[` + rel("R", 1, `[[1]]`) + `],"relations":null}`, status: 400, msg: noRelations},
	{name: "relations reset by empty", body: `{"relations":[` + rel("R", 1, `[[1]]`) + `],"relations":[]}`, status: 400, msg: noRelations},
	{name: "only unknown fields", body: `{"relation":[` + rel("R", 1, `[[1]]`) + `]}`, status: 400, msg: noRelations},
	{name: "no name", body: `{"relations":[{"arity":1,"tuples":[[1]]}]}`, status: 400, msg: `relation needs a name and a positive arity (got ""/1)`},
	{name: "null relation", body: `{"relations":[null]}`, status: 400, msg: `relation needs a name and a positive arity (got ""/0)`},
	{name: "empty relation object", body: `{"relations":[{}]}`, status: 400, msg: `relation needs a name and a positive arity (got ""/0)`},
	{name: "no arity", body: `{"relations":[{"name":"R","tuples":[]}]}`, status: 400, msg: `relation needs a name and a positive arity (got "R"/0)`},
	{name: "zero arity", body: rels(rel("R", 0, `[]`)), status: 400, msg: `relation needs a name and a positive arity (got "R"/0)`},
	{name: "negative arity", body: rels(rel("R", -3, `[[1]]`)), status: 400, msg: `relation needs a name and a positive arity (got "R"/-3)`},
	{name: "minus zero arity", body: `{"relations":[{"name":"R","arity":-0}]}`, status: 400, msg: `relation needs a name and a positive arity (got "R"/0)`},
	{name: "quoted name in message", body: `{"relations":[{"name":"a\"bé"}]}`, status: 400, msg: `relation needs a name and a positive arity (got "a\"bé"/0)`},
	{name: "short row", body: rels(rel("R", 2, `[[1,2],[3]]`)), status: 400, msg: `relation R tuple 1: got 1 values, want 2`},
	{name: "long row", body: rels(rel("R", 1, `[[1],[2,3]]`)), status: 400, msg: `relation R tuple 1: got 2 values, want 1`},
	{name: "empty row", body: rels(rel("R", 1, `[[]]`)), status: 400, msg: `relation R tuple 0: got 0 values, want 1`},
	{name: "null row", body: rels(rel("R", 1, `[[1],null]`)), status: 400, msg: `relation R tuple 1: got 0 values, want 1`},
	{name: "huge arity, narrow row", body: `{"relations":[{"name":"R","arity":20000000000,"tuples":[[1]]}]}`, status: 400, msg: `relation R tuple 0: got 1 values, want 20000000000`},
	{name: "arity declared after the rows", body: `{"relations":[{"name":"R","tuples":[[1,2]],"arity":1}]}`, status: 400, msg: `relation R tuple 0: got 2 values, want 1`},
	{name: "width in tuple 5 beats a bad value in tuple 2", body: rels(rel("R", 1, `[[1],[2],[-1],[3],[4],[5,6]]`)), status: 400, msg: `relation R tuple 5: got 2 values, want 1`},
	{name: "existing arity clash", body: rels(rel("Old", 3, `[[1,2,3]]`)), status: 400, msg: `relation Old exists with arity 2, load says 3`},
	{name: "width beats the existing arity clash", body: rels(rel("Old", 3, `[[1,2]]`)), status: 400, msg: `relation Old tuple 0: got 2 values, want 3`},
	{name: "existing arity clash beats a bad value", body: rels(rel("Old", 3, `[[-1,2,3]]`)), status: 400, msg: `relation Old exists with arity 2, load says 3`},
	{name: "listed twice with two arities", body: rels(rel("N", 1, `[[1]]`), rel("N", 2, `[[1,2]]`)), status: 400, msg: `relation N listed twice with arities 1 and 2`},
	{name: "listed twice, clash beats a bad value", body: rels(rel("N", 1, `[[1]]`), rel("N", 2, `[[true,2]]`)), status: 400, msg: `relation N listed twice with arities 1 and 2`},
	{name: "earlier relation's bad value beats a later width error", body: rels(rel("A", 1, `[[-1]]`), rel("B", 1, `[[1,2]]`)), status: 400, msg: `relation A tuple 0: value 0: negative integer -1 is not representable; send it as a string`},
	{name: "earlier relation's width error beats a later name error", body: rels(rel("A", 1, `[[1,2]]`), `{"arity":1}`), status: 400, msg: `relation A tuple 0: got 2 values, want 1`},
	{name: "earlier relation's name error beats a later bad value", body: rels(rel("", 1, `[[1]]`), rel("B", 1, `[[true]]`)), status: 400, msg: `relation needs a name and a positive arity (got ""/1)`},
	{name: "earlier relation's bad value beats a later clash", body: rels(rel("A", 1, `[[1.0]]`), rel("Old", 1, `[[1]]`)), status: 400, msg: `relation A tuple 0: value 0: "1.0" is not an integer`},
	{name: "fraction value", body: rels(rel("R", 1, `[[1.5]]`)), status: 400, msg: `relation R tuple 0: value 0: "1.5" is not an integer`},
	{name: "exponent value", body: rels(rel("R", 1, `[[1e3]]`)), status: 400, msg: `relation R tuple 0: value 0: "1e3" is not an integer`},
	{name: "signed exponent value", body: rels(rel("R", 1, `[[1E+2]]`)), status: 400, msg: `relation R tuple 0: value 0: "1E+2" is not an integer`},
	{name: "minus zero fraction", body: rels(rel("R", 1, `[[-0.0]]`)), status: 400, msg: `relation R tuple 0: value 0: "-0.0" is not an integer`},
	{name: "overflowing value", body: rels(rel("R", 1, `[[9223372036854775808]]`)), status: 400, msg: `relation R tuple 0: value 0: "9223372036854775808" is not an integer`},
	{name: "underflowing value", body: rels(rel("R", 1, `[[-9223372036854775809]]`)), status: 400, msg: `relation R tuple 0: value 0: "-9223372036854775809" is not an integer`},
	{name: "negative value", body: rels(rel("R", 1, `[[-5]]`)), status: 400, msg: `relation R tuple 0: value 0: negative integer -5 is not representable; send it as a string`},
	{name: "most negative value", body: rels(rel("R", 1, `[[-9223372036854775808]]`)), status: 400, msg: `relation R tuple 0: value 0: negative integer -9223372036854775808 is not representable; send it as a string`},
	{name: "bool value", body: rels(rel("R", 1, `[[true]]`)), status: 400, msg: `relation R tuple 0: value 0: unsupported JSON type bool (want integer or string)`},
	{name: "null value", body: rels(rel("R", 1, `[[null]]`)), status: 400, msg: `relation R tuple 0: value 0: unsupported JSON type <nil> (want integer or string)`},
	{name: "object value", body: rels(rel("R", 1, `[[{"a":[1]}]]`)), status: 400, msg: `relation R tuple 0: value 0: unsupported JSON type map[string]interface {} (want integer or string)`},
	{name: "array value", body: rels(rel("R", 1, `[[[1]]]`)), status: 400, msg: `relation R tuple 0: value 0: unsupported JSON type []interface {} (want integer or string)`},
	{name: "bad value's position", body: rels(rel("R", 3, `[[1,2,3],[4,"x",2.5]]`)), status: 400, msg: `relation R tuple 1: value 2: "2.5" is not an integer`},
	{name: "first bad value in row-major order", body: rels(rel("R", 2, `[[1,2],[3,false],[-1,4]]`)), status: 400, msg: `relation R tuple 1: value 1: unsupported JSON type bool (want integer or string)`},

	// Accepted edge cases.
	{name: "ints and strings", body: rels(rel("R", 2, `[[1,"a"],[2,"b"],[1,"a"]]`)), status: 200, db: `Old/2 {[1 2]}; R/2 {[1 "a"] [2 "b"]}`},
	{name: "empty relation", body: rels(rel("E", 3, `[]`)), status: 200, db: `Old/2 {[1 2]}; E/3 {}`},
	{name: "huge arity, no rows", body: `{"relations":[{"name":"W","arity":20000000000,"tuples":[]}]}`, status: 200, db: `Old/2 {[1 2]}; W/20000000000 {}`},
	{name: "append to an existing relation", body: rels(rel("Old", 2, `[[3,4],[1,2]]`)), status: 200, db: `Old/2 {[1 2] [3 4]}`},
	{name: "listed twice merges", body: rels(rel("N", 1, `[[1]]`), rel("N", 1, `[[2],[1]]`)), status: 200, db: `Old/2 {[1 2]}; N/1 {[1] [2]}`},
	{name: "case-folded keys", body: `{"RELATIONS":[{"Name":"R","ARITY":1,"TuPlEs":[[1]]}]}`, status: 200, db: `Old/2 {[1 2]}; R/1 {[1]}`},
	{name: "unicode-folded key", body: `{"relationſ":[{"name":"R","arity":1,"tuples":[[1]]}]}`, status: 200, db: `Old/2 {[1 2]}; R/1 {[1]}`},
	{name: "escaped key", body: "{\"relations\":[{\"n\\u0061me\":\"R\",\"arity\":1,\"tuples\":[[1]]}]}", status: 200, db: `Old/2 {[1 2]}; R/1 {[1]}`},
	{name: "duplicate keys: the last wins", body: `{"relations":[{"name":"A","name":"B","arity":5,"arity":1,"tuples":[[1,2]],"tuples":[[2]]}]}`, status: 200, db: `Old/2 {[1 2]}; B/1 {[2]}`},
	{name: "repeated relations reuse earlier entries", body: `{"relations":[` + rel("A", 1, `[[1]]`) + `],"relations":[{"name":"B"}]}`, status: 200, db: `Old/2 {[1 2]}; B/1 {[1]}`},
	{name: "repeated relations with a null entry", body: `{"relations":[` + rel("A", 1, `[[1]]`) + `],"relations":[null]}`, status: 200, db: `Old/2 {[1 2]}; A/1 {[1]}`},
	{name: "repeated relations shrink, then grow", body: `{"relations":[` + rel("A", 1, `[[1]]`) + `,` + rel("B", 1, `[[2]]`) + `],"relations":[{"name":"C"}],"relations":[{},{}]}`, status: 200, db: `Old/2 {[1 2]}; C/1 {[1]}; B/1 {[2]}`},
	{name: "repeated relations after a reset", body: `{"relations":[` + rel("A", 1, `[[1]]`) + `,` + rel("B", 1, `[[2]]`) + `],"relations":[],"relations":[{"name":"C","arity":1},{"name":"D","arity":1}]}`, status: 200, db: `Old/2 {[1 2]}; C/1 {}; D/1 {}`},
	{name: "unknown fields", body: `{"v":1,"relations":[{"name":"R","x":{"a":[1,2.5e-3,{"b":null}],"c":"\ud800"},"arity":1,"tuples":[[1]],"y":[]}],"z":true}`, status: 200, db: `Old/2 {[1 2]}; R/1 {[1]}`},
	{name: "null fields keep earlier values", body: `{"relations":[{"name":"R","name":null,"arity":1,"arity":null,"tuples":[[1]]}]}`, status: 200, db: `Old/2 {[1 2]}; R/1 {[1]}`},
	{name: "null tuples", body: `{"relations":[{"name":"R","arity":1,"tuples":null}]}`, status: 200, db: `Old/2 {[1 2]}; R/1 {}`},
	{name: "null tuples after rows", body: `{"relations":[{"name":"R","arity":1,"tuples":[[1]],"tuples":null}]}`, status: 200, db: `Old/2 {[1 2]}; R/1 {}`},
	{name: "rows replaced by later tuples", body: `{"relations":[{"name":"R","arity":1,"tuples":[[-1],[true]],"tuples":[[3]]}]}`, status: 200, db: `Old/2 {[1 2]}; R/1 {[3]}`},
	{name: "trailing bytes", body: rels(rel("R", 1, `[[1]]`)) + ` trailing {[ "garbage`, status: 200, db: `Old/2 {[1 2]}; R/1 {[1]}`},
	{name: "second value ignored", body: rels(rel("R", 1, `[[1]]`)) + rels(rel("S", 1, `[[1]]`)), status: 200, db: `Old/2 {[1 2]}; R/1 {[1]}`},
	{name: "whitespace everywhere", body: " \r\n\t{ \"relations\" : [ { \"name\" : \"R\" , \"arity\" : 2 , \"tuples\" : [ [ 1 , \"a\" ] ] } ] } ", status: 200, db: `Old/2 {[1 2]}; R/2 {[1 "a"]}`},
	{name: "minus zero", body: rels(rel("R", 1, `[[-0],[0]]`)), status: 200, db: `Old/2 {[1 2]}; R/1 {[0]}`},
	{name: "largest int", body: rels(rel("R", 1, `[[9223372036854775807]]`)), status: 200, db: `Old/2 {[1 2]}; R/1 {[9223372036854775807]}`},
	{name: "numeric string stays a string", body: rels(rel("R", 1, `[["5"],[5]]`)), status: 200, db: `Old/2 {[1 2]}; R/1 {["5"] [5]}`},
	{name: "escapes", body: rels(rel("R", 1, `[["q\"b\\s\/t\b\f\n\r\té\u0000"]]`)), status: 200, db: `Old/2 {[1 2]}; R/1 {["q\"b\\s/t\b\f\n\r\té\x00"]}`},
	{name: "surrogate pair", body: rels(rel("R", 1, "[[\"\\ud83d\\ude00\"],[\"\\ud83d\\ude00!\"]]")), status: 200, db: "Old/2 {[1 2]}; R/1 {[\"\U0001F600!\"] [\"\U0001F600\"]}"},
	{name: "lone surrogates", body: rels(rel("R", 1, "[[\"\\ud800\"],[\"\\udc00x\"],[\"\\ud800\\u0041\"],[\"\\ud83d\U0001F600\"]]")), status: 200, db: "Old/2 {[1 2]}; R/1 {[\"\uFFFD\"] [\"\uFFFDA\"] [\"\uFFFDx\"] [\"\uFFFD\U0001F600\"]}"},
	{name: "invalid UTF-8", body: rels(rel("R", 1, "[[\"a\xffb\"],[\"\xe2\x82\"],[\"\xed\xa0\x80\"]]")), status: 200, db: "Old/2 {[1 2]}; R/1 {[\"a\uFFFDb\"] [\"\uFFFD\uFFFD\"] [\"\uFFFD\uFFFD\uFFFD\"]}"},
	{name: "raw UTF-8 and HTML characters", body: rels(rel("R", 1, "[[\"<é>&\xe2\x80\xa8\x7f\"]]")), status: 200, db: "Old/2 {[1 2]}; R/1 {[\"<é>&\\u2028\\x7f\"]}"},
	{name: "empty string", body: rels(rel("R", 1, `[[""]]`)), status: 200, db: `Old/2 {[1 2]}; R/1 {[""]}`},
	{name: "depth 10000", body: nested(10000), status: 200, db: `Old/2 {[1 2]}; R/1 {[1]}`},
}

// loadFixture is a server with database d holding Old/2 = {[1 2]}.
type loadFixture struct {
	s *Server
	h http.Handler
}

func newLoadFixture() *loadFixture {
	s := New(Config{})
	return &loadFixture{s: s, h: s.Handler()}
}

func (f *loadFixture) serve(method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// reset drops and recreates d with Old/2 = {[1 2]} and returns it.
func (f *loadFixture) reset(t testing.TB) *gumbo.Database {
	t.Helper()
	f.serve("DELETE", "/v1/db/d", nil)
	if rec := f.serve("PUT", "/v1/db/d", nil); rec.Code != http.StatusCreated {
		t.Fatalf("create d: %d %s", rec.Code, rec.Body)
	}
	if rec := f.serve("POST", "/v1/db/d/load", []byte(rels(rel("Old", 2, `[[1,2]]`)))); rec.Code != http.StatusOK {
		t.Fatalf("preload d: %d %s", rec.Code, rec.Body)
	}
	return f.s.lookup("d").db
}

// dumpDB renders a database's relations in insertion order, each as
// name/arity and its tuples sorted by their rendering: integers in
// decimal, strings quoted.
func dumpDB(db *gumbo.Database) string {
	var out []string
	for _, r := range db.Relations() {
		rows := make([]string, r.Size())
		for i := range rows {
			vals := make([]string, r.Arity())
			for j, v := range r.Tuple(i) {
				if v.IsString() {
					vals[j] = fmt.Sprintf("%q", v.Text())
				} else {
					vals[j] = fmt.Sprint(int64(v))
				}
			}
			rows[i] = "[" + strings.Join(vals, " ") + "]"
		}
		slices.Sort(rows)
		out = append(out, fmt.Sprintf("%s/%d {%s}", r.Name(), r.Arity(), strings.Join(rows, " ")))
	}
	return strings.Join(out, "; ")
}

// TestLoadAppendKeepsPublishedRows: an append load publishes a new
// relation and leaves the one it replaces as it was, so a run still
// holding that one reads the rows it held; and the new relation shares
// nothing with the load's pooled value buffer, so later loads through
// that buffer do not change it.
func TestLoadAppendKeepsPublishedRows(t *testing.T) {
	f := newLoadFixture()
	db := f.reset(t)
	old := db.Relation("Old")
	rec := f.serve("POST", "/v1/db/d/load", []byte(rels(rel("Old", 2, `[[3,4],[1,2],[3,4],[5,6]]`))))
	var resp struct{ Relations []relationInfo }
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
		t.Fatalf("append: %d %s", rec.Code, rec.Body)
	}
	if got := resp.Relations; len(got) != 1 || got[0].Size != 3 || got[0].Added != 2 {
		t.Errorf("append answered %+v, want size 3, added 2", got)
	}
	if got := fmt.Sprint(old.Sorted()); got != "[(1, 2)]" {
		t.Errorf("the replaced relation reads %s after the append, want [(1, 2)]", got)
	}
	appended := db.Relation("Old")
	want := fmt.Sprint(appended.Sorted())
	if want != "[(1, 2) (3, 4) (5, 6)]" {
		t.Fatalf("appended relation %s", want)
	}
	for i := range 4 {
		body := rels(rel("R", 2, fmt.Sprintf(`[[%d,%d],[%d,%d],[%d,%d],[%d,%d]]`, i, i, i+1, i, i+2, i, i+3, i)))
		if rec := f.serve("POST", "/v1/db/d/load", []byte(body)); rec.Code != http.StatusOK {
			t.Fatalf("load %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if got := fmt.Sprint(appended.Sorted()); got != want {
		t.Errorf("the appended relation reads %s after later loads, want %s", got, want)
	}
}

// TestLoadContractPinned pins handleLoad's answer to every body of
// loadContract: the status, the exact message of a handler-level
// rejection, an untouched database after any rejection, and the
// database's contents after an accepted load.
func TestLoadContractPinned(t *testing.T) {
	f := newLoadFixture()
	for _, c := range loadContract {
		t.Run(c.name, func(t *testing.T) {
			db := f.reset(t)
			gen := db.Generation()
			rec := f.serve("POST", "/v1/db/d/load", []byte(c.body))
			if rec.Code != c.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, c.status, rec.Body)
			}
			if c.status != http.StatusOK {
				var resp struct{ Error string }
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("error body %q: %v", rec.Body, err)
				}
				if c.msg == badLoad && !strings.HasPrefix(resp.Error, badLoad) || c.msg != badLoad && resp.Error != c.msg {
					t.Errorf("message %q, want %q", resp.Error, c.msg)
				}
				if got := db.Generation(); got != gen {
					t.Errorf("rejected load moved the generation %d -> %d", gen, got)
				}
				if got := dumpDB(db); got != oldOnly {
					t.Errorf("rejected load changed the database: %s", got)
				}
				return
			}
			var info struct {
				Relations []relationInfo
			}
			if code := f.serve("GET", "/v1/db/d", nil); code.Code != http.StatusOK || json.Unmarshal(code.Body.Bytes(), &info) != nil {
				t.Fatalf("GET /v1/db/d: %d %s", code.Code, code.Body)
			}
			var listed []string
			for _, ri := range info.Relations {
				listed = append(listed, fmt.Sprintf("%s/%d:%d", ri.Name, ri.Arity, ri.Size))
			}
			var want []string
			for _, r := range db.Relations() {
				want = append(want, fmt.Sprintf("%s/%d:%d", r.Name(), r.Arity(), r.Size()))
			}
			if !slices.Equal(listed, want) {
				t.Errorf("GET /v1/db/d lists %v, the database holds %v", listed, want)
			}
			if got := dumpDB(db); got != c.db {
				t.Errorf("database\n got %s\nwant %s", got, c.db)
			}
		})
	}
}

// ---- the oracle: the load path as it was before the one-pass parser ----

// oracleLoadRequest is the load body as encoding/json decoded it.
type oracleLoadRequest struct {
	Relations []struct {
		Name   string  `json:"name"`
		Arity  int     `json:"arity"`
		Tuples [][]any `json:"tuples"`
	} `json:"relations"`
}

// decodeTuple converts a JSON row into t, the caller's scratch of the
// row's own length, reused row after row: non-negative integral
// numbers map to integer values, strings to interned strings. Negative
// numbers are rejected rather than silently interned as strings
// (relation.Value reserves negative handles for interned text, so a
// negative integer could not round-trip back as a JSON number).
func decodeTuple(t gumbo.Tuple, raw []any) error {
	for i, v := range raw {
		switch x := v.(type) {
		case string:
			t[i] = gumbo.Str(x)
		case json.Number:
			n, err := x.Int64()
			if err != nil {
				return fmt.Errorf("value %d: %q is not an integer", i, x.String())
			}
			if n < 0 {
				return fmt.Errorf("value %d: negative integer %d is not representable; send it as a string", i, n)
			}
			t[i] = gumbo.Int(n)
		default:
			return fmt.Errorf("value %d: unsupported JSON type %T (want integer or string)", i, v)
		}
	}
	return nil
}

// oracleLoad is handleLoad as it was, loading body into db (named
// name): the response it wrote.
func oracleLoad(db *gumbo.Database, name string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	var req oracleLoadRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad load request: %v", err)
		return w
	}
	if len(req.Relations) == 0 {
		writeError(w, http.StatusBadRequest, "load request names no relations")
		return w
	}
	pending := make(map[string]*gumbo.Relation, len(req.Relations))
	var order []string
	infos := make([]relationInfo, 0, len(req.Relations))
	for _, rp := range req.Relations {
		if rp.Name == "" || rp.Arity <= 0 {
			writeError(w, http.StatusBadRequest, "relation needs a name and a positive arity (got %q/%d)", rp.Name, rp.Arity)
			return w
		}
		for ti, raw := range rp.Tuples {
			if len(raw) != rp.Arity {
				writeError(w, http.StatusBadRequest, "relation %s tuple %d: got %d values, want %d", rp.Name, ti, len(raw), rp.Arity)
				return w
			}
		}
		rel, seen := pending[rp.Name]
		if seen {
			if rel.Arity() != rp.Arity {
				writeError(w, http.StatusBadRequest, "relation %s listed twice with arities %d and %d", rp.Name, rel.Arity(), rp.Arity)
				return w
			}
		} else {
			switch old := db.Relation(rp.Name); {
			case old == nil:
				rel = gumbo.NewRelation(rp.Name, rp.Arity)
			case old.Arity() != rp.Arity:
				writeError(w, http.StatusBadRequest, "relation %s exists with arity %d, load says %d", rp.Name, old.Arity(), rp.Arity)
				return w
			default:
				rel = old.Clone()
			}
			pending[rp.Name] = rel
			order = append(order, rp.Name)
		}
		added := 0
		var t gumbo.Tuple
		if len(rp.Tuples) > 0 {
			t = make(gumbo.Tuple, rp.Arity)
		}
		for ti, raw := range rp.Tuples {
			if err := decodeTuple(t, raw); err != nil {
				writeError(w, http.StatusBadRequest, "relation %s tuple %d: %v", rp.Name, ti, err)
				return w
			}
			if rel.Add(t) {
				added++
			}
		}
		infos = append(infos, relationInfo{Name: rp.Name, Arity: rp.Arity, Size: rel.Size(), Added: added})
	}
	for _, n := range order {
		db.Put(pending[n])
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"db":         name,
		"generation": db.Generation(),
		"relations":  infos,
	})
	return w
}

// FuzzLoadBody holds handleLoad to the oracle on arbitrary bodies: the
// same status always; on 200 the same response bytes and the same
// database; on a handler-level 400 the same message. A syntax or type
// error must be one on both sides, whatever its wording.
func FuzzLoadBody(f *testing.F) {
	for _, c := range loadContract {
		if len(c.body) < 1024 { // the depth cases would make minimizing slow
			f.Add([]byte(c.body))
		}
	}
	fx := newLoadFixture()
	var mu sync.Mutex
	f.Fuzz(func(t *testing.T, body []byte) {
		mu.Lock()
		defer mu.Unlock()
		db := fx.reset(t)
		got := fx.serve("POST", "/v1/db/d/load", body)
		odb := gumbo.NewDatabase()
		odb.Put(gumbo.FromTuples("Old", 2, []gumbo.Tuple{{gumbo.Int(1), gumbo.Int(2)}}))
		want := oracleLoad(odb, "d", body)
		if got.Code != want.Code {
			t.Fatalf("status %d, oracle %d\n got %s\nwant %s", got.Code, want.Code, got.Body, want.Body)
		}
		if got.Code == http.StatusOK {
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("response\n got %s\nwant %s", got.Body, want.Body)
			}
			if g, w := dumpDB(db), dumpDB(odb); g != w {
				t.Fatalf("database\n got %s\nwant %s", g, w)
			}
			return
		}
		var g, w struct{ Error string }
		if json.Unmarshal(got.Body.Bytes(), &g) != nil || json.Unmarshal(want.Body.Bytes(), &w) != nil {
			t.Fatalf("error bodies %q, %q", got.Body, want.Body)
		}
		if strings.HasPrefix(w.Error, badLoad) != strings.HasPrefix(g.Error, badLoad) ||
			!strings.HasPrefix(w.Error, badLoad) && g.Error != w.Error {
			t.Fatalf("message %q, oracle %q", g.Error, w.Error)
		}
		if g := dumpDB(db); g != oldOnly {
			t.Fatalf("rejected load changed the database: %s", g)
		}
	})
}

// TestBodyOverCapIs413: a body past -max-body answers 413 on load and
// query, and a rejected load leaves the database as it was. A first
// value that ends within the cap is read as it always was: the bytes
// after it are never needed.
func TestBodyOverCapIs413(t *testing.T) {
	const maxBody = 100
	s := New(Config{MaxBodyBytes: maxBody})
	fx := &loadFixture{s: s, h: s.Handler()}
	db := fx.reset(t)
	gen := db.Generation()
	for _, c := range []struct {
		name, body string
		status     int
		msg        string
	}{
		{"over the cap", rels(rel("R", 1, "["+strings.Repeat("[1],", 30)+"[1]]")), 413, "bad load request: http: request body too large"},
		{"a scalar cut at the cap", strings.Repeat(" ", maxBody-4) + "null ", 413, "bad load request: http: request body too large"},
		{"a scalar ending before the cap", strings.Repeat(" ", maxBody-5) + "null" + strings.Repeat(" ", 10), 400, noRelations},
		{"a bad value within the cap, the body past it", rels(rel("R", 1, `[[-1]]`)) + strings.Repeat(" ", maxBody), 400, "relation R tuple 0: value 0: negative integer -1 is not representable; send it as a string"},
	} {
		rec := fx.serve("POST", "/v1/db/d/load", []byte(c.body))
		var resp struct{ Error string }
		if rec.Code != c.status || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || resp.Error != c.msg {
			t.Errorf("%s: %d %s, want %d %q", c.name, rec.Code, rec.Body, c.status, c.msg)
		}
		if db.Generation() != gen || dumpDB(db) != oldOnly {
			t.Fatalf("%s: the rejected load changed the database: %s", c.name, dumpDB(db))
		}
	}
	body := rels(rel("R", 1, `[[1]]`)) + strings.Repeat(" ", maxBody)
	if rec := fx.serve("POST", "/v1/db/d/load", []byte(body)); rec.Code != http.StatusOK {
		t.Fatalf("first value within the cap: %d %s", rec.Code, rec.Body)
	}
	query, err := json.Marshal(map[string]string{"query": `Q := SELECT x FROM R(x);` + strings.Repeat(" ", maxBody)})
	if err != nil {
		t.Fatal(err)
	}
	rec := fx.serve("POST", "/v1/db/d/query", query)
	var resp struct{ Error string }
	if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &resp) != nil ||
		resp.Error != "bad query request: http: request body too large" {
		t.Errorf("query over the cap: %d %s, want 413", rec.Code, rec.Body)
	}
}

// TestLoadSizesNothingFromContentLength: a request that claims the
// whole body cap and sends ten bytes costs what ten bytes cost.
func TestLoadSizesNothingFromContentLength(t *testing.T) {
	fx := newLoadFixture()
	fx.reset(t)
	req := httptest.NewRequest("POST", "/v1/db/d/load", strings.NewReader(`{"x":true}`))
	req.ContentLength = 32 << 20
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fx.h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("a ten-byte body claiming 32 MiB allocated %d KB", got>>10)
	}
}

// TestConcurrentLoads: loads into different databases run at once, each
// parsing on buffers from the shared pool, with rejected loads between
// them; every database ends up holding exactly its own bodies' tuples.
func TestConcurrentLoads(t *testing.T) {
	fx := newLoadFixture()
	const loaders, loads = 8, 20
	var wg sync.WaitGroup
	want := make([]string, loaders)
	for g := 0; g < loaders; g++ {
		path := fmt.Sprintf("/v1/db/g%d", g)
		if rec := fx.serve("PUT", path, nil); rec.Code != http.StatusCreated {
			t.Fatalf("create %s: %d", path, rec.Code)
		}
		ref := gumbo.NewRelation("R", 2)
		for i := 0; i < loads; i++ {
			ref.Add(gumbo.Tuple{gumbo.Int(int64(g)), gumbo.Str(fmt.Sprintf("g%d-%d", g, i))})
			ref.Add(gumbo.Tuple{gumbo.Int(int64(i)), gumbo.Int(int64(g))})
		}
		refDB := gumbo.NewDatabase()
		refDB.Put(ref)
		want[g] = dumpDB(refDB)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loads; i++ {
				body := rels(rel("R", 2, fmt.Sprintf(`[[%d,"g%d-%d"],[%d,%d]]`, g, g, i, i, g)))
				if rec := fx.serve("POST", path+"/load", []byte(body)); rec.Code != http.StatusOK {
					t.Errorf("%s load %d: %d %s", path, i, rec.Code, rec.Body)
					return
				}
				if rec := fx.serve("POST", path+"/load", []byte(rels(rel("R", 2, `[[1,"x"],[-1,2]]`)))); rec.Code != http.StatusBadRequest {
					t.Errorf("%s rejected load %d: %d %s", path, i, rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := 0; g < loaders; g++ {
		if got := dumpDB(fx.s.lookup(fmt.Sprintf("g%d", g)).db); got != want[g] {
			t.Errorf("g%d holds\n%s\nwant\n%s", g, got, want[g])
		}
	}
}

// compareRelation fails t unless actual holds exactly expected, in
// expected's order.
func compareRelation(t *testing.T, what string, actual *gumbo.Relation, expected []gumbo.Tuple) {
	t.Helper()
	if actual.Size() != len(expected) {
		t.Fatalf("%s: %v != %v", what, actual.Tuples(), expected)
	}
	for i, want := range expected {
		if !actual.Tuple(i).Equal(want) {
			t.Fatalf("%s: %v != %v", what, actual.Tuples(), expected)
		}
	}
}

// heldRows is a relation and a copy of the rows it read when taken.
type heldRows struct {
	rel  *gumbo.Relation
	rows []gumbo.Tuple
}

func holdRows(db *gumbo.Database) []heldRows {
	var out []heldRows
	for _, r := range db.Relations() {
		rows := make([]gumbo.Tuple, r.Size())
		for i := range rows {
			rows[i] = r.Tuple(i).Clone()
		}
		out = append(out, heldRows{r, rows})
	}
	return out
}

// TestLoadMatchesSerialAdd holds handleLoad's one build path, a
// relation.Merge per relation, against a serial-Add model of it
// (oracleLoad over a copy of the database): the same status, sizes and
// Added counts, and every relation with the model's tuples in the
// model's insertion order. A relation the load replaces still reads its
// old rows, a rejected load leaves the database untouched, and later
// loads through the same pooled buffers leave what this one published
// unchanged.
func TestLoadMatchesSerialAdd(t *testing.T) {
	cases := []struct {
		name  string
		setup string // a load posted first, over Old/2 = {[1 2]}
		body  string
	}{
		{name: "fresh load with duplicates", body: rels(rel("R", 2, `[[1,2],[3,4],[1,2],[5,6],[3,4]]`))},
		{name: "append of new and present rows", body: rels(rel("Old", 2, `[[3,4],[1,2],[5,6],[3,4]]`))},
		{name: "no rows into an existing relation", body: rels(rel("Old", 2, `[]`))},
		{name: "rows into an existing empty relation", setup: rels(rel("E", 1, `[]`)), body: rels(rel("E", 1, `[[7],[8],[7]]`))},
		{name: "one relation listed twice", body: rels(rel("R", 1, `[[1],[2],[1]]`), rel("Old", 2, `[[9,9]]`), rel("R", 1, `[[2],[3]]`), rel("Old", 2, `[]`))},
		{name: "arity mismatch", body: rels(rel("R", 1, `[[1]]`), rel("Old", 3, `[[1,2,3]]`))},
	}
	f := newLoadFixture()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := f.reset(t)
			if c.setup != "" {
				if rec := f.serve("POST", "/v1/db/d/load", []byte(c.setup)); rec.Code != http.StatusOK {
					t.Fatalf("setup: %d %s", rec.Code, rec.Body)
				}
			}
			model := gumbo.NewDatabase()
			for _, r := range db.Relations() {
				model.Put(r.Clone())
			}
			before, gen := holdRows(db), db.Generation()
			got := f.serve("POST", "/v1/db/d/load", []byte(c.body))
			want := oracleLoad(model, "d", []byte(c.body))
			if got.Code != want.Code {
				t.Fatalf("status %d, model %d: %s", got.Code, want.Code, got.Body)
			}
			for _, h := range before {
				compareRelation(t, "replaced "+h.rel.Name(), h.rel, h.rows)
			}
			if got.Code != http.StatusOK {
				after := db.Relations()
				if db.Generation() != gen || len(after) != len(before) {
					t.Fatalf("rejected load changed the database: generation %d → %d", gen, db.Generation())
				}
				for i, r := range after {
					if r != before[i].rel {
						t.Fatalf("rejected load replaced %s", r.Name())
					}
				}
				return
			}
			var gotResp, wantResp struct{ Relations []relationInfo }
			if err := json.Unmarshal(got.Body.Bytes(), &gotResp); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(want.Body.Bytes(), &wantResp); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gotResp.Relations, wantResp.Relations) {
				t.Fatalf("answered %+v, model %+v", gotResp.Relations, wantResp.Relations)
			}
			wantRels := model.Relations()
			if names := db.Names(); !slices.Equal(names, model.Names()) {
				t.Fatalf("relations %v, model %v", names, model.Names())
			}
			for i, r := range db.Relations() {
				if r.Arity() != wantRels[i].Arity() {
					t.Fatalf("%s/%d, model arity %d", r.Name(), r.Arity(), wantRels[i].Arity())
				}
				compareRelation(t, r.Name(), r, wantRels[i].Tuples())
			}
			published := holdRows(db)
			for i := range 4 {
				body := rels(rel("Tmp", 2, fmt.Sprintf(`[[%d,%d],[%d,%d],[%d,%d]]`, i, i+7, i+1, i, i+2, i)))
				if rec := f.serve("POST", "/v1/db/d/load", []byte(body)); rec.Code != http.StatusOK {
					t.Fatalf("later load %d: %d %s", i, rec.Code, rec.Body)
				}
			}
			for _, h := range published {
				compareRelation(t, h.rel.Name()+" after later loads", h.rel, h.rows)
			}
		})
	}
}
