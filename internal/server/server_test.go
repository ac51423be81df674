package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"

	gumbo "repro"
)

// testClient wraps an httptest server with JSON helpers.
type testClient struct {
	t   *testing.T
	srv *httptest.Server
}

func newTestClient(t *testing.T, cfg Config) (*Server, *testClient) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, &testClient{t: t, srv: ts}
}

// do issues a request and decodes the JSON response into out (ignored
// when out is nil). Returns the status code.
func (c *testClient) do(method, path string, body any, out any) int {
	c.t.Helper()
	var payload *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatalf("marshal request: %v", err)
		}
		payload = bytes.NewReader(b)
	} else {
		payload = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.srv.URL+path, payload)
	if err != nil {
		c.t.Fatalf("new request: %v", err)
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		dec := json.NewDecoder(resp.Body)
		dec.UseNumber()
		if err := dec.Decode(out); err != nil {
			c.t.Fatalf("%s %s: decode response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// loadBookstore creates db and loads the three-relation example data.
func (c *testClient) loadBookstore(db string) {
	c.t.Helper()
	if code := c.do("PUT", "/v1/db/"+db, nil, nil); code != http.StatusCreated {
		c.t.Fatalf("create db: status %d", code)
	}
	load := map[string]any{"relations": []map[string]any{
		{"name": "R", "arity": 2, "tuples": [][]any{{1, 2}, {2, 3}, {4, 5}, {6, 7}}},
		{"name": "S", "arity": 2, "tuples": [][]any{{1, 2}, {3, 2}, {5, 4}}},
		{"name": "T", "arity": 2, "tuples": [][]any{{1, 100}, {2, 200}, {6, 300}}},
	}}
	if code := c.do("POST", "/v1/db/"+db+"/load", load, nil); code != http.StatusOK {
		c.t.Fatalf("load: status %d", code)
	}
}

// libDB builds the same database the loadBookstore payload describes.
func libDB() *gumbo.Database {
	db := gumbo.NewDatabase()
	db.Put(gumbo.FromTuples("R", 2, []gumbo.Tuple{
		{gumbo.Int(1), gumbo.Int(2)}, {gumbo.Int(2), gumbo.Int(3)},
		{gumbo.Int(4), gumbo.Int(5)}, {gumbo.Int(6), gumbo.Int(7)},
	}))
	db.Put(gumbo.FromTuples("S", 2, []gumbo.Tuple{
		{gumbo.Int(1), gumbo.Int(2)}, {gumbo.Int(3), gumbo.Int(2)}, {gumbo.Int(5), gumbo.Int(4)},
	}))
	db.Put(gumbo.FromTuples("T", 2, []gumbo.Tuple{
		{gumbo.Int(1), gumbo.Int(100)}, {gumbo.Int(2), gumbo.Int(200)}, {gumbo.Int(6), gumbo.Int(300)},
	}))
	return db
}

const (
	queryZ = `Z := SELECT x, y FROM R(x, y) WHERE (S(x, y) OR S(y, x)) AND T(x, z);`
	queryW = `W := SELECT x FROM R(x, y) WHERE T(x, z);`
)

// canonJSON is the bit-for-bit comparison form of a tuple list.
func canonJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestEndToEndConcurrentQueries is the acceptance test: load a database
// over HTTP, submit concurrent queries, and require each HTTP response's
// tuples to match — bit for bit — the canonical encoding of the relation
// a library-direct System.Run produces.
func TestEndToEndConcurrentQueries(t *testing.T) {
	s, c := newTestClient(t, Config{})
	c.loadBookstore("shop")

	queries := []string{queryZ, queryW, queryZ, queryW, queryZ, queryW}
	db := libDB()
	want := make([]string, len(queries))
	for i, src := range queries {
		q := gumbo.MustParse(src)
		res, err := s.System().Run(q, db, s.System().Auto(q))
		if err != nil {
			t.Fatalf("library run %d: %v", i, err)
		}
		want[i] = canonJSON(t, encodeTuples(res.Relation))
	}

	var wg sync.WaitGroup
	got := make([]string, len(queries))
	errs := make([]error, len(queries))
	for i, src := range queries {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			var resp queryResponse
			code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": src}, &resp)
			if code != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", code)
				return
			}
			got[i] = canonJSON(t, resp.Tuples)
			if resp.BatchSize != 1 {
				errs[i] = fmt.Errorf("unbatched query reported batch_size %d", resp.BatchSize)
			}
		}(i, src)
	}
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("query %d: HTTP tuples %s != library tuples %s", i, got[i], want[i])
		}
	}
}

// TestPlanCacheHitMissInvalidation covers the cache lifecycle: first
// run misses, repeat hits, and loading data (a generation bump, i.e. a
// schema/content change) invalidates.
func TestPlanCacheHitMissInvalidation(t *testing.T) {
	_, c := newTestClient(t, Config{})
	c.loadBookstore("shop")

	run := func() queryResponse {
		var resp queryResponse
		if code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryZ, "strategy": "GREEDY"}, &resp); code != http.StatusOK {
			t.Fatalf("query: status %d", code)
		}
		return resp
	}
	if got := run().Cache; got != "miss" {
		t.Fatalf("first run: cache %q, want miss", got)
	}
	if got := run().Cache; got != "hit" {
		t.Fatalf("second run: cache %q, want hit", got)
	}
	// Same text under a different strategy is a different plan.
	var other queryResponse
	c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryZ, "strategy": "SEQ"}, &other)
	if other.Cache != "miss" {
		t.Fatalf("strategy change: cache %q, want miss", other.Cache)
	}
	// A load bumps the generation: cached plans for the old state no
	// longer match.
	load := map[string]any{"relations": []map[string]any{
		{"name": "S", "arity": 2, "tuples": [][]any{{7, 6}}},
	}}
	if code := c.do("POST", "/v1/db/shop/load", load, nil); code != http.StatusOK {
		t.Fatalf("incremental load failed")
	}
	after := run()
	if after.Cache != "miss" {
		t.Fatalf("post-load run: cache %q, want miss (generation invalidation)", after.Cache)
	}
	if got := run().Cache; got != "hit" {
		t.Fatalf("post-load repeat: cache %q, want hit", got)
	}
}

// TestQueryAgainstUpdatedData guards against the cache serving stale
// results: after a load, the same query text must reflect the new data.
func TestQueryAgainstUpdatedData(t *testing.T) {
	_, c := newTestClient(t, Config{})
	c.loadBookstore("shop")

	var before queryResponse
	c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryW}, &before)
	// Give x=4 a T partner: W (x of R with a T partner) gains a tuple.
	load := map[string]any{"relations": []map[string]any{
		{"name": "T", "arity": 2, "tuples": [][]any{{4, 400}}},
	}}
	c.do("POST", "/v1/db/shop/load", load, nil)
	var after queryResponse
	c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryW}, &after)
	if canonJSON(t, before.Tuples) == canonJSON(t, after.Tuples) {
		t.Fatalf("query result unchanged after load; stale plan/result served")
	}
}

func TestDatabaseLifecycleAndErrors(t *testing.T) {
	_, c := newTestClient(t, Config{})

	if code := c.do("PUT", "/v1/db/a", nil, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	if code := c.do("PUT", "/v1/db/a", nil, nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", code)
	}
	if code := c.do("PUT", "/v1/db/bad%20name", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid name: %d, want 400", code)
	}
	var dbs map[string]any
	c.do("GET", "/v1/dbs", nil, &dbs)
	if got := fmt.Sprint(dbs["dbs"]); got != "[a]" {
		t.Fatalf("list: %s", got)
	}
	if code := c.do("POST", "/v1/db/missing/query", map[string]any{"query": queryZ}, nil); code != http.StatusNotFound {
		t.Fatalf("query on missing db: %d, want 404", code)
	}
	if code := c.do("POST", "/v1/db/a/query", map[string]any{"query": "not sgf"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad query text: %d, want 400", code)
	}
	if code := c.do("POST", "/v1/db/a/query", map[string]any{"query": queryZ, "strategy": "BOGUS"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad strategy: %d, want 400", code)
	}
	// queryZ reads relations the empty database lacks.
	if code := c.do("POST", "/v1/db/a/query", map[string]any{"query": queryZ}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("query over missing relations: %d, want 422", code)
	}
	if code := c.do("DELETE", "/v1/db/a", nil, nil); code != http.StatusNoContent {
		t.Fatalf("drop: %d", code)
	}
	if code := c.do("DELETE", "/v1/db/a", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double drop: %d, want 404", code)
	}
}

func TestLoadValidation(t *testing.T) {
	_, c := newTestClient(t, Config{})
	c.loadBookstore("shop")

	// Arity mismatch with the existing relation.
	bad := map[string]any{"relations": []map[string]any{
		{"name": "R", "arity": 3, "tuples": [][]any{{1, 2, 3}}},
	}}
	if code := c.do("POST", "/v1/db/shop/load", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("arity clash: %d, want 400", code)
	}
	// Tuple narrower than declared arity.
	bad = map[string]any{"relations": []map[string]any{
		{"name": "U", "arity": 2, "tuples": [][]any{{1}}},
	}}
	if code := c.do("POST", "/v1/db/shop/load", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("short tuple: %d, want 400", code)
	}
	// Non-integral number.
	bad = map[string]any{"relations": []map[string]any{
		{"name": "U", "arity": 1, "tuples": [][]any{{1.5}}},
	}}
	if code := c.do("POST", "/v1/db/shop/load", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("float value: %d, want 400", code)
	}
	// Negative integers cannot round-trip (they would come back as
	// strings) and are rejected.
	bad = map[string]any{"relations": []map[string]any{
		{"name": "U", "arity": 1, "tuples": [][]any{{-5}}},
	}}
	if code := c.do("POST", "/v1/db/shop/load", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("negative value: %d, want 400", code)
	}
	// A failed load must not commit anything: the valid relation listed
	// before the bad one stays unpublished, and the generation is
	// unchanged.
	var info map[string]any
	c.do("GET", "/v1/db/shop", nil, &info)
	genBefore := info["generation"]
	bad = map[string]any{"relations": []map[string]any{
		{"name": "OK", "arity": 1, "tuples": [][]any{{1}}},
		{"name": "R", "arity": 3, "tuples": [][]any{{1, 2, 3}}}, // arity clash
	}}
	if code := c.do("POST", "/v1/db/shop/load", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("partial load: %d, want 400", code)
	}
	c.do("GET", "/v1/db/shop", nil, &info)
	if info["generation"] != genBefore {
		t.Fatalf("failed load bumped generation %v -> %v; load is not atomic", genBefore, info["generation"])
	}
	for _, rel := range info["relations"].([]any) {
		if rel.(map[string]any)["name"] == "OK" {
			t.Fatal("failed load published relation OK; load is not atomic")
		}
	}
	// String values are fine and round-trip.
	good := map[string]any{"relations": []map[string]any{
		{"name": "Rated", "arity": 2, "tuples": [][]any{{"book", "bad"}, {"film", "good"}}},
	}}
	if code := c.do("POST", "/v1/db/shop/load", good, nil); code != http.StatusOK {
		t.Fatalf("string load: %d", code)
	}
	var resp queryResponse
	code := c.do("POST", "/v1/db/shop/query",
		map[string]any{"query": `Bad := SELECT x FROM Rated(x, "bad");`}, &resp)
	if code != http.StatusOK {
		t.Fatalf("string query: %d", code)
	}
	if got := canonJSON(t, resp.Tuples); got != `[["book"]]` {
		t.Fatalf("string round-trip: %s", got)
	}
}

// TestConcurrentMixedTraffic hammers one server with queries from many
// goroutines, every other one sent with the ignored "batch" field; run
// under -race this doubles as the service-layer race test. Every
// response must match the library result.
func TestConcurrentMixedTraffic(t *testing.T) {
	s, c := newTestClient(t, Config{PlanCacheSize: 8})
	c.loadBookstore("shop")

	db := libDB()
	type ref struct{ src, want string }
	mk := func(src string) ref {
		q := gumbo.MustParse(src)
		res, err := s.System().Run(q, db, s.System().Auto(q))
		if err != nil {
			t.Fatalf("library run: %v", err)
		}
		return ref{src: src, want: canonJSON(t, encodeTuples(res.Relation))}
	}
	refs := []ref{mk(queryZ), mk(queryW),
		mk(`V := SELECT y FROM S(x, y) WHERE R(x, y);`),
		mk(`U := SELECT x FROM T(x, y) WHERE NOT S(x, x);`),
	}

	const goroutines = 8
	const iters = 6
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r := refs[(g+i)%len(refs)]
				var resp queryResponse
				code := c.do("POST", "/v1/db/shop/query",
					map[string]any{"query": r.src, "batch": (g+i)%2 == 0}, &resp)
				if code != http.StatusOK {
					errc <- fmt.Errorf("goroutine %d iter %d: status %d", g, i, code)
					return
				}
				if got := canonJSON(t, resp.Tuples); got != r.want {
					errc <- fmt.Errorf("goroutine %d iter %d: %s != %s", g, i, got, r.want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestBatchFieldIgnored: a request that sets the old micro-batching
// field runs alone, as any other: under the strategy it asked for, with
// batch_size 1 and no batch_outputs.
func TestBatchFieldIgnored(t *testing.T) {
	s, c := newTestClient(t, Config{})
	c.loadBookstore("shop")
	q := gumbo.MustParse(queryZ)
	lib, err := s.System().Run(q, libDB(), gumbo.SEQ)
	if err != nil {
		t.Fatal(err)
	}
	var resp map[string]any
	if code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryZ, "strategy": "SEQ", "batch": true}, &resp); code != http.StatusOK {
		t.Fatalf("status %d: %v", code, resp)
	}
	if resp["strategy"] != "SEQ" {
		t.Errorf("strategy %v, want SEQ", resp["strategy"])
	}
	if resp["batch_size"] != json.Number("1") {
		t.Errorf("batch_size %v, want 1", resp["batch_size"])
	}
	if _, ok := resp["batch_outputs"]; ok {
		t.Errorf("batch_outputs sent: %v", resp["batch_outputs"])
	}
	if got, want := canonJSON(t, resp["tuples"]), canonJSON(t, encodeTuples(lib.Relation)); got != want {
		t.Errorf("tuples %s, want the library's %s", got, want)
	}
}

// TestStringTupleOrderIsContentOnly: the wire order of string values
// must depend on relation contents only, not on process-global intern
// order (raw Value handles order by interning sequence, so a
// handle-sorted encoding would vary with unrelated earlier traffic).
func TestStringTupleOrderIsContentOnly(t *testing.T) {
	_, c := newTestClient(t, Config{})
	if code := c.do("PUT", "/v1/db/d", nil, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	// "zeta" is loaded (and thus interned) before "alpha"; the response
	// must still be lexicographic.
	load := map[string]any{"relations": []map[string]any{
		{"name": "Words", "arity": 1, "tuples": [][]any{{"zeta"}, {"alpha"}, {"mid"}}},
	}}
	if code := c.do("POST", "/v1/db/d/load", load, nil); code != http.StatusOK {
		t.Fatal("load failed")
	}
	var resp queryResponse
	if code := c.do("POST", "/v1/db/d/query", map[string]any{"query": `W := SELECT x FROM Words(x);`}, &resp); code != http.StatusOK {
		t.Fatalf("query failed: %d", code)
	}
	if got := canonJSON(t, resp.Tuples); got != `[["alpha"],["mid"],["zeta"]]` {
		t.Fatalf("string tuples not in content order: %s", got)
	}
}

// TestLoadSizesNothingFromDeclaredArity: a declared arity far beyond what
// the body holds costs no memory — an empty relation of it loads, rows
// narrower than it are a 400, and neither sizes storage from the number.
func TestLoadSizesNothingFromDeclaredArity(t *testing.T) {
	_, c := newTestClient(t, Config{})
	c.do("PUT", "/v1/db/a", nil, nil)
	narrow := make([][]any, 1000)
	for i := range narrow {
		narrow[i] = []any{i}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tc := range []struct {
		arity  int64
		tuples [][]any
		want   int
	}{
		{20_000_000_000, [][]any{}, http.StatusOK},
		{20_000_000_000, [][]any{{1}}, http.StatusBadRequest},
		{1_000_000, narrow, http.StatusBadRequest},
		{1_000_000, make([][]any, 1000), http.StatusBadRequest}, // rows of width 0
	} {
		body := map[string]any{"relations": []map[string]any{
			{"name": fmt.Sprintf("W%d", tc.arity), "arity": tc.arity, "tuples": tc.tuples},
		}}
		if code := c.do("POST", "/v1/db/a/load", body, nil); code != tc.want {
			t.Errorf("arity %d, %d tuples: %d, want %d", tc.arity, len(tc.tuples), code, tc.want)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Errorf("four small loads allocated %d MB; storage is sized from the declared arity", got>>20)
	}
}

// TestLoadSameRelationTwiceInOneRequest: a relation listed twice in one
// payload accumulates both entries' tuples.
func TestLoadSameRelationTwiceInOneRequest(t *testing.T) {
	_, c := newTestClient(t, Config{})
	if code := c.do("PUT", "/v1/db/d", nil, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	load := map[string]any{"relations": []map[string]any{
		{"name": "R", "arity": 1, "tuples": [][]any{{1}}},
		{"name": "R", "arity": 1, "tuples": [][]any{{2}}},
	}}
	if code := c.do("POST", "/v1/db/d/load", load, nil); code != http.StatusOK {
		t.Fatalf("load: status %d", code)
	}
	var info map[string]any
	c.do("GET", "/v1/db/d", nil, &info)
	rels := info["relations"].([]any)
	if len(rels) != 1 {
		t.Fatalf("relations: %v", rels)
	}
	if size, _ := rels[0].(map[string]any)["size"].(json.Number).Int64(); size != 2 {
		t.Fatalf("R has size %d after loading [1] and [2] in one request, want 2", size)
	}
}

// TestDBInfoEmptyRelationsArray: an empty database reports relations as
// [] (the documented array shape), not null.
func TestDBInfoEmptyRelationsArray(t *testing.T) {
	_, c := newTestClient(t, Config{})
	c.do("PUT", "/v1/db/empty", nil, nil)
	var info map[string]any
	c.do("GET", "/v1/db/empty", nil, &info)
	if rels, ok := info["relations"].([]any); !ok || rels == nil {
		t.Fatalf("relations = %v (%T), want empty array", info["relations"], info["relations"])
	}
}

// TestDropRecreateNoStaleCache: a recreated database must never hit
// plans cached for its dropped predecessor (cache keys use a unique
// per-creation instance id, not the name).
func TestDropRecreateNoStaleCache(t *testing.T) {
	_, c := newTestClient(t, Config{})
	c.loadBookstore("shop")

	var first queryResponse
	c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryW}, &first)
	var warm queryResponse
	c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryW}, &warm)
	if warm.Cache != "hit" {
		t.Fatalf("warm-up: cache %q, want hit", warm.Cache)
	}
	if code := c.do("DELETE", "/v1/db/shop", nil, nil); code != http.StatusNoContent {
		t.Fatalf("drop failed")
	}
	// Recreate with the same name and replay the same loads: the
	// generation reaches the same value as before, so a name-keyed cache
	// would serve the old plan as a hit.
	c.loadBookstore("shop")
	var fresh queryResponse
	if code := c.do("POST", "/v1/db/shop/query", map[string]any{"query": queryW}, &fresh); code != http.StatusOK {
		t.Fatalf("query on recreated db: status %d", code)
	}
	if fresh.Cache != "miss" {
		t.Fatalf("recreated db served cache %q, want miss", fresh.Cache)
	}
	if got, want := canonJSON(t, fresh.Tuples), canonJSON(t, first.Tuples); got != want {
		t.Fatalf("recreated db result %s != %s", got, want)
	}
}

func TestPlanCacheLRUAndPurge(t *testing.T) {
	cache := newPlanCache(2)
	plan := &gumbo.Plan{}
	ka := planKey("a", 1, gumbo.Greedy, "q1")
	kb := planKey("a", 1, gumbo.Greedy, "q2")
	kc := planKey("b", 1, gumbo.Greedy, "q1")
	cache.put(ka, plan)
	cache.put(kb, plan)
	if _, ok := cache.get(ka); !ok {
		t.Fatal("ka missing")
	}
	cache.put(kc, plan) // evicts kb (LRU; ka was just touched)
	if _, ok := cache.get(kb); ok {
		t.Fatal("kb should have been evicted")
	}
	if _, ok := cache.get(ka); !ok {
		t.Fatal("ka should have survived eviction")
	}
	cache.purgeDB("a")
	if _, ok := cache.get(ka); ok {
		t.Fatal("ka should have been purged with database a")
	}
	if _, ok := cache.get(kc); !ok {
		t.Fatal("kc belongs to database b and should survive the purge")
	}
	// Generation changes the key even for identical text.
	if planKey("a", 1, gumbo.Greedy, "q") == planKey("a", 2, gumbo.Greedy, "q") {
		t.Fatal("generation not part of the key")
	}
}

// compareRows orders encoded rows column by column: int64 before
// string, ints numerically, strings lexicographically.
func compareRows(a, b []any) int {
	for i := range a {
		if i >= len(b) {
			return 1
		}
		ai, aInt := a[i].(int64)
		bi, bInt := b[i].(int64)
		switch {
		case aInt && bInt:
			if ai != bi {
				if ai < bi {
					return -1
				}
				return 1
			}
		case aInt:
			return -1 // ints sort before strings
		case bInt:
			return 1
		default:
			as, bs := a[i].(string), b[i].(string)
			if as != bs {
				if as < bs {
					return -1
				}
				return 1
			}
		}
	}
	if len(a) < len(b) {
		return -1
	}
	return 0
}

// oracleRows is encodeTuples as it was: the rows as [][]any, sorted by
// compareRows, for writeJSON's encoder to write.
func oracleRows(rel *gumbo.Relation) [][]any {
	out := make([][]any, rel.Size())
	for i := range out {
		row := make([]any, rel.Arity())
		for j, v := range rel.Tuple(i) {
			if v.IsString() {
				row[j] = v.Text()
			} else {
				row[j] = int64(v)
			}
		}
		out[i] = row
	}
	sort.Slice(out, func(i, j int) bool { return compareRows(out[i], out[j]) < 0 })
	return out
}

// encodeAsWriteJSON encodes v as writeJSON does, without the newline.
func encodeAsWriteJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// TestEncodeTuplesMatchesEncodingJSON: the tuples a query response
// carries are, byte for byte, what encoding the rows as [][]any with
// writeJSON's encoder wrote — alone and inside the response.
func TestEncodeTuplesMatchesEncodingJSON(t *testing.T) {
	texts := []string{
		"", "a", "b", "<b>&c</b>", `say "hi"`, `back\slash`, "\x00", "\x01\x1f", "\t\n\r\b\f",
		"\x7f", "line\xe2\x80\xa8sep\xe2\x80\xa9", "\xff", "a\xc0b", "\xed\xa0\x80", "é", "\xf0\x9f\x98\x80",
		"10", "-1", "tag-3-7", "ZZ", "z",
		`<"&">`, "é<>&", "<\n>", "\xff&",
	}
	ints := []int64{0, 1, 2, 9, 10, 1 << 40, math.MaxInt64}
	var values []gumbo.Value
	for _, s := range texts {
		values = append(values, gumbo.Str(s))
	}
	for _, n := range ints {
		values = append(values, gumbo.Int(n))
	}
	cases := []*gumbo.Relation{
		gumbo.NewRelation("Empty", 2),
		gumbo.FromTuples("Ints", 1, []gumbo.Tuple{{gumbo.Int(math.MaxInt64)}, {gumbo.Int(0)}, {gumbo.Int(10)}, {gumbo.Int(9)}}),
	}
	texts1 := gumbo.NewRelation("Texts", 1)
	for _, s := range texts {
		texts1.Add(gumbo.Tuple{gumbo.Str(s)})
	}
	cases = append(cases, texts1)
	rng := rand.New(rand.NewPCG(1, 2))
	for arity := 1; arity <= 4; arity++ {
		mixed := gumbo.NewRelation(fmt.Sprintf("Mixed%d", arity), arity)
		for i := 0; i < 300; i++ {
			row := make(gumbo.Tuple, arity)
			for j := range row {
				row[j] = values[rng.IntN(len(values))]
			}
			mixed.Add(row)
		}
		cases = append(cases, mixed)
	}
	for _, rel := range cases {
		got, rows := encodeTuples(rel), oracleRows(rel)
		if want := encodeAsWriteJSON(t, rows); !bytes.Equal(got, want) {
			t.Errorf("%s: encodeTuples\n got %s\nwant %s", rel.Name(), got, want)
		}
		resp := encodeAsWriteJSON(t, queryResponse{Output: rel.Name(), Tuples: got})
		oracle := encodeAsWriteJSON(t, struct {
			Output string  `json:"output"`
			Arity  int     `json:"arity"`
			Tuples [][]any `json:"tuples"`
		}{rel.Name(), 0, rows})
		if !bytes.HasPrefix(resp, oracle[:len(oracle)-1]) {
			t.Errorf("%s: in a response\n got %s\nwant %s...", rel.Name(), resp, oracle[:len(oracle)-1])
		}
	}
}
