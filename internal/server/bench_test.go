package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	gumbo "repro"
	"repro/internal/workload"
)

// serveCorpus is the serving benchmark's query mix over the A1 schema
// (bench/workloads.go's corpus).
var serveCorpus = []string{
	`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND T(y) AND U(z) AND V(w);`,
	`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND T(x) AND U(x) AND V(x);`,
	`Z := SELECT x, y FROM R(x, y, z, w) WHERE NOT (S(x) OR T(y));`,
	`Z := SELECT x FROM R(x, y, z, w) WHERE S(x) OR T(y) OR U(z) OR V(w);`,
	`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND S(y) AND S(z) AND S(w);`,
	`Z := SELECT z, w FROM R(x, y, z, w) WHERE U(z) AND NOT V(w);`,
}

// serveData is the serving benchmark's database: A1 at 2 000 guard
// tuples, seed 1.
func serveData() *gumbo.Database {
	return workload.A1().WithSeed(1).Build(2000.0 / workload.PaperGuardTuples)
}

// appendRelations renders db's integer relations as the elements of a
// load request's "relations" array.
func appendRelations(b []byte, db *gumbo.Database) []byte {
	for i, r := range db.Relations() {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"name":%q,"arity":%d,"tuples":[`, r.Name(), r.Arity())
		for j := 0; j < r.Size(); j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			for k, v := range r.Tuple(j) {
				if k > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(v), 10)
			}
			b = append(b, ']')
		}
		b = append(b, "]}"...)
	}
	return b
}

// mustServe runs one request through h and fails b unless it answers
// want.
func mustServe(b *testing.B, h http.Handler, method, path string, body []byte, want int) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != want {
		b.Fatalf("%s %s: %d, want %d: %.200s", method, path, rec.Code, want, rec.Body)
	}
	return rec
}

// loadSessions numbers BenchmarkLoad's sessions across its runs, so
// that every session's strings are new to the intern table.
var loadSessions int

// BenchmarkLoad is one serve-churn session without its queries: create
// a database, load the serving data plus 50 strings no earlier session
// used, drop it.
func BenchmarkLoad(b *testing.B) {
	h := New(Config{}).Handler()
	prefix := appendRelations([]byte(`{"relations":[`), serveData())
	body := prefix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadSessions++
		body = append(body[:len(prefix)], `,{"name":"Tag","arity":1,"tuples":[`...)
		for k := 0; k < 50; k++ {
			if k > 0 {
				body = append(body, ',')
			}
			body = fmt.Appendf(body, `["tag-%d-%d"]`, loadSessions, k)
		}
		body = append(body, "]}]}"...)
		mustServe(b, h, "PUT", "/v1/db/c", nil, http.StatusCreated)
		mustServe(b, h, "POST", "/v1/db/c/load", body, http.StatusOK)
		mustServe(b, h, "DELETE", "/v1/db/c", nil, http.StatusNoContent)
	}
}

// BenchmarkQueryHit posts the serving corpus, in turn, to a database
// holding the serving data; every plan is cached before the timer
// starts.
func BenchmarkQueryHit(b *testing.B) {
	h := New(Config{}).Handler()
	mustServe(b, h, "PUT", "/v1/db/hot", nil, http.StatusCreated)
	body := append(appendRelations([]byte(`{"relations":[`), serveData()), "]}"...)
	mustServe(b, h, "POST", "/v1/db/hot/load", body, http.StatusOK)
	bodies := make([][]byte, len(serveCorpus))
	for k, src := range serveCorpus {
		var err error
		if bodies[k], err = json.Marshal(map[string]string{"query": src}); err != nil {
			b.Fatal(err)
		}
		mustServe(b, h, "POST", "/v1/db/hot/query", bodies[k], http.StatusOK)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustServe(b, h, "POST", "/v1/db/hot/query", bodies[i%len(bodies)], http.StatusOK)
	}
}

// BenchmarkWorkOverEval is the engine's work-efficiency on the serving
// corpus: each text, planned as the server plans it, runs at one worker
// (System.RunPlan) alternately with the reference evaluator (gumbo.Eval)
// on the same data, so the host's speed cancels out of their ratio. It
// reports work/eval, the engine's time over the evaluator's (below 1, the
// engine is the faster), and span-us, the run's span as its task record
// folds it (Progress.CriticalPath).
func BenchmarkWorkOverEval(b *testing.B) {
	db := serveData()
	sys := gumbo.New(gumbo.WithHostWorkers(1))
	for k, src := range serveCorpus {
		q := gumbo.MustParse(src)
		plan, err := sys.Plan(q, db, sys.Auto(q))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("S%d", k+1), func(b *testing.B) {
			var run, eval time.Duration
			var span float64
			for i := 0; i < b.N; i++ {
				var rec gumbo.Progress
				start := time.Now()
				if _, err := sys.RunPlanCtx(context.Background(), plan, db, gumbo.RunOptions{Progress: &rec}); err != nil {
					b.Fatal(err)
				}
				mid := time.Now()
				if _, err := gumbo.Eval(q, db); err != nil {
					b.Fatal(err)
				}
				run, eval = run+mid.Sub(start), eval+time.Since(mid)
				span += rec.CriticalPath().Seconds
			}
			b.ReportMetric(float64(run)/float64(eval), "work/eval")
			b.ReportMetric(span*1e6/float64(b.N), "span-us")
		})
	}
}
