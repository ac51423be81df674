package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
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

// BenchmarkLoadAppend loads the serving data into a database, then
// times loading the same body into it again: every relation is
// appended to, and every row it sends is already present.
func BenchmarkLoadAppend(b *testing.B) {
	h := New(Config{}).Handler()
	mustServe(b, h, "PUT", "/v1/db/a", nil, http.StatusCreated)
	body := append(appendRelations([]byte(`{"relations":[`), serveData()), "]}"...)
	mustServe(b, h, "POST", "/v1/db/a/load", body, http.StatusOK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustServe(b, h, "POST", "/v1/db/a/load", body, http.StatusOK)
	}
}

// hotServer is a server whose database "hot" holds the serving data,
// with every plan of the serving corpus cached, and the corpus's query
// request bodies.
func hotServer(b *testing.B) (http.Handler, [][]byte) {
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
	return h, bodies
}

// BenchmarkQueryHit posts the serving corpus, in turn, to a database
// holding the serving data; every plan is cached before the timer
// starts.
func BenchmarkQueryHit(b *testing.B) {
	h, bodies := hotServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustServe(b, h, "POST", "/v1/db/hot/query", bodies[i%len(bodies)], http.StatusOK)
	}
}

// BenchmarkWorkOverEval is the engine's work-efficiency: each text,
// planned as it is served or benchmarked, runs at one worker
// (System.RunPlan) alternately with the reference evaluator on the same
// data, so the host's speed cancels out of their ratio. S1–S6 are the
// serving corpus on the serving data, planned as the server plans them
// and held against gumbo.Eval; C3 is the nested-sgf benchmark workload —
// paper query C3 at 15 000 guard tuples, seed 1, at that size's scale —
// planned under GREEDY-SGF and held against gumbo.EvalAll, since all
// seven of its outputs are computed. It reports work/eval, the engine's
// time over the evaluator's (below 1, the engine is the faster); span-us,
// the run's span as its task record folds it (Progress.CriticalPath);
// and the run's summed map, shuffle, reduce and merge task time in ms
// (Result.JobTimings).
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
			workOverEval(b, sys, plan, db, func() error { _, err := gumbo.Eval(q, db); return err })
		})
	}
	const guard = 15000
	c3, scale := workload.C3().WithSeed(1), float64(guard)/workload.PaperGuardTuples
	c3db := c3.Build(scale)
	c3sys := gumbo.New(gumbo.WithHostWorkers(1), gumbo.WithScale(scale))
	q := gumbo.MustParse(c3.Program.String())
	plan, err := c3sys.Plan(q, c3db, gumbo.GreedySGF)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("C3", func(b *testing.B) {
		workOverEval(b, c3sys, plan, c3db, func() error { _, err := gumbo.EvalAll(q, c3db); return err })
	})
}

// collect runs a garbage collection outside b's timer, so that neither
// leg of workOverEval pays to collect the other's garbage.
func collect(b *testing.B) {
	b.StopTimer()
	runtime.GC()
	b.StartTimer()
}

// workOverEval is one BenchmarkWorkOverEval case: b.N runs of plan on
// sys, each followed by eval, and the metrics that compare them. Each
// leg starts on a freshly collected heap.
func workOverEval(b *testing.B, sys *gumbo.System, plan *gumbo.Plan, db *gumbo.Database, eval func() error) {
	var run, evalled time.Duration
	var span float64
	var work gumbo.JobTiming
	for i := 0; i < b.N; i++ {
		var rec gumbo.Progress
		collect(b)
		start := time.Now()
		res, err := sys.RunPlanCtx(context.Background(), plan, db, gumbo.RunOptions{Progress: &rec})
		if err != nil {
			b.Fatal(err)
		}
		run += time.Since(start)
		collect(b)
		start = time.Now()
		if err := eval(); err != nil {
			b.Fatal(err)
		}
		evalled += time.Since(start)
		span += rec.CriticalPath().Seconds
		for _, jt := range res.JobTimings {
			work.MapSeconds += jt.MapSeconds
			work.ShuffleSeconds += jt.ShuffleSeconds
			work.ReduceSeconds += jt.ReduceSeconds
			work.MergeSeconds += jt.MergeSeconds
		}
	}
	perOp := 1e3 / float64(b.N)
	b.ReportMetric(float64(run)/float64(evalled), "work/eval")
	b.ReportMetric(span*1e6/float64(b.N), "span-us")
	b.ReportMetric(work.MapSeconds*perOp, "map-ms")
	b.ReportMetric(work.ShuffleSeconds*perOp, "shuffle-ms")
	b.ReportMetric(work.ReduceSeconds*perOp, "reduce-ms")
	b.ReportMetric(work.MergeSeconds*perOp, "merge-ms")
}

// BenchmarkQueryClients is BenchmarkQueryHit under concurrency: exactly
// n goroutines, closed loop, share b.N requests through one counter, so
// the client count does not follow GOMAXPROCS as RunParallel's would.
// It reports wall ms per request; a non-200 answer fails the run.
func BenchmarkQueryClients(b *testing.B) {
	h, bodies := hotServer(b)
	for _, n := range []int{2, 8, 16, 32} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			var next, failed atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			start := time.Now()
			for c := 0; c < n; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/db/hot/query", bytes.NewReader(bodies[i%int64(len(bodies))])))
						if rec.Code != http.StatusOK {
							failed.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(time.Since(start).Seconds()*1e3/float64(b.N), "ms/req")
			if k := failed.Load(); k > 0 {
				b.Errorf("%d of %d requests answered non-200", k, b.N)
			}
		})
	}
}
