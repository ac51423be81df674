package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	gumbo "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// size scales a workload: guard tuples of its own database, guard tuples
// of each resident cold database (serving workloads), ops per round,
// spill threshold in bytes (skew-spill).
type size struct {
	guard, resident, ops int
	spill                int64
}

type spec struct {
	name    string
	clients int // closed-loop load threads
	full    size
	toy     size
	setup   func(cfg config, sz size) (instance, error)
}

// loadThreads is serve-hot's client count, the most any workload uses:
// one per core of the reference box.
const loadThreads = 2

// skew-spill's 48 KiB threshold makes 30 of its 107 shuffle partitions
// spill, about 1 MB per op. Every spilled partition is one temp file
// created, written, read back and removed; at 16 KiB (all 107) the ext4
// metadata work alone moved the op time by 20% in plateaus tens of
// seconds long.
//
// The full sizes give rounds of about one second on the 2-vCPU
// reference box: short enough that a round usually sees one machine
// state. Each op count is a multiple of the workload's query cycle, so
// that every round replays the same multiset of ops.
var specs = []spec{
	{name: "nested-sgf", clients: 1, full: size{guard: 15000, ops: 5}, toy: size{guard: 300, ops: 2}, setup: setupNested},
	{name: "skew-spill", clients: 1, full: size{guard: 30000, ops: 7, spill: 48 << 10}, toy: size{guard: 1500, ops: 2, spill: 2 << 10}, setup: setupSkew},
	{name: "serve-hot", clients: loadThreads, full: size{guard: 2000, resident: 50000, ops: 198}, toy: size{guard: 100, resident: 200, ops: 12}, setup: setupHot},
	{name: "serve-churn", clients: 1, full: size{guard: 2000, resident: 50000, ops: 38}, toy: size{guard: 100, resident: 200, ops: 2}, setup: setupChurn},
}

// corpus is the serving workloads' query mix over the A1 schema: A1, A3,
// a negated disjunction, a 4-way OR, A2 and a NOT/AND pair. All are flat,
// so strategy auto resolves to 1-ROUND or GREEDY.
var corpus = []string{
	`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND T(y) AND U(z) AND V(w);`,
	`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND T(x) AND U(x) AND V(x);`,
	`Z := SELECT x, y FROM R(x, y, z, w) WHERE NOT (S(x) OR T(y));`,
	`Z := SELECT x FROM R(x, y, z, w) WHERE S(x) OR T(y) OR U(z) OR V(w);`,
	`Z := SELECT x, y, z, w FROM R(x, y, z, w) WHERE S(x) AND S(y) AND S(z) AND S(w);`,
	`Z := SELECT z, w FROM R(x, y, z, w) WHERE U(z) AND NOT V(w);`,
}

func scaleOf(guardTuples int) float64 {
	return float64(guardTuples) / workload.PaperGuardTuples
}

// ---- output verification ----

// digest identifies a relation's contents: cardinality plus an
// order-independent sum of per-tuple hashes.
type digest struct {
	rows int
	sum  uint64
}

func digestOf(rel *gumbo.Relation) digest {
	d := digest{rows: rel.Size()}
	for _, t := range rel.Tuples() {
		h := uint64(14695981039346656037)
		for _, v := range t {
			h = (h ^ uint64(v)) * 1099511628211
		}
		d.sum += h ^ h>>29
	}
	return d
}

// tuplesHash hashes the "tuples" segment of a query response. The server
// writes tuples in a canonical order, so equal relations give equal
// bytes.
func tuplesHash(body []byte) (uint64, bool) {
	i := bytes.Index(body, []byte(`"tuples":`))
	j := bytes.LastIndex(body, []byte(`,"strategy":`))
	if i < 0 || j < i {
		return 0, false
	}
	h := uint64(14695981039346656037)
	for _, b := range body[i:j] {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h, true
}

// libQuery is one query text, the strategy it runs under, and what its
// verified output looks like in process (want) and on the wire.
type libQuery struct {
	src      string
	strategy gumbo.Strategy
	want     digest
	wire     uint64
}

// oracle runs src through the engine and requires the result to be
// set-equal to the reference evaluator's. An empty strategy means
// System.Auto.
func oracle(sys *gumbo.System, db *gumbo.Database, src string, strategy gumbo.Strategy) (libQuery, *gumbo.Result, error) {
	q, err := gumbo.Parse(src)
	if err != nil {
		return libQuery{}, nil, err
	}
	if strategy == "" {
		strategy = sys.Auto(q)
	}
	want, err := gumbo.Eval(q, db)
	if err != nil {
		return libQuery{}, nil, fmt.Errorf("reference evaluator: %w", err)
	}
	res, err := sys.Run(q, db, strategy)
	if err != nil {
		return libQuery{}, nil, err
	}
	if !res.Relation.Equal(want) {
		return libQuery{}, nil, fmt.Errorf("%s over %s: engine gives %d tuples, reference evaluator %d, and they differ", strategy, q.Name(), res.Relation.Size(), want.Size())
	}
	return libQuery{src: src, strategy: strategy, want: digestOf(res.Relation)}, res, nil
}

// ---- library calls, whole and by layer ----

// work is the summed task time of one run by kind, in ms.
type work struct {
	mapMs, shuffleMs, reduceMs, splitMs, mergeMs float64
}

func workOf(res *gumbo.Result) work {
	var w work
	for _, t := range res.JobTimings {
		w.mapMs += 1e3 * t.MapSeconds
		w.shuffleMs += 1e3 * t.ShuffleSeconds
		w.reduceMs += 1e3 * t.ReduceSeconds
		w.splitMs += 1e3 * t.SplitSeconds
		w.mergeMs += 1e3 * t.MergeSeconds
	}
	return w
}

func (w *work) add(o work) {
	w.mapMs += o.mapMs
	w.shuffleMs += o.shuffleMs
	w.reduceMs += o.reduceMs
	w.splitMs += o.splitMs
	w.mergeMs += o.mergeMs
}

// total leaves splitMs out: it is a share of reduceMs.
func (w work) total() float64 { return w.mapMs + w.shuffleMs + w.reduceMs + w.mergeMs }

// layered is one library op issued as its three layer calls.
type layered struct {
	res              *gumbo.Result
	parse, plan, run time.Duration
}

func runLayered(sys *gumbo.System, db *gumbo.Database, q libQuery, tr *tracer) (layered, error) {
	var l layered
	op := tr.begin(0, "gumbo.op", "")
	defer tr.end(op, nil)

	id, t0 := tr.begin(op, "sgf.parse", ""), time.Now()
	parsed, err := gumbo.Parse(q.src)
	l.parse = time.Since(t0)
	tr.end(id, nil)
	if err != nil {
		return l, err
	}
	id, t0 = tr.begin(op, "core.plan", ""), time.Now()
	plan, err := sys.Plan(parsed, db, q.strategy)
	l.plan = time.Since(t0)
	tr.end(id, nil)
	if err != nil {
		return l, err
	}
	id, t0 = tr.begin(op, "exec.run", ""), time.Now()
	l.res, err = sys.RunPlan(plan, db)
	l.run = time.Since(t0)
	if tr != nil && err == nil {
		w := workOf(l.res)
		tr.end(id, map[string]float64{
			"jobs": float64(len(l.res.JobStats)), "map_ms": w.mapMs, "shuffle_ms": w.shuffleMs,
			"reduce_ms": w.reduceMs, "split_ms": w.splitMs, "merge_ms": w.mergeMs,
			"charged_mb":    float64(l.res.Mem.ChargedBytes) / MB,
			"spilled_parts": float64(l.res.Mem.SpilledParts),
		})
	} else {
		tr.end(id, nil)
	}
	if err == nil && digestOf(l.res.Relation) != q.want {
		err = fmt.Errorf("%s: output differs from the verified one", q.strategy)
	}
	return l, err
}

// probeLibrary measures the engine by layer from outside: every query of
// qs as parse, plan and run on the default-width system, and the same
// plan's run on a one-worker system. Each metric is the median over
// passes of the mean over qs.
func probeLibrary(r *result, tr *tracer, deadline time.Time, sys, sysW1 *gumbo.System, db *gumbo.Database, qs []libQuery) error {
	type pass struct {
		parse, plan, run, runW1 float64
		w, w1                   work
	}
	var passes []pass
	var last []*gumbo.Result
	for len(passes) < 3 || time.Now().Before(deadline) {
		var p pass
		last = last[:0]
		for _, q := range qs {
			l, err := runLayered(sys, db, q, tr)
			if err != nil {
				return err
			}
			l1, err := runLayered(sysW1, db, q, tr)
			if err != nil {
				return err
			}
			p.parse += ms(l.parse)
			p.plan += ms(l.plan)
			p.run += ms(l.run)
			p.runW1 += ms(l1.run)
			p.w.add(workOf(l.res))
			p.w1.add(workOf(l1.res))
			last = append(last, l.res)
		}
		passes = append(passes, p)
	}
	n := float64(len(qs))
	per := func(f func(pass) float64) float64 { return medianOf(passes, f) / n }
	run := per(func(p pass) float64 { return p.run })
	runW1 := per(func(p pass) float64 { return p.runW1 })
	workMs := per(func(p pass) float64 { return p.w.total() })
	workW1 := per(func(p pass) float64 { return p.w1.total() })

	// The exact quantities are the same on every pass.
	var jobs, rounds, records, inMB, interMB, outMB, mapTasks, redTasks, splitTasks, maxTask, imbalance float64
	var charged, spilled, spilledParts float64
	for _, res := range last {
		jobs += float64(res.Plan.Jobs())
		rounds += float64(res.Plan.Rounds())
		for _, js := range res.JobStats {
			records += float64(js.Records())
			inMB += js.InputMB()
			interMB += js.InterMB()
			outMB += js.OutputMB
			mapTasks += float64(js.MapTasks)
			redTasks += float64(js.ReduceTasks)
			splitTasks += float64(js.SplitReduceTasks)
			maxTask = max(maxTask, js.MaxReduceTaskMB)
			imbalance = max(imbalance, js.ReduceImbalance())
		}
		charged += float64(res.Mem.ChargedBytes) / MB
		spilled += float64(res.Mem.SpilledBytes) / MB
		spilledParts += float64(res.Mem.SpilledParts)
	}

	r.add("sgf.parse_us", "us", 1e3*per(func(p pass) float64 { return p.parse }))
	r.add("core.plan_ms", "ms", per(func(p pass) float64 { return p.plan }))
	r.add("core.jobs", "count", jobs/n)
	r.add("core.rounds", "count", rounds/n)
	r.add("exec.run_ms", "ms", run)
	r.add("exec.run_w1_ms", "ms", runW1)
	r.add("exec.scaling", "x", ratio(runW1, run))
	r.add("exec.overhead_ms", "ms", per(func(p pass) float64 { return p.runW1 - p.w1.total() }))
	r.add("mr.map_ms", "ms", per(func(p pass) float64 { return p.w.mapMs }))
	r.add("mr.shuffle_ms", "ms", per(func(p pass) float64 { return p.w.shuffleMs }))
	r.add("mr.reduce_ms", "ms", per(func(p pass) float64 { return p.w.reduceMs }))
	r.add("mr.split_ms", "ms", per(func(p pass) float64 { return p.w.splitMs }))
	r.add("mr.work_ms", "ms", workMs)
	r.add("mr.work_w1_ms", "ms", workW1)
	r.add("mr.work_inflation", "x", ratio(workMs, workW1))
	r.add("mr.records_k", "k", records/1e3/n)
	r.add("mr.input_mb", "MB", inMB/n)
	r.add("mr.inter_mb", "MB", interMB/n)
	r.add("mr.output_mb", "MB", outMB/n)
	r.add("mr.map_tasks", "count", mapTasks/n)
	r.add("mr.reduce_tasks", "count", redTasks/n)
	r.add("mr.split_tasks", "count", splitTasks/n)
	r.add("mr.max_reduce_task_mb", "MB", maxTask)
	r.add("mr.reduce_imbalance", "x", imbalance)
	r.add("mr.charged_mb", "MB", charged/n)
	r.add("mr.spilled_mb", "MB", spilled/n)
	r.add("mr.spilled_parts", "count", spilledParts/n)
	r.add("relation.merge_ms", "ms", per(func(p pass) float64 { return p.w.mergeMs }))
	probeRelation(r, db)
	return nil
}

// probeRelation rebuilds the workload database's relations from fresh
// copies of their tuples and reports the build time and the live heap
// each stored value costs.
func probeRelation(r *result, db *gumbo.Database) {
	var fresh [][]gumbo.Tuple
	values := 0
	before := liveHeapMB()
	for _, rel := range db.Relations() {
		ts := make([]gumbo.Tuple, rel.Size())
		for i, t := range rel.Tuples() {
			ts[i] = t.Clone()
		}
		fresh = append(fresh, ts)
		values += rel.Size() * rel.Arity()
	}
	built := make([]*gumbo.Relation, 0, len(fresh))
	t0 := time.Now()
	for i, rel := range db.Relations() {
		built = append(built, gumbo.FromTuples(rel.Name(), rel.Arity(), fresh[i]))
	}
	buildMs := ms(time.Since(t0))
	after := liveHeapMB()
	runtime.KeepAlive(built)
	r.add("relation.build_ms", "ms", buildMs)
	r.add("relation.bytes_per_value", "B", ratio((after-before)*MB, float64(values)))
}

// serverProbe holds the serving layer's client-side medians; the zero
// value is what library workloads report.
type serverProbe struct {
	hit, miss, load, create, drop, floorUs, direct, overhead, reqKB, respKB float64
}

func (p serverProbe) report(r *result) {
	r.add("server.query_hit_ms", "ms", p.hit)
	r.add("server.query_miss_ms", "ms", p.miss)
	r.add("server.load_ms", "ms", p.load)
	r.add("server.create_ms", "ms", p.create)
	r.add("server.drop_ms", "ms", p.drop)
	r.add("server.http_floor_us", "us", p.floorUs)
	r.add("server.direct_ms", "ms", p.direct)
	r.add("server.overhead_ms", "ms", p.overhead)
	r.add("server.req_kb", "KB", p.reqKB)
	r.add("server.resp_kb", "KB", p.respKB)
}

// ---- nested-sgf and skew-spill: the library called in process ----

type libInst struct {
	sys, sysW1 *gumbo.System
	db         *gumbo.Database
	qs         []libQuery // the workload's one query
	spillDir   string     // "" when the workload does not spill
	net, total float64
}

func setupNested(cfg config, sz size) (instance, error) {
	_, inst, err := setupLib(cfg, sz, workload.C3(), gumbo.GreedySGF, "")
	return inst, err
}

func setupSkew(cfg config, sz size) (instance, error) {
	w := workload.A1()
	w.Zipf = 0.8
	dir := filepath.Join(cfg.outDir, "spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	res, inst, err := setupLib(cfg, sz, w, gumbo.Greedy, dir, gumbo.WithSkewSplit(1.5), gumbo.WithSpill(sz.spill, dir))
	if err != nil {
		return nil, err
	}
	split := 0
	for _, js := range res.JobStats {
		split += js.SplitReduceTasks
	}
	if split == 0 || res.Mem.SpilledParts == 0 {
		return nil, fmt.Errorf("the governed path is not exercised: %d split reduce tasks, %d spilled partitions", split, res.Mem.SpilledParts)
	}
	return inst, nil
}

func setupLib(cfg config, sz size, w workload.Workload, strategy gumbo.Strategy, spillDir string, opts ...gumbo.Option) (*gumbo.Result, instance, error) {
	scale := scaleOf(sz.guard)
	opts = append([]gumbo.Option{gumbo.WithScale(scale)}, opts...)
	l := &libInst{
		sys:      gumbo.New(opts...),
		sysW1:    gumbo.New(append(opts[:len(opts):len(opts)], gumbo.WithHostWorkers(1))...),
		db:       w.WithSeed(cfg.seed).Build(scale),
		spillDir: spillDir,
	}
	q, res, err := oracle(l.sys, l.db, w.Program.String(), strategy)
	if err != nil {
		return nil, nil, err
	}
	l.qs = []libQuery{q}
	l.net, l.total = res.Metrics.NetTime, res.Metrics.TotalTime
	for i := 0; i < 3; i++ { // warm-up
		if _, ok := l.op(0, i, nil); !ok {
			return nil, nil, errors.New("warm-up op failed")
		}
	}
	return res, l, nil
}

func (l *libInst) op(_, _ int, tr *tracer) (time.Duration, bool) {
	q := l.qs[0]
	t0 := time.Now()
	if tr != nil {
		_, err := runLayered(l.sys, l.db, q, tr)
		return time.Since(t0), err == nil
	}
	parsed, err := gumbo.Parse(q.src)
	if err != nil {
		return time.Since(t0), false
	}
	res, err := l.sys.Run(parsed, l.db, q.strategy)
	d := time.Since(t0)
	return d, err == nil && digestOf(res.Relation) == q.want
}

func (l *libInst) model() (float64, float64) { return l.net, l.total }

func (l *libInst) stats() (map[string]float64, error) { return nil, nil }

func (l *libInst) probe(r *result, tr *tracer, deadline time.Time) error {
	if err := probeLibrary(r, tr, deadline, l.sys, l.sysW1, l.db, l.qs); err != nil {
		return err
	}
	serverProbe{}.report(r)
	return nil
}

func (l *libInst) close() error {
	if l.spillDir == "" {
		return nil
	}
	left, err := os.ReadDir(l.spillDir)
	if err != nil {
		return err
	}
	if len(left) > 0 {
		return fmt.Errorf("%d spill files remain in %s", len(left), l.spillDir)
	}
	return nil
}

// ---- serve-hot and serve-churn: the server over loopback HTTP ----

type srvInst struct {
	churn  bool
	http   *http.Server
	served chan error
	base   string
	client *http.Client
	resp   []bytes.Buffer // response bodies, one per load thread, reused
	load   []bytes.Buffer // churn's load requests, one per load thread, reused

	sys, sysW1 *gumbo.System // the server's configuration, for the oracle and server.direct_ms
	hot        *gumbo.Database
	hotLoad    []byte // the hot relations as elements of a load request's array
	qs         []libQuery
	bodies     [][]byte // query requests, aligned with qs
	net, total float64

	sessions                      atomic.Int64 // names churn's databases and strings; never reset
	requests, reqBytes, respBytes atomic.Int64
}

func setupHot(cfg config, sz size) (instance, error)   { return setupServe(cfg, sz, false) }
func setupChurn(cfg config, sz size) (instance, error) { return setupServe(cfg, sz, true) }

func setupServe(cfg config, sz size, churn bool) (_ instance, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &srvInst{
		churn:  churn,
		http:   &http.Server{Handler: server.New(server.Config{}).Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		resp:   make([]bytes.Buffer, loadThreads),
		load:   make([]bytes.Buffer, loadThreads),
		sys:    gumbo.New(),
		sysW1:  gumbo.New(gumbo.WithHostWorkers(1)),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	defer func() {
		if err != nil {
			err = errors.Join(err, s.close())
		}
	}()

	// The resident set: cold databases that are loaded and never
	// queried, so that the collector works against a realistic heap.
	for i := 0; i < 2; i++ {
		cold := workload.A4().WithSeed(cfg.seed*1000 + int64(i)).Build(scaleOf(sz.resident))
		if err := s.createAndLoad(fmt.Sprintf("/v1/db/cold%d", i), relationsJSON(cold)); err != nil {
			return nil, err
		}
	}
	s.hot = workload.A1().WithSeed(cfg.seed).Build(scaleOf(sz.guard))
	s.hotLoad = relationsJSON(s.hot)
	if err := s.createAndLoad("/v1/db/hot", s.hotLoad); err != nil {
		return nil, err
	}

	for _, src := range corpus {
		q, res, err := oracle(s.sys, s.hot, src, "")
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(map[string]string{"query": src})
		if err != nil {
			return nil, err
		}
		if q.wire, err = s.verifyWire(body, res.Relation); err != nil {
			return nil, fmt.Errorf("%s: %w", src, err)
		}
		s.qs = append(s.qs, q)
		s.bodies = append(s.bodies, body)
		s.net += res.Metrics.NetTime
		s.total += res.Metrics.TotalTime
	}
	warm := 2 * len(corpus)
	if churn {
		warm = 2
	}
	for i := 0; i < warm; i++ {
		if _, ok := s.op(0, i, nil); !ok {
			return nil, errors.New("warm-up op failed")
		}
	}
	return s, nil
}

// relationsJSON renders db's relations as the comma-separated elements
// of a load request's "relations" array. Workload data is all integers.
func relationsJSON(db *gumbo.Database) []byte {
	var b []byte
	for i, rel := range db.Relations() {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"name":%q,"arity":%d,"tuples":[`, rel.Name(), rel.Arity())
		for j, t := range rel.Tuples() {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			for k, v := range t {
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

func loadBody(relations []byte) []byte {
	return append(append([]byte(`{"relations":[`), relations...), "]}"...)
}

func (s *srvInst) createAndLoad(path string, relations []byte) error {
	if err := s.expect(0, nil, 0, "create", "PUT", path, nil, http.StatusCreated); err != nil {
		return err
	}
	return s.expect(0, nil, 0, "load", "POST", path+"/load", loadBody(relations), http.StatusOK)
}

// do sends one request and reads the whole response into the load
// thread's buffer; the returned bytes are valid until c's next request.
func (s *srvInst) do(c int, tr *tracer, parent int, kind, method, path string, body []byte) (int, []byte, error) {
	id := tr.begin(parent, "server.request", kind)
	defer tr.end(id, nil)
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	buf := &s.resp[c]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.requests.Add(1)
	s.reqBytes.Add(int64(len(body)))
	s.respBytes.Add(int64(buf.Len()))
	return resp.StatusCode, buf.Bytes(), err
}

func (s *srvInst) expect(c int, tr *tracer, parent int, kind, method, path string, body []byte, want int) error {
	status, resp, err := s.do(c, tr, parent, kind, method, path, body)
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, status, want, resp)
	}
	return nil
}

// query posts query k of the corpus and reports whether the response's
// tuples are the verified ones. The check runs after the clock stops.
func (s *srvInst) query(c int, tr *tracer, parent int, db string, k int) (time.Duration, bool) {
	t0 := time.Now()
	status, resp, err := s.do(c, tr, parent, "query", "POST", db+"/query", s.bodies[k])
	d := time.Since(t0)
	if err != nil || status != http.StatusOK {
		return d, false
	}
	h, ok := tuplesHash(resp)
	return d, ok && h == s.qs[k].wire
}

// verifyWire posts a query at set-up, requires the decoded tuples to be
// exactly want, and returns the hash later responses must repeat.
func (s *srvInst) verifyWire(body []byte, want *gumbo.Relation) (uint64, error) {
	status, resp, err := s.do(0, nil, 0, "query", "POST", "/v1/db/hot/query", body)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %.200s", status, resp)
	}
	var got struct {
		Tuples [][]int64 `json:"tuples"`
	}
	if err := json.Unmarshal(resp, &got); err != nil {
		return 0, err
	}
	if len(got.Tuples) != want.Size() {
		return 0, fmt.Errorf("server returns %d tuples, library %d", len(got.Tuples), want.Size())
	}
	for _, row := range got.Tuples {
		t := make(gumbo.Tuple, len(row))
		for i, v := range row {
			t[i] = gumbo.Int(v)
		}
		if !want.Contains(t) {
			return 0, fmt.Errorf("server returns %v, which the library result lacks", row)
		}
	}
	h, ok := tuplesHash(resp)
	if !ok {
		return 0, errors.New("response has no tuples segment")
	}
	return h, nil
}

func (s *srvInst) op(c, i int, tr *tracer) (time.Duration, bool) {
	if !s.churn {
		op := tr.begin(0, "gumbo.op", "")
		defer tr.end(op, nil)
		return s.query(c, tr, op, "/v1/db/hot", i%len(s.qs))
	}
	// One tenant session: create, load the hot data plus 50 strings no
	// earlier session used, three queries that miss the plan cache, drop.
	n := s.sessions.Add(1)
	db := "/v1/db/c" + strconv.FormatInt(n, 10)
	load := &s.load[c]
	load.Reset()
	load.WriteString(`{"relations":[`)
	load.Write(s.hotLoad)
	load.WriteString(`,{"name":"Tag","arity":1,"tuples":[`)
	for k := 0; k < 50; k++ {
		if k > 0 {
			load.WriteByte(',')
		}
		fmt.Fprintf(load, `["tag-%d-%d"]`, n, k)
	}
	load.WriteString(`]}]}`)

	op := tr.begin(0, "gumbo.op", "")
	defer tr.end(op, nil)
	t0 := time.Now()
	ok := s.expect(c, tr, op, "create", "PUT", db, nil, http.StatusCreated) == nil &&
		s.expect(c, tr, op, "load", "POST", db+"/load", load.Bytes(), http.StatusOK) == nil
	for k := 0; k < 3 && ok; k++ {
		_, ok = s.query(c, tr, op, db, (3*i+k)%len(s.qs))
	}
	ok = ok && s.expect(c, tr, op, "drop", "DELETE", db, nil, http.StatusNoContent) == nil
	return time.Since(t0), ok
}

func (s *srvInst) model() (float64, float64) { return s.net, s.total }

func (s *srvInst) stats() (map[string]float64, error) {
	status, resp, err := s.do(0, nil, 0, "stats", "GET", "/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: status %d", status)
	}
	var m map[string]float64
	return m, json.Unmarshal(resp, &m)
}

// probe times each request kind with one client: a fresh database is
// created, loaded with the hot data, queried with the corpus twice
// (plan-cache misses, then hits) and dropped. Each hit is followed by
// the same plan run in process, so that the two see the same collector
// phase and their difference is the serving layer's own cost.
func (s *srvInst) probe(r *result, tr *tracer, deadline time.Time) error {
	p := serverProbe{
		reqKB:  ratio(float64(s.reqBytes.Load()), float64(s.requests.Load())) / 1024,
		respKB: ratio(float64(s.respBytes.Load()), float64(s.requests.Load())) / 1024,
	}
	half := time.Now().Add(time.Until(deadline) / 2)
	if err := probeLibrary(r, tr, half, s.sys, s.sysW1, s.hot, s.qs); err != nil {
		return err
	}
	plans := make([]*gumbo.Plan, len(s.qs))
	for k, q := range s.qs {
		parsed, err := gumbo.Parse(q.src)
		if err != nil {
			return err
		}
		if plans[k], err = s.sys.Plan(parsed, s.hot, q.strategy); err != nil {
			return err
		}
	}
	body := loadBody(s.hotLoad)
	var hit, miss, load, create, drop, floor, direct, overhead []float64
	for len(hit) < 3 || time.Now().Before(deadline) {
		db := "/v1/db/p" + strconv.FormatInt(s.sessions.Add(1), 10)
		op := tr.begin(0, "gumbo.op", "")
		timed := func(dst *[]float64, kind, method, path string, body []byte, want int) error {
			t0 := time.Now()
			err := s.expect(0, tr, op, kind, method, path, body, want)
			*dst = append(*dst, ms(time.Since(t0)))
			return err
		}
		if err := timed(&create, "create", "PUT", db, nil, http.StatusCreated); err != nil {
			return err
		}
		if err := timed(&load, "load", "POST", db+"/load", body, http.StatusOK); err != nil {
			return err
		}
		var sums [3]time.Duration // miss, hit, direct
		for i := 0; i < 2; i++ {
			for k := range s.qs {
				d, ok := s.query(0, tr, op, db, k)
				if !ok {
					return fmt.Errorf("probe query %d on %s failed", k, db)
				}
				sums[i] += d
				if i == 0 {
					continue
				}
				id, t0 := tr.begin(op, "exec.run", ""), time.Now()
				_, err := s.sys.RunPlan(plans[k], s.hot)
				sums[2] += time.Since(t0)
				tr.end(id, nil)
				if err != nil {
					return err
				}
			}
		}
		n := float64(len(s.qs))
		miss = append(miss, ms(sums[0])/n)
		hit = append(hit, ms(sums[1])/n)
		direct = append(direct, ms(sums[2])/n)
		overhead = append(overhead, ms(sums[1]-sums[2])/n)
		if err := timed(&floor, "healthz", "GET", "/healthz", nil, http.StatusOK); err != nil {
			return err
		}
		if err := timed(&drop, "drop", "DELETE", db, nil, http.StatusNoContent); err != nil {
			return err
		}
		tr.end(op, nil)
	}
	p.hit, p.miss, p.load = median(hit), median(miss), median(load)
	p.create, p.drop, p.floorUs = median(create), median(drop), 1e3*median(floor)
	p.direct, p.overhead = median(direct), median(overhead)
	p.report(r)
	return nil
}

func (s *srvInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.client.CloseIdleConnections()
	return err
}
