package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// MB matches the program's own unit (mr.MB).
const MB = float64(1 << 20)

// config is what one invocation fixes for every workload it runs.
type config struct {
	seed      int64
	seconds   time.Duration // length of the measured phase
	minRounds int
	setups    int       // set-ups per measured run; setup_s is their median
	sentinel  *sentinel // nil = off (every reading is 1)
	toy       bool      // smoke-test sizes
	outDir    string
}

// metric is one reported number. Slices of it keep the order of the
// tables in README.md.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is one pass of one workload.
type result struct {
	Workload  string
	Traced    bool
	Attempted int
	Failed    int
	Metrics   []metric
	Raw       []metric // the uncalibrated medians behind the calibrated metrics; printed, not sent to a driver
}

func (r *result) pass() string {
	if r.Traced {
		return "traced"
	}
	return "measured"
}

func (r *result) add(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics = append(r.Metrics, metric{name, v, unit})
}

// instance is a workload after set-up: data generated, server started,
// outputs checked against the oracle, caches warm.
type instance interface {
	// op runs operation i of a round on behalf of load thread c and
	// returns its latency (verification excluded) and whether its
	// output was right. tr is nil when tracing is off.
	op(c, i int, tr *tracer) (time.Duration, bool)
	// model returns the paper's simulated net and total time summed
	// over the workload's distinct queries.
	model() (net, total float64)
	// probe makes the traced pass's layer measurements; it returns by
	// the deadline or after three passes, whichever is later.
	probe(r *result, tr *tracer, deadline time.Time) error
	// stats returns the program's own counters (the server's /v1/stats);
	// nil for library workloads.
	stats() (map[string]float64, error)
	close() error
}

// counters are the process-wide quantities read at round boundaries.
// All come from getrusage and runtime/metrics: neither stops the world.
type counters struct {
	cpu    time.Duration
	allocB uint64
	allocN uint64
	gcN    uint64
	gcCPU  float64 // seconds
}

func readCounters() counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return counters{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB: s[0].Value.Uint64(),
		allocN: s[1].Value.Uint64(),
		gcN:    s[2].Value.Uint64(),
		gcCPU:  s[3].Value.Float64(),
	}
}

func (a *counters) addDelta(from, to counters) {
	a.cpu += to.cpu - from.cpu
	a.allocB += to.allocB - from.allocB
	a.allocN += to.allocN - from.allocN
	a.gcN += to.gcN - from.gcN
	a.gcCPU += to.gcCPU - from.gcCPU
}

// liveHeapMB is the heap still reachable after two collections (the
// second frees what finalizers released in the first).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / MB
}

// stealTicks reads the aggregate cpu line of /proc/stat and returns the
// stolen and total ticks; zeros when the file is not there.
func stealTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// roundStat is what one round contributes to the estimators.
type roundStat struct {
	ops, failed int
	elapsed     time.Duration
	p50         time.Duration
	cpu         time.Duration
	slow        float64 // the machine's slowness around the round: mean of the sentinels on both sides
}

// meter runs rounds. Its buffers are sized once so that the harness's
// own live heap stays constant through the measured phase.
type meter struct {
	inst    instance
	ops     int
	clients int
	lat     []time.Duration // one slot per op of the current round
	pooled  []time.Duration // untraced latencies of the traced pass, for the tails
	total   counters
}

func newMeter(inst instance, ops, clients int, pool bool) *meter {
	m := &meter{inst: inst, ops: ops, clients: clients, lat: make([]time.Duration, ops)}
	if pool {
		m.pooled = make([]time.Duration, 0, 64*ops)
	}
	return m
}

// round replays the workload's op schedule once: ops 0..n-1, handed to
// the load threads in index order, each thread closed-loop.
func (m *meter) round(tr *tracer) roundStat {
	var next, failed atomic.Int64
	before := readCounters()
	start := time.Now()
	worker := func(c int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= m.ops {
				return
			}
			d, ok := m.inst.op(c, i, tr)
			m.lat[i] = d
			if !ok {
				failed.Add(1)
			}
		}
	}
	if m.clients == 1 {
		worker(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < m.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker(c)
			}()
		}
		wg.Wait()
	}
	elapsed := time.Since(start)
	after := readCounters()
	m.total.addDelta(before, after)
	if tr == nil && m.pooled != nil && len(m.pooled)+m.ops <= cap(m.pooled) {
		m.pooled = append(m.pooled, m.lat...)
	}
	sort.Slice(m.lat, func(a, b int) bool { return m.lat[a] < m.lat[b] })
	return roundStat{
		ops:     m.ops,
		failed:  int(failed.Load()),
		elapsed: elapsed,
		p50:     quantileDur(m.lat, 0.5),
		cpu:     after.cpu - before.cpu,
	}
}

// runWorkload sets the workload up, runs its rounds and returns one
// pass's metrics: the end-to-end set when traced is false, the
// per-layer set when it is true.
func runWorkload(cfg config, sp spec, traced bool) (*result, error) {
	sz := sp.full
	if cfg.toy {
		sz = sp.toy
	}
	setups := cfg.setups
	if traced {
		setups = 1
	}
	var inst instance
	var setupS []float64
	slow := cfg.sentinel.measure()
	for i := 0; i < setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", sp.name, err)
			}
			inst = nil
			slow = cfg.sentinel.measure()
		}
		t0 := time.Now()
		var err error
		if inst, err = sp.setup(cfg, sz); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", sp.name, err)
		}
		d := time.Since(t0).Seconds()
		after := cfg.sentinel.measure()
		setupS = append(setupS, d/((slow+after)/2))
	}
	res := &result{Workload: sp.name, Traced: traced}
	err := measure(cfg, sp, sz, inst, median(setupS), res)
	if cerr := inst.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: close: %w", sp.name, cerr)
	}
	return res, err
}

func measure(cfg config, sp spec, sz size, inst instance, setupS float64, res *result) error {
	var tr *tracer
	if res.Traced {
		tr = newTracer()
	}
	m := newMeter(inst, sz.ops, sp.clients, res.Traced)
	heap0 := liveHeapMB()
	stats0, err := inst.stats()
	if err != nil {
		return err
	}
	steal0, ticks0 := stealTicks()

	// Every round has the sentinel on both sides. In the traced pass
	// every round runs twice, without spans and with them, so that both
	// see the same machine and their difference is the tracing overhead.
	var plain, spanned []roundStat
	boundary := []float64{cfg.sentinel.measure()}
	round := func(tr *tracer) roundStat {
		rs := m.round(tr)
		boundary = append(boundary, cfg.sentinel.measure())
		rs.slow = (boundary[len(boundary)-2] + boundary[len(boundary)-1]) / 2
		return rs
	}
	start := time.Now()
	budget := cfg.seconds
	if res.Traced {
		budget /= 2 // the other half is for the layer probes
	}
	for r := 0; r < cfg.minRounds || time.Since(start) < budget; r++ {
		plain = append(plain, round(nil))
		if res.Traced {
			spanned = append(spanned, round(tr))
		}
	}

	for _, rs := range slices.Concat(plain, spanned) {
		res.Attempted += rs.ops
		res.Failed += rs.failed
	}
	ops := float64(res.Attempted)
	perOp := func(r roundStat) float64 { return ms(r.elapsed) / float64(r.ops) }
	p50 := func(r roundStat) float64 { return ms(r.p50) }
	cpu := func(r roundStat) float64 { return ms(r.cpu) / float64(r.ops) }
	heapEnd := liveHeapMB()

	if !res.Traced {
		net, total := inst.model()
		res.Raw = []metric{{"ops_per_s", 1e3 / medianOf(plain, perOp), "1/s"}, {"lat_p50_ms", medianOf(plain, p50), "ms"}, {"cpu_ms_per_op", medianOf(plain, cpu), "ms"}}
		res.add("setup_s", "s", setupS)
		res.add("ops_per_s", "1/s", 1e3/calibrated(plain, perOp))
		res.add("lat_p50_ms", "ms", calibrated(plain, p50))
		res.add("cpu_ms_per_op", "ms", calibrated(plain, cpu))
		res.add("alloc_mb_per_op", "MB", float64(m.total.allocB)/MB/ops)
		res.add("allocs_k_per_op", "k", float64(m.total.allocN)/1e3/ops)
		res.add("heap_live_mb", "MB", heapEnd)
		res.add("model_net_s", "sim_s", net)
		res.add("model_total_s", "sim_s", total)
		return nil
	}

	stats1, err := inst.stats()
	if err != nil {
		return err
	}
	steal1, ticks1 := stealTicks()
	if err := inst.probe(res, tr, time.Now().Add(cfg.seconds/2)); err != nil {
		return err
	}
	// Library workloads have no server: their stats maps are nil and
	// every server metric reads 0.
	d := func(k string) float64 { return stats1[k] - stats0[k] }
	res.add("server.cache_hit_share", "share", ratio(d("plan_cache_hits"), d("plan_cache_hits")+d("plan_cache_misses")))
	res.add("server.shed", "count", d("queries_shed"))
	res.add("server.aborted", "count", d("queries_aborted"))
	res.add("server.panicked", "count", d("queries_panicked"))
	res.add("server.heap_growth_mb", "MB", heapEnd-heap0)
	sort.Slice(m.pooled, func(a, b int) bool { return m.pooled[a] < m.pooled[b] })
	res.add("server.lat_p95_ms", "ms", ms(quantileDur(m.pooled, 0.95)))
	res.add("server.lat_p99_ms", "ms", ms(quantileDur(m.pooled, 0.99)))

	minB, maxB := boundary[0], boundary[0]
	disturbed := 0
	for _, b := range boundary {
		minB, maxB = math.Min(minB, b), math.Max(maxB, b)
	}
	for _, b := range boundary {
		if b > 1.15*minB {
			disturbed++
		}
	}
	res.add("host.calib", "x", median(boundary))
	res.add("host.calib_spread_pct", "%", 100*ratio(maxB-minB, median(boundary)))
	res.add("host.disturbed_rounds", "count", float64(disturbed))
	res.add("host.steal_pct", "%", 100*ratio(steal1-steal0, ticks1-ticks0))
	res.add("host.gc_per_op", "count", float64(m.total.gcN)/ops)
	res.add("host.gc_cpu_pct", "%", 100*ratio(m.total.gcCPU, m.total.cpu.Seconds()))
	res.add("host.nproc", "count", float64(runtime.NumCPU()))
	res.add("host.raw_lat_p50_ms", "ms", medianOf(plain, p50))
	res.add("host.raw_ops_per_s", "1/s", 1e3/medianOf(plain, perOp))
	res.add("trace.overhead_pct", "%", 100*(ratio(calibrated(spanned, p50), calibrated(plain, p50))-1))
	return tr.write(cfg.outDir, sp.name)
}

// calibrated is the estimator of every gated timing: each round's value
// is divided by the machine's slowness around that round, and the lower
// quartile over rounds is reported. Interference from other tenants
// only ever adds time, so the faster rounds are the repeatable ones; the
// quartile, not the minimum, so that one lucky round does not decide.
func calibrated(rounds []roundStat, f func(roundStat) float64) float64 {
	v := make([]float64, len(rounds))
	for i, r := range rounds {
		v[i] = f(r) / r.slow
	}
	sort.Float64s(v)
	if len(v) == 0 {
		return 0
	}
	at := 0.25 * float64(len(v)-1)
	lo := int(at)
	hi := min(lo+1, len(v)-1)
	return v[lo] + (v[hi]-v[lo])*(at-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return median(v)
}

// quantileDur reads quantile q off an ascending slice (nearest rank).
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
