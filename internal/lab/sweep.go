package lab

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	gumbo "repro"

	"repro/internal/mr"
	"repro/internal/relation"
)

// The sweep runs every check on every scenario, in this order (each
// failure names its check; docs/LAB.md lists them and what they guard):
//
//  1. differential: every strategy at every width is set-equal to the
//     reference evaluator, and bit-for-bit equal across widths;
//  2. split: the Auto plan under skew splitting, at every width, is
//     bit-for-bit the plain Auto run up to the split observability
//     fields, and bit-for-bit itself across widths;
//  3. lifecycle, at the widest width on a system that spills every
//     partition: a golden run, bit-for-bit the plain one (spill), then
//     a cancel, a panic and a budget trip injected at seeded points,
//     each followed by one shared aftermath (goroutines, generation,
//     spill-leak, rerun).
//
// Scenarios run serially: the fault-injection seam (mr.SetFaultHooks)
// is process-wide.

const (
	// optAtomLimit gates OPT above this many conditional atoms
	// (Bell-number blowup in its enumeration).
	optAtomLimit = 6
	// splitRatio is the split check's threshold: the knob's documented
	// starting point.
	splitRatio = 1.5
	// spillThreshold makes lab-sized shuffle partitions spill, so the
	// lifecycle checks have temp files in flight to leak.
	spillThreshold = 256
)

// SweepConfig configures a sweep run.
type SweepConfig struct {
	Widths []int   // pool widths; default {1, 4, GOMAXPROCS}, deduped
	Scale  float64 // cost-config scale (default 1e-4: makes lab-sized data cross split/buffer boundaries)
	Shrink bool    // shrink failing scenarios to a minimal reproduction
}

// DefaultSweepConfig returns the standard sweep settings.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{Scale: 1e-4, Shrink: true}
}

func (c SweepConfig) normalized() SweepConfig {
	if len(c.Widths) == 0 {
		c.Widths = []int{1, 4, runtime.GOMAXPROCS(0)}
	}
	widths := make([]int, len(c.Widths))
	for i, w := range c.Widths {
		widths[i] = max(w, 1)
	}
	slices.Sort(widths)
	c.Widths = slices.Compact(widths)
	if c.Scale <= 0 {
		c.Scale = 1e-4
	}
	return c
}

// RunRecord is one (scenario, strategy, width) execution.
type RunRecord struct {
	Scenario string
	Shape    string
	Profile  string
	Strategy string
	Width    int
	Jobs     int
	Rounds   int
	Seconds  float64           // measured wall-clock of the run
	Stats    []gumbo.JobStats  `json:"-"` // per-job measured sizes (calibration input)
	Timings  []gumbo.JobTiming `json:"-"` // per-job task seconds (calibration target)
}

// Skip records a strategy that does not apply to a scenario (a
// deterministic plan-time rejection, e.g. a flat-only strategy on a
// nested program, or OPT gated by the atom limit).
type Skip struct {
	Scenario string
	Strategy string
	Reason   string
}

// Failure is one violated check: the hard failure the sweep exists to
// catch. Boundary is the grant index (cancel, panic) or byte limit
// (budget) of the lifecycle injection it follows.
type Failure struct {
	Scenario string
	Check    string
	Strategy string
	Width    int
	Boundary int
	Detail   string
	// MinimalSource/MinimalSeed describe the shrunken reproduction when
	// shrinking is enabled.
	MinimalSource string
	MinimalSeed   int64
}

// Report is everything one sweep produced.
type Report struct {
	Scenarios   int
	Runs        []RunRecord // differential runs
	Skips       []Skip
	Failures    []Failure
	Injections  int          // lifecycle injections performed
	SplitRuns   int          // split-check runs in which some partition split
	Calibration *Calibration `json:",omitempty"`
}

// sweeper holds the systems a sweep runs on (a gumbo.System pins its
// pool width and engine options at construction).
type sweeper struct {
	widths       []int
	plain, split map[int]*gumbo.System
	spill        *gumbo.System // widest width
	spillDir     string
}

// RunSweep runs every check on every scenario and returns one report.
// When cfg.Shrink is set, each failing scenario is shrunk to a minimal
// reproduction that still fails some check.
func RunSweep(scenarios []Scenario, cfg SweepConfig) *Report {
	cfg = cfg.normalized()
	rep := &Report{Scenarios: len(scenarios)}
	dir, err := os.MkdirTemp("", "gumbo-lab-spill-")
	if err != nil {
		rep.Failures = append(rep.Failures, Failure{Check: "spill", Detail: err.Error()})
		return rep
	}
	defer os.RemoveAll(dir)
	s := &sweeper{widths: cfg.Widths, plain: map[int]*gumbo.System{}, split: map[int]*gumbo.System{}, spillDir: dir}
	for _, w := range cfg.Widths {
		s.plain[w] = gumbo.New(gumbo.WithHostWorkers(w), gumbo.WithScale(cfg.Scale))
		s.split[w] = gumbo.New(gumbo.WithHostWorkers(w), gumbo.WithScale(cfg.Scale), gumbo.WithSkewSplit(splitRatio))
	}
	s.spill = gumbo.New(gumbo.WithHostWorkers(s.widest()), gumbo.WithScale(cfg.Scale), gumbo.WithSpill(spillThreshold, dir))
	for _, sc := range scenarios {
		fails := s.check(sc, rep)
		if len(fails) > 0 && cfg.Shrink {
			min := Shrink(sc, func(c Scenario) bool { return len(s.check(c, &Report{})) > 0 })
			for i := range fails {
				fails[i].MinimalSource, fails[i].MinimalSeed = min.Source(), min.Seed
			}
		}
		rep.Failures = append(rep.Failures, fails...)
	}
	return rep
}

func (s *sweeper) widest() int { return s.widths[len(s.widths)-1] }

// trial is one scenario's pass through the checks.
type trial struct {
	*sweeper
	sc    Scenario
	rep   *Report // receives runs, skips and counts
	db    *gumbo.Database
	auto  *gumbo.Plan // the Auto strategy's plan
	fails []Failure
}

func (t *trial) fail(f Failure, format string, args ...any) {
	f.Scenario, f.Detail = t.sc.Name, fmt.Sprintf(format, args...)
	t.fails = append(t.fails, f)
}

// check runs every check on one scenario and returns its failures.
func (s *sweeper) check(sc Scenario, rep *Report) []Failure {
	t := &trial{sweeper: s, sc: sc, rep: rep}
	q, err := gumbo.Parse(sc.Source())
	if err != nil {
		// Generated programs always parse (FuzzGenProgram pins this); a
		// failure here is itself a finding.
		t.fail(Failure{Check: "differential"}, "parse: %v", err)
		return t.fails
	}
	t.db = sc.Build()
	want, err := gumbo.EvalAll(q, t.db)
	if err != nil {
		t.fail(Failure{Check: "differential"}, "reference evaluator: %v", err)
		return t.fails
	}
	// The variants need the plain Auto run at every width; a failure of
	// it is already reported.
	if plain := t.differential(q, want); len(plain) == len(s.widths) {
		t.splits(plain)
		t.lifecycle(plain[s.widest()])
	}
	return t.fails
}

// differential runs the strategy × width matrix and applies the oracle:
//
//   - same strategy across widths: bit-for-bit — identical relation
//     lists, identical tuple order within each relation, identical
//     per-job stats (the engine's determinism contract);
//   - across strategies: the program's defined outputs must agree as
//     tuple sets with the reference evaluator (strategies differ in
//     which intermediate X relations they materialize, so only defined
//     outputs are comparable).
//
// It returns the Auto plan's runs by width. Each strategy is planned
// once: planning reads the cost config, never the pool width.
func (t *trial) differential(q *gumbo.Query, want *gumbo.Database) map[int]*gumbo.Result {
	w0 := t.widths[0]
	auto := t.plain[w0].Auto(q)
	plain := map[int]*gumbo.Result{}
	for _, strat := range gumbo.Strategies() {
		if strat == gumbo.Opt && t.sc.CondAtomCount() > optAtomLimit {
			t.rep.Skips = append(t.rep.Skips, Skip{Scenario: t.sc.Name, Strategy: string(strat),
				Reason: fmt.Sprintf("gated: %d conditional atoms > %d", t.sc.CondAtomCount(), optAtomLimit)})
			continue
		}
		plan, err := t.plain[w0].Plan(q, t.db, strat)
		if err != nil {
			t.rep.Skips = append(t.rep.Skips, Skip{Scenario: t.sc.Name, Strategy: string(strat), Reason: err.Error()})
			continue
		}
		if strat == auto {
			t.auto = plan
		}
		var base *gumbo.Result
		for _, w := range t.widths {
			f := Failure{Check: "differential", Strategy: string(strat), Width: w}
			start := time.Now()
			res, err := t.plain[w].RunPlan(plan, t.db)
			elapsed := time.Since(start).Seconds()
			if err != nil {
				t.fail(f, "run failed: %v", err)
				break
			}
			if base == nil {
				if d := diffOutputsVsReference(t.sc, res, want); d != "" {
					t.fail(f, "%s", d)
					break
				}
				base = res
			} else if d := diffBitForBit(base, res); d != "" {
				t.fail(f, "width %d vs %d: %s", w, w0, d)
				break
			}
			t.rep.Runs = append(t.rep.Runs, RunRecord{
				Scenario: t.sc.Name, Shape: t.sc.Shape.String(), Profile: t.sc.Profile.Name,
				Strategy: string(strat), Width: w,
				Jobs: res.Plan.Jobs(), Rounds: res.Plan.Rounds(), Seconds: elapsed,
				Stats: res.JobStats, Timings: res.JobTimings,
			})
			if strat == auto {
				plain[w] = res
			}
		}
	}
	return plain
}

// splits runs the Auto plan with skew splitting at every width against
// the plain run at that width (diffSplitOffOn), and against the first
// split run bit for bit: the split plan is part of the determinism
// contract.
func (t *trial) splits(plain map[int]*gumbo.Result) {
	var first *gumbo.Result
	for _, w := range t.widths {
		f := Failure{Check: "split", Strategy: string(t.auto.Strategy()), Width: w}
		on, err := t.split[w].RunPlan(t.auto, t.db)
		if err != nil {
			t.fail(f, "run failed: %v", err)
			return
		}
		if d := diffSplitOffOn(plain[w], on); d != "" {
			t.fail(f, "%s", d)
			return
		}
		if first == nil {
			first = on
		} else if d := diffBitForBit(first, on); d != "" {
			t.fail(f, "split run width %d vs %d: %s", w, t.widths[0], d)
			return
		}
		if slices.ContainsFunc(on.JobStats, func(st gumbo.JobStats) bool { return st.SplitReduceTasks > 0 }) {
			t.rep.SplitRuns++
		}
	}
}

// lifecycle checks that stopping a run mid-flight is clean, on the
// spill system so spill files are in flight. A golden run counts the
// task grants (deterministic per plan and data) and must equal the
// plain run bit for bit. Then three injections, each followed by the
// shared aftermath: a cancel at a seeded grant must return
// context.Canceled with at most width grants after it; a panic at a seeded
// grant must be re-raised on the caller as the very value injected
// (the seam the server's query-boundary recover pins); a budget seeded
// below the golden charge must abort with gumbo.ErrBudgetExceeded.
func (t *trial) lifecycle(plain *gumbo.Result) {
	wide, strat := t.widest(), string(t.auto.Strategy())
	at := func(check string, boundary int) Failure {
		return Failure{Check: check, Strategy: strat, Width: wide, Boundary: boundary}
	}
	baseline := runtime.NumGoroutine()
	var grants atomic.Int64
	golden, err := t.runHooked(context.Background(), func(context.Context, int) { grants.Add(1) })
	if err != nil {
		t.fail(at("spill", 0), "run failed: %v", err)
		return
	}
	if d := diffBitForBit(plain, golden); d != "" {
		t.fail(at("spill", 0), "%s", d)
		return
	}
	total := int(grants.Load())
	if total == 0 {
		t.fail(at("spill", 0), "golden run granted no tasks")
		return
	}
	gen := t.db.Generation()
	rnd := rand.New(rand.NewSource(t.sc.Seed ^ 0x11fec7c1e))

	aftermath := func(injected string, boundary int) {
		t.rep.Injections++
		bad := func(check, format string, args ...any) {
			t.fail(at(check, boundary), "after "+injected+": "+format, args...)
		}
		settleBy := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(settleBy) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > baseline {
			bad("goroutines", "%d goroutines, baseline %d", got, baseline)
		}
		if t.db.Generation() != gen {
			bad("generation", "the input database changed")
		}
		if left, _ := filepath.Glob(filepath.Join(t.spillDir, "gumbo-spill-*")); len(left) > 0 {
			bad("spill-leak", "%d spill files left", len(left))
			for _, f := range left {
				os.Remove(f) // so the next injection starts clean
			}
		}
		again, err := t.spill.RunPlan(t.auto, t.db)
		if err != nil {
			bad("rerun", "clean re-run failed: %v", err)
		} else if d := diffBitForBit(golden, again); d != "" {
			bad("rerun", "clean re-run diverges from golden: %s", d)
		}
	}

	kc := rnd.Intn(total)
	ctx, cancel := context.WithCancel(context.Background())
	// late counts only the grants whose hook starts after cancel() has
	// returned: a worker numbered kc may be descheduled before its hook
	// runs, and its siblings are then granted tasks legitimately.
	var canceled atomic.Bool
	var late atomic.Int64
	_, err = t.runHooked(ctx, func(_ context.Context, i int) {
		if canceled.Load() {
			late.Add(1)
		}
		if i == kc {
			cancel()
			canceled.Store(true)
		}
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.fail(at("cancel", kc), "canceled run returned %v, want context.Canceled", err)
	} else if got := int(late.Load()); got > wide {
		t.fail(at("cancel", kc), "%d grants after a cancel at %d, want <= %d", got, kc, wide)
	}
	aftermath("cancel", kc)

	kp := rnd.Intn(total)
	sentinel := fmt.Sprintf("lab: injected panic %s@%d", t.sc.Name, kp)
	v := capturePanic(func() {
		_, err = t.runHooked(context.Background(), func(_ context.Context, i int) {
			if i == kp {
				panic(sentinel)
			}
		})
	})
	if v != sentinel {
		t.fail(at("panic", kp), "re-raised %v (run error %v), want the injected sentinel", v, err)
	}
	aftermath("panic", kp)

	if charged := golden.Mem.ChargedBytes; charged >= 2 {
		limit := int(1 + rnd.Int63n(charged-1))
		_, err = t.spill.RunPlanCtx(context.Background(), t.auto, t.db, gumbo.RunOptions{Budget: gumbo.NewBudget(int64(limit))})
		if !errors.Is(err, gumbo.ErrBudgetExceeded) {
			t.fail(at("budget", limit), "over-budget run returned %v, want ErrBudgetExceeded", err)
		}
		aftermath("budget", limit)
	}
}

// runHooked runs the Auto plan on the spill system with grant installed
// as the fault hook, restoring the previous hook however the run ends.
func (t *trial) runHooked(ctx context.Context, grant func(context.Context, int)) (*gumbo.Result, error) {
	defer mr.SetFaultHooks(mr.FaultHooks{Grant: grant})()
	return t.spill.RunPlanCtx(ctx, t.auto, t.db, gumbo.RunOptions{})
}

// capturePanic runs fn and returns the value it panicked with (nil if
// it returned normally).
func capturePanic(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// diffOutputsVsReference compares the run's program-defined outputs to
// the reference evaluator's, as tuple sets. Returns "" on agreement.
func diffOutputsVsReference(sc Scenario, res *gumbo.Result, want *gumbo.Database) string {
	for _, q := range sc.Program.Queries {
		got := res.Outputs.Relation(q.Name)
		ref := want.Relation(q.Name)
		if got == nil || ref == nil {
			if got == nil && ref == nil {
				continue
			}
			return fmt.Sprintf("output %s: present=%v in run, present=%v in reference", q.Name, got != nil, ref != nil)
		}
		if !got.Equal(ref) {
			return fmt.Sprintf("output %s: %d tuples vs reference %d (set mismatch)", q.Name, got.Size(), ref.Size())
		}
	}
	return ""
}

// diffBitForBit compares two runs of the same plan: every produced
// relation (including intermediates) must match in name, arity, and
// exact tuple order, and the per-job stats must be identical. Returns
// "" on agreement.
func diffBitForBit(a, b *gumbo.Result) string {
	if d := diffRelationList(a, b); d != "" {
		return d
	}
	if len(a.JobStats) != len(b.JobStats) {
		return fmt.Sprintf("%d job stats vs %d", len(a.JobStats), len(b.JobStats))
	}
	for i := range a.JobStats {
		if !reflect.DeepEqual(a.JobStats[i], b.JobStats[i]) {
			return fmt.Sprintf("job %d (%s): stats differ", i, a.JobStats[i].Name)
		}
	}
	return ""
}

// diffSplitOffOn compares a plain run against a split run of the same
// plan: relations bit-for-bit, stats bit-for-bit up to the split
// observability fields (JobStats.StripSplitInfo) — and the split run's
// heaviest task must not exceed the plain run's heaviest partition, the
// load the hot reducer would have carried serially.
func diffSplitOffOn(off, on *gumbo.Result) string {
	if d := diffRelationList(off, on); d != "" {
		return "off vs on: " + d
	}
	if len(off.JobStats) != len(on.JobStats) {
		return fmt.Sprintf("off vs on: %d job stats vs %d", len(off.JobStats), len(on.JobStats))
	}
	for i, st := range off.JobStats {
		const eps = 1e-9 // float MB derived from the same int64 loads
		switch {
		case st.SplitReduceTasks != 0:
			return fmt.Sprintf("job %d (%s): splitting-off run reported %d split tasks", i, st.Name, st.SplitReduceTasks)
		case !reflect.DeepEqual(st.StripSplitInfo(), on.JobStats[i].StripSplitInfo()):
			return fmt.Sprintf("off vs on: job %d (%s): stats differ", i, st.Name)
		case on.JobStats[i].MaxReduceTaskMB > st.MaxReduceLoadMB()+eps:
			return fmt.Sprintf("job %d (%s): split max task %.4fMB exceeds unsplit max partition %.4fMB",
				i, st.Name, on.JobStats[i].MaxReduceTaskMB, st.MaxReduceLoadMB())
		}
	}
	return ""
}

// diffRelationList compares two runs' produced relations (including
// intermediates) in name, order and exact tuple sequence.
func diffRelationList(a, b *gumbo.Result) string {
	ar, br := a.Outputs.Relations(), b.Outputs.Relations()
	if len(ar) != len(br) {
		return fmt.Sprintf("%d relations vs %d", len(ar), len(br))
	}
	for i := range ar {
		if ar[i].Name() != br[i].Name() {
			return fmt.Sprintf("relation order: %s vs %s at %d", ar[i].Name(), br[i].Name(), i)
		}
		if d := diffTupleOrder(ar[i], br[i]); d != "" {
			return fmt.Sprintf("relation %s: %s", ar[i].Name(), d)
		}
	}
	return ""
}

// diffTupleOrder compares two relations tuple-for-tuple in iteration
// order (the bit-for-bit contract, stricter than set equality).
func diffTupleOrder(a, b *relation.Relation) string {
	if a.Arity() != b.Arity() {
		return fmt.Sprintf("arity %d vs %d", a.Arity(), b.Arity())
	}
	if a.Size() != b.Size() {
		return fmt.Sprintf("%d tuples vs %d", a.Size(), b.Size())
	}
	for i, n := 0, a.Size(); i < n; i++ {
		if at, bt := a.Tuple(i), b.Tuple(i); !at.Equal(bt) {
			return fmt.Sprintf("tuple %d: %s vs %s", i, at, bt)
		}
	}
	return ""
}
