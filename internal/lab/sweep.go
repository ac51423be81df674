package lab

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	gumbo "repro"

	"repro/internal/relation"
)

// SweepConfig configures a sweep run.
type SweepConfig struct {
	Widths       []int            // pool widths; default {1, 4, GOMAXPROCS}, deduped
	Strategies   []gumbo.Strategy // default gumbo.Strategies()
	Scale        float64          // cost-config scale (default 1e-4: makes lab-sized data cross split/buffer boundaries)
	OptAtomLimit int              // skip OPT above this many conditional atoms (default 6; Bell-number blowup)
	Shrink       bool             // shrink failing scenarios to a minimal reproduction
}

// DefaultSweepConfig returns the standard sweep settings.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{Scale: 1e-4, OptAtomLimit: 6, Shrink: true}
}

func (c SweepConfig) normalized() SweepConfig {
	if len(c.Widths) == 0 {
		c.Widths = []int{1, 4, runtime.GOMAXPROCS(0)}
	}
	seen := map[int]bool{}
	var widths []int
	for _, w := range c.Widths {
		if w < 1 {
			w = 1
		}
		if !seen[w] {
			seen[w] = true
			widths = append(widths, w)
		}
	}
	sort.Ints(widths)
	c.Widths = widths
	if len(c.Strategies) == 0 {
		c.Strategies = gumbo.Strategies()
	}
	if c.Scale <= 0 {
		c.Scale = 1e-4
	}
	if c.OptAtomLimit <= 0 {
		c.OptAtomLimit = 6
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

// Divergence is an output mismatch the differential oracle found: the
// hard failure the sweep exists to catch.
type Divergence struct {
	Scenario string
	Strategy string
	Width    int
	Detail   string
	// MinimalSource/MinimalSeed describe the shrunken reproduction when
	// shrinking is enabled.
	MinimalSource string
	MinimalSeed   int64
}

// SweepResult aggregates a sweep.
type SweepResult struct {
	Scenarios   int
	Runs        []RunRecord
	Skips       []Skip
	Divergences []Divergence
}

// sweeper caches the per-width systems (a gumbo.System pins its pool
// width at construction).
type sweeper struct {
	cfg     SweepConfig
	systems map[int]*gumbo.System
}

func newSweeper(cfg SweepConfig) *sweeper {
	s := &sweeper{cfg: cfg, systems: map[int]*gumbo.System{}}
	for _, w := range cfg.Widths {
		s.systems[w] = gumbo.New(gumbo.WithHostWorkers(w), gumbo.WithScale(cfg.Scale))
	}
	return s
}

// RunSweep executes every scenario under every strategy and width,
// checking the differential oracle, and returns all records, skips and
// divergences. When cfg.Shrink is set, each divergent scenario is
// shrunk to a minimal failing reproduction (re-running the oracle on
// candidates).
func RunSweep(scenarios []Scenario, cfg SweepConfig) *SweepResult {
	cfg = cfg.normalized()
	sw := newSweeper(cfg)
	res := &SweepResult{Scenarios: len(scenarios)}
	for _, sc := range scenarios {
		runs, skips, divs := sw.runScenario(sc, true)
		res.Runs = append(res.Runs, runs...)
		res.Skips = append(res.Skips, skips...)
		if len(divs) > 0 && cfg.Shrink {
			min := Shrink(sc, func(cand Scenario) bool {
				_, _, d := sw.runScenario(cand, false)
				return len(d) > 0
			})
			for i := range divs {
				divs[i].MinimalSource = min.Source()
				divs[i].MinimalSeed = min.Seed
			}
		}
		res.Divergences = append(res.Divergences, divs...)
	}
	return res
}

// runScenario runs the full strategy × width matrix for one scenario
// and applies the differential oracle:
//
//   - same strategy across widths: bit-for-bit — identical relation
//     lists, identical tuple order within each relation, identical
//     per-job stats (the engine's determinism contract);
//   - across strategies: the program's defined outputs must agree as
//     tuple sets with the reference evaluator (strategies differ in
//     which intermediate X relations they materialize, so only defined
//     outputs are comparable, in canonical sorted order).
//
// record=false skips bookkeeping of run records (used while shrinking).
func (s *sweeper) runScenario(sc Scenario, record bool) (runs []RunRecord, skips []Skip, divs []Divergence) {
	q, err := gumbo.Parse(sc.Source())
	if err != nil {
		// Generated programs always parse (FuzzGenProgram pins this); a
		// failure here is itself a finding.
		divs = append(divs, Divergence{Scenario: sc.Name, Strategy: "parse", Detail: err.Error()})
		return
	}
	db := sc.Build()
	want, err := gumbo.EvalAll(q, db)
	if err != nil {
		divs = append(divs, Divergence{Scenario: sc.Name, Strategy: "refeval", Detail: err.Error()})
		return
	}
	for _, strat := range s.cfg.Strategies {
		if strat == gumbo.Opt && sc.CondAtomCount() > s.cfg.OptAtomLimit {
			skips = append(skips, Skip{Scenario: sc.Name, Strategy: string(strat),
				Reason: fmt.Sprintf("gated: %d conditional atoms > %d", sc.CondAtomCount(), s.cfg.OptAtomLimit)})
			continue
		}
		var base *gumbo.Result
		for _, w := range s.cfg.Widths {
			sys := s.systems[w]
			plan, err := sys.Plan(q, db, strat)
			if err != nil {
				// Plan-time rejection is deterministic across widths:
				// record once and move on.
				skips = append(skips, Skip{Scenario: sc.Name, Strategy: string(strat), Reason: err.Error()})
				break
			}
			start := time.Now()
			res, err := sys.RunPlan(plan, db)
			elapsed := time.Since(start).Seconds()
			if err != nil {
				divs = append(divs, Divergence{Scenario: sc.Name, Strategy: string(strat), Width: w,
					Detail: "run failed: " + err.Error()})
				break
			}
			if record {
				runs = append(runs, RunRecord{
					Scenario: sc.Name, Shape: sc.Shape.String(), Profile: sc.Profile.Name,
					Strategy: string(strat), Width: w,
					Jobs: res.Plan.Jobs(), Rounds: res.Plan.Rounds(), Seconds: elapsed,
					Stats: res.JobStats, Timings: res.JobTimings,
				})
			}
			if base == nil {
				base = res
				if d := diffOutputsVsReference(sc, res, want); d != "" {
					divs = append(divs, Divergence{Scenario: sc.Name, Strategy: string(strat), Width: w, Detail: d})
					break
				}
				continue
			}
			if d := diffBitForBit(base, res); d != "" {
				divs = append(divs, Divergence{Scenario: sc.Name, Strategy: string(strat), Width: w,
					Detail: fmt.Sprintf("width %d vs %d: %s", w, s.cfg.Widths[0], d)})
				break
			}
		}
	}
	return
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

// diffBitForBit compares two runs of the same plan at different widths:
// every produced relation (including intermediates) must match in name,
// arity, and exact tuple order, and the per-job stats must be
// identical. Returns "" on agreement.
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
