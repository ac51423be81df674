package lab

import (
	"fmt"
	"reflect"
	"time"

	gumbo "repro"
)

// The skew sweep: where sweep.go checks that every strategy computes
// the same thing, the skew sweep checks the runtime skew splitter
// (gumbo.WithSkewSplit) against its two contracts on skewed data. For
// every scenario seed it builds zipf- and dense-profiled variants —
// the distributions where heavy reduce partitions actually arise —
// and runs each at widths {1, 4, GOMAXPROCS} with splitting off and
// on:
//
//   - correctness: outputs (every relation, exact tuple order) and
//     JobStats are bit-for-bit identical off vs on, up to the split
//     observability fields (JobStats.StripSplitInfo), and the split
//     runs are bit-for-bit identical to each other across widths —
//     including SplitReduceTasks, since the split plan is part of the
//     determinism contract;
//   - effect: when a job split, its heaviest single reduce task
//     (MaxReduceTaskMB) must come out at or below the heaviest
//     partition (MaxReduceLoadMB) — the load the hot reducer would
//     have carried serially.

// skewSplitRatio is the split threshold the sweep runs with: the
// knob's documented starting point.
const skewSplitRatio = 1.5

// SkewRecord is one (scenario, width) off/on comparison.
type SkewRecord struct {
	Scenario   string
	Width      int
	Jobs       int
	SplitTasks int     // total sub-range reduce tasks across jobs (on-run)
	MaxLoadMB  float64 // heaviest reduce partition across jobs (off-run)
	MaxTaskMB  float64 // heaviest reduce task across jobs (on-run)
	OffSeconds float64 // measured wall-clock, splitting off
	OnSeconds  float64 // measured wall-clock, splitting on
}

// Improvement returns the heaviest-task shrink factor (1.0 = nothing
// split or nothing gained).
func (r SkewRecord) Improvement() float64 {
	if r.MaxTaskMB <= 0 || r.MaxLoadMB <= 0 {
		return 1
	}
	return r.MaxLoadMB / r.MaxTaskMB
}

// SkewFailure is one contract violation.
type SkewFailure struct {
	Scenario string
	Width    int
	Detail   string
}

// SkewReport aggregates a skew sweep.
type SkewReport struct {
	Scenarios int
	Records   []SkewRecord
	Failures  []SkewFailure
}

// MaxImprovement returns the largest heaviest-task shrink across all
// records (1.0 when nothing split).
func (r *SkewReport) MaxImprovement() float64 {
	best := 1.0
	for _, rec := range r.Records {
		if f := rec.Improvement(); f > best {
			best = f
		}
	}
	return best
}

// MeanImprovement returns the mean heaviest-task shrink over records
// that actually split.
func (r *SkewReport) MeanImprovement() float64 {
	var sum float64
	n := 0
	for _, rec := range r.Records {
		if rec.SplitTasks > 0 {
			sum += rec.Improvement()
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// SplitRuns returns how many records actually split at least one
// partition.
func (r *SkewReport) SplitRuns() int {
	n := 0
	for _, rec := range r.Records {
		if rec.SplitTasks > 0 {
			n++
		}
	}
	return n
}

// skewScenarios derives the sweep's scenario set: each seed's
// generated program under the zipf and dense data profiles.
func skewScenarios(scenarios []Scenario) []Scenario {
	var profs []DataProfile
	for _, p := range Profiles() {
		if p.Name == "zipf" || p.Name == "dense" {
			profs = append(profs, p)
		}
	}
	out := make([]Scenario, 0, len(scenarios)*len(profs))
	for _, sc := range scenarios {
		for _, p := range profs {
			v := sc
			v.Profile = p
			v.Name = fmt.Sprintf("s%d-%s-%s", sc.Seed, sc.Shape, p.Name)
			out = append(out, v)
		}
	}
	return out
}

// RunSkewSweep runs the off/on differential for every scenario's zipf
// and dense variants at every configured width.
func RunSkewSweep(scenarios []Scenario, cfg SweepConfig) *SkewReport {
	cfg = cfg.normalized()
	offSys, onSys := map[int]*gumbo.System{}, map[int]*gumbo.System{}
	for _, w := range cfg.Widths {
		offSys[w] = gumbo.New(gumbo.WithHostWorkers(w), gumbo.WithScale(cfg.Scale))
		onSys[w] = gumbo.New(gumbo.WithHostWorkers(w), gumbo.WithScale(cfg.Scale),
			gumbo.WithSkewSplit(skewSplitRatio))
	}
	set := skewScenarios(scenarios)
	rep := &SkewReport{Scenarios: len(set)}
	for _, sc := range set {
		recs, fails := skewScenario(sc, cfg.Widths, offSys, onSys)
		rep.Records = append(rep.Records, recs...)
		rep.Failures = append(rep.Failures, fails...)
	}
	return rep
}

// skewScenario runs one scenario's off/on matrix.
func skewScenario(sc Scenario, widths []int, offSys, onSys map[int]*gumbo.System) (recs []SkewRecord, fails []SkewFailure) {
	q, err := gumbo.Parse(sc.Source())
	if err != nil {
		fails = append(fails, SkewFailure{Scenario: sc.Name, Detail: "parse: " + err.Error()})
		return
	}
	db := sc.Build()
	var baseOn *gumbo.Result
	baseWidth := 0
	for _, w := range widths {
		run := func(sys *gumbo.System) (*gumbo.Result, float64, string) {
			plan, err := sys.Plan(q, db, sys.Auto(q))
			if err != nil {
				return nil, 0, "plan: " + err.Error()
			}
			start := time.Now()
			res, err := sys.RunPlan(plan, db)
			if err != nil {
				return nil, 0, "run: " + err.Error()
			}
			return res, time.Since(start).Seconds(), ""
		}
		off, offSecs, detail := run(offSys[w])
		if detail == "" {
			var on *gumbo.Result
			var onSecs float64
			on, onSecs, detail = run(onSys[w])
			if detail == "" {
				detail = diffSplitOffOn(off, on)
			}
			if detail == "" {
				if baseOn == nil {
					baseOn, baseWidth = on, w
				} else if d := diffBitForBit(baseOn, on); d != "" {
					detail = fmt.Sprintf("split run width %d vs %d: %s", w, baseWidth, d)
				}
			}
			if detail == "" {
				rec := SkewRecord{Scenario: sc.Name, Width: w, Jobs: len(on.JobStats),
					OffSeconds: offSecs, OnSeconds: onSecs}
				for i := range on.JobStats {
					rec.SplitTasks += on.JobStats[i].SplitReduceTasks
					if m := off.JobStats[i].MaxReduceLoadMB(); m > rec.MaxLoadMB {
						rec.MaxLoadMB = m
					}
					if m := on.JobStats[i].MaxReduceTaskMB; m > rec.MaxTaskMB {
						rec.MaxTaskMB = m
					}
				}
				recs = append(recs, rec)
				continue
			}
		}
		fails = append(fails, SkewFailure{Scenario: sc.Name, Width: w, Detail: detail})
	}
	return
}

// diffSplitOffOn compares a splitting-off run against a splitting-on
// run of the same plan: relations bit-for-bit, stats bit-for-bit up to
// the split observability fields — and the on-run's heaviest task must
// not exceed the off-run's heaviest partition.
func diffSplitOffOn(off, on *gumbo.Result) string {
	if d := diffRelationList(off, on); d != "" {
		return "off vs on: " + d
	}
	if len(off.JobStats) != len(on.JobStats) {
		return fmt.Sprintf("off vs on: %d job stats vs %d", len(off.JobStats), len(on.JobStats))
	}
	for i := range off.JobStats {
		if n := off.JobStats[i].SplitReduceTasks; n != 0 {
			return fmt.Sprintf("job %d (%s): splitting-off run reported %d split tasks", i, off.JobStats[i].Name, n)
		}
		if !reflect.DeepEqual(off.JobStats[i].StripSplitInfo(), on.JobStats[i].StripSplitInfo()) {
			return fmt.Sprintf("off vs on: job %d (%s): stats differ", i, off.JobStats[i].Name)
		}
		const eps = 1e-9 // float MB derived from the same int64 loads
		if on.JobStats[i].MaxReduceTaskMB > off.JobStats[i].MaxReduceLoadMB()+eps {
			return fmt.Sprintf("job %d (%s): split max task %.4fMB exceeds unsplit max partition %.4fMB",
				i, on.JobStats[i].Name, on.JobStats[i].MaxReduceTaskMB, off.JobStats[i].MaxReduceLoadMB())
		}
	}
	return ""
}
