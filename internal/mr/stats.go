package mr

import (
	"fmt"
	"strings"

	"repro/internal/cost"
)

// MB is 2^20 bytes.
const MB = float64(1 << 20)

// mbOf converts modelled byte counts (record sizes, relation sizes) to
// the cost model's MB unit.
func mbOf(bytes int64) float64 { return float64(bytes) / MB }

// PartStats are the measured quantities of one uniform input part I_i
// (one input relation): exactly the N_i, M_i and record count the cost
// model consumes.
type PartStats struct {
	Input   string
	InputMB float64 // N_i
	InterMB float64 // M_i: map output bytes (keys + payloads), after packing
	Records int64   // map output records after packing: distinct keys per map task (drives M̂_i)
	Mappers int     // m_i: map tasks run for this part
}

// JobStats are the measured quantities of one executed job.
type JobStats struct {
	Name        string
	Parts       []PartStats
	OutputMB    float64 // K
	Reducers    int     // r actually used
	MapTasks    int
	ReduceTasks int
	// ReduceLoadMB holds the shuffled bytes received by each reduce
	// partition. Uneven loads (key skew) stretch the reduce wave's
	// makespan in the cluster simulation. Under runtime skew splitting
	// the per-partition loads are folded from the piece loads in piece
	// order, so the values match the unsplit run bit for bit.
	ReduceLoadMB []float64
	// SplitReduceTasks counts the reduce tasks of partitions the runtime
	// skew splitter cut into two or more pieces (0 when splitting is off
	// or no heavy partition had two groups to cut between). The cut is a
	// function of declared-order folds and the unsplit group order, so
	// the count is identical at every pool width.
	SplitReduceTasks int
	// MaxReduceTaskMB is the heaviest single reduce task's input — a
	// whole partition or one piece of a cut one. With splitting off it
	// equals MaxReduceLoadMB(); with splitting on it drops below it when
	// the heaviest partition was cut.
	MaxReduceTaskMB float64
}

// StripSplitInfo returns a copy with the split observability fields
// zeroed — the only JobStats fields allowed to differ between a split
// and an unsplit run of the same job. Differential tests normalize
// both sides with it before demanding deep equality.
func (s JobStats) StripSplitInfo() JobStats {
	s.SplitReduceTasks = 0
	s.MaxReduceTaskMB = 0
	return s
}

// MaxReduceLoadMB returns the heaviest reducer's input.
func (s JobStats) MaxReduceLoadMB() float64 {
	var max float64
	for _, l := range s.ReduceLoadMB {
		if l > max {
			max = l
		}
	}
	return max
}

// ReduceImbalance returns max load / mean load (1.0 = perfectly even;
// 0 when there is no load).
func (s JobStats) ReduceImbalance() float64 {
	if len(s.ReduceLoadMB) == 0 {
		return 0
	}
	var sum float64
	for _, l := range s.ReduceLoadMB {
		sum += l
	}
	if sum == 0 {
		return 0
	}
	mean := sum / float64(len(s.ReduceLoadMB))
	return s.MaxReduceLoadMB() / mean
}

// InputMB returns Σ N_i: the job's HDFS read volume.
func (s JobStats) InputMB() float64 {
	var n float64
	for _, p := range s.Parts {
		n += p.InputMB
	}
	return n
}

// InterMB returns M = Σ M_i: the job's map→reduce communication volume.
func (s JobStats) InterMB() float64 {
	var m float64
	for _, p := range s.Parts {
		m += p.InterMB
	}
	return m
}

// Records returns the total map output record count.
func (s JobStats) Records() int64 {
	var n int64
	for _, p := range s.Parts {
		n += p.Records
	}
	return n
}

// CostSpec converts measured stats into the cost model's job spec.
func (s JobStats) CostSpec() cost.JobSpec {
	spec := cost.JobSpec{OutputMB: s.OutputMB, Reducers: s.Reducers}
	for _, p := range s.Parts {
		spec.Partitions = append(spec.Partitions, cost.Partition{
			Name:    p.Input,
			InputMB: p.InputMB,
			InterMB: p.InterMB,
			Records: p.Records,
			Mappers: p.Mappers,
		})
	}
	return spec
}

// String gives a compact one-line summary.
func (s JobStats) String() string {
	var parts []string
	for _, p := range s.Parts {
		parts = append(parts, fmt.Sprintf("%s:%.1f→%.1fMB", p.Input, p.InputMB, p.InterMB))
	}
	return fmt.Sprintf("%s[%s | out %.1fMB | %dm/%dr]",
		s.Name, strings.Join(parts, " "), s.OutputMB, s.MapTasks, s.ReduceTasks)
}

// Metrics are the four performance metrics of §5.1 accumulated over an
// MR program. Times are simulated seconds produced by internal/cluster;
// byte counts are measured by the engine.
type Metrics struct {
	NetTime   float64
	TotalTime float64
	InputMB   float64 // bytes read from hdfs over the entire plan
	CommMB    float64 // bytes transferred from mappers to reducers
	OutputMB  float64
	Jobs      int
	Rounds    int
}

// Add accumulates byte metrics of one job (times are set by the
// scheduler, not summed here).
func (m *Metrics) Add(s JobStats) {
	m.InputMB += s.InputMB()
	m.CommMB += s.InterMB()
	m.OutputMB += s.OutputMB
	m.Jobs++
}

func (m Metrics) String() string {
	return fmt.Sprintf("net %.0fs total %.0fs input %.2fGB comm %.2fGB (%d jobs, %d rounds)",
		m.NetTime, m.TotalTime, m.InputMB/1024, m.CommMB/1024, m.Jobs, m.Rounds)
}
