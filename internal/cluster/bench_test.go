package cluster

import (
	"fmt"
	"testing"
)

// serveHotJobs is the two-job shape of a served small query: a 6-map,
// 1-reduce job feeding a 5-map, 1-reduce job, each with overhead 6.
func serveHotJobs() []Job {
	return []Job{
		{Name: "a", Plan: planOf(6, []float64{1.5, 1.5, 1.5, 1.5, 1.5, 1.5}, []float64{2})},
		{Name: "b", Plan: planOf(6, []float64{1.5, 1.5, 1.5, 1.5, 1.5}, []float64{2}), Deps: []int{0}},
	}
}

// chainJobs builds a chain of n jobs, each depending on the one before,
// with perJob tasks each: nine maps to every reduce.
func chainJobs(n, perJob int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		var maps, reds []float64
		for t := 0; t < perJob; t++ {
			d := 1 + float64((i*perJob+t)%7)/4
			if t%10 == 9 {
				reds = append(reds, d)
			} else {
				maps = append(maps, d)
			}
		}
		jobs[i] = Job{Name: fmt.Sprint("j", i), Plan: planOf(2, maps, reds)}
		if i > 0 {
			jobs[i].Deps = []int{i - 1}
		}
	}
	return jobs
}

func TestSimulateAllocs(t *testing.T) {
	jobs := serveHotJobs()
	got := testing.AllocsPerRun(100, func() { Simulate(DefaultConfig(), jobs) })
	if got > 8 {
		t.Errorf("Simulate allocates %v times on the serve-hot shape, want <= 8", got)
	}
}

func BenchmarkSimulate(b *testing.B) {
	for _, c := range []struct {
		name  string
		slots int
		jobs  []Job
	}{
		{"serve-hot", 100, serveHotJobs()},
		{"chain40x50-slots100", 100, chainJobs(40, 50)},
		{"tasks20000-slots10000", 10000, chainJobs(1, 20000)},
	} {
		cfg := Config{Nodes: 1, SlotsPerNode: c.slots}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Simulate(cfg, c.jobs)
			}
		})
	}
}
