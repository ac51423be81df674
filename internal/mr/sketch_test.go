package mr

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/relation"
)

// TestSkewSketchHeavyKey: the space-saving guarantee splitting relies
// on — a key carrying more than 1/sketchEntries of the observed bytes
// is present, stored in full, and its volume never underestimates.
func TestSkewSketchHeavyKey(t *testing.T) {
	s := newKeySketch(nil)
	hot := []byte("hot-key")
	var hotBytes int64
	for i := 0; i < 1000; i++ {
		s.observe(hot, 3, 10)
		hotBytes += 10
		// 100 distinct cold keys churn the remaining entries.
		s.observe([]byte(fmt.Sprintf("cold-%03d", i%100)), 1, 1)
	}
	found := false
	for i := 0; i < s.n; i++ {
		e := &s.entries[i]
		if bytes.Equal(s.slot(i), hot) {
			found = true
			if !e.full {
				t.Errorf("hot key stored truncated")
			}
			if e.red != 3 {
				t.Errorf("hot key reducer = %d, want 3", e.red)
			}
			if e.vol < hotBytes {
				t.Errorf("hot key volume %d underestimates true %d", e.vol, hotBytes)
			}
		}
	}
	if !found {
		t.Fatalf("dominant key absent from sketch")
	}
}

// TestSkewSketchFedPerRecord: the shuffle feeds the sketch every
// sketchSampleEvery-th record by position, packing or not, so a key
// that holds a third of a packing task's bytes, spread over arrival
// positions, is reported by every task's sketch. (Fed per packed run it
// was one observation per task at best, and seven tasks in eight never
// made it.)
func TestSkewSketchFedPerRecord(t *testing.T) {
	const tasks, perTask = 16, 640
	rng := rand.New(rand.NewSource(21))
	hot := []byte("hot")
	isHot := make([]bool, tasks*perTask)
	tuples := make([]relation.Tuple, len(isHot))
	for i := range tuples {
		// Half the records: 8 bytes each once packed against a cold
		// record's 16, a third of the bytes.
		isHot[i] = rng.Intn(2) == 0
		tuples[i] = tup(int64(i))
	}
	job := &Job{
		Inputs:  []string{"R"},
		Packing: true,
		Mapper: MapperFunc(func(_ string, id int, _ relation.Tuple, em *Emitter) {
			if isHot[id] {
				emitInt(em, hot, int64(id))
			} else {
				emitInt(em, []byte(fmt.Sprintf("cold%04d", id)), int64(id))
			}
		}),
	}
	jr := NewEngine(Config{Cost: cost.Default(), SkewSplit: 1.3}).newJobRun(0, job, govern{}, nil)
	rel := relation.FromTuples("R", 1, tuples)
	jr.results[0] = make([]mapTaskResult, tasks)
	jr.taskParts = [][]taskPartition{make([]taskPartition, tasks)}
	jr.left = 2*tasks + 1 // never zero: nothing spawns
	jr.reducers = 4
	c := &poolCtx{scratch: new(taskScratch)}
	for ti := 0; ti < tasks; ti++ {
		jr.tasks[0] = append(jr.tasks[0], mapTaskSpec{rel: rel, from: ti * perTask, to: (ti + 1) * perTask})
		jr.mapTask(c, 0, ti)
		jr.shuffleTask(c, 0, ti)
		sk := jr.taskParts[0][ti].sketch
		found := false
		for i := 0; i < sk.n; i++ {
			found = found || bytes.Equal(sk.slot(i), hot)
		}
		if !found {
			t.Errorf("task %d: the key holding a third of the task's bytes is absent from its sketch", ti)
		}
	}
}

// TestSkewSketchBoundaries: splitBoundaries isolates a fully-stored
// key as the exact range [key, key·0x00) — ascending, deduplicated
// boundaries that own their bytes.
func TestSkewSketchBoundaries(t *testing.T) {
	s := newKeySketch(nil)
	s.observe([]byte("bb"), 0, 100)
	s.observe([]byte("aa"), 0, 50)
	s.observe([]byte("zz"), 1, 999) // other reducer: must not appear
	bounds := s.splitBoundaries(0, nil)
	want := []string{"aa", "aa\x00", "bb", "bb\x00"}
	if len(bounds) != len(want) {
		t.Fatalf("boundaries = %q, want %q", bounds, want)
	}
	for i, b := range bounds {
		if string(b) != want[i] {
			t.Fatalf("boundaries = %q, want %q", bounds, want)
		}
	}
	// The derived ranges put exactly the key between its two bounds.
	if !keyInRange([]byte("aa"), bounds[0], bounds[1]) {
		t.Errorf("aa not in [aa, aa\\x00)")
	}
	for _, k := range []string{"a", "aaX", "ab"} {
		if keyInRange([]byte(k), bounds[0], bounds[1]) {
			t.Errorf("%q leaked into [aa, aa\\x00)", k)
		}
	}
	if s.splitBoundaries(2, nil) != nil {
		t.Errorf("reducer with no sketched keys produced boundaries")
	}
}

// TestSkewSketchBoundariesCap: at most splitMaxKeys keys are isolated
// per reducer, picked by volume.
func TestSkewSketchBoundariesCap(t *testing.T) {
	s := newKeySketch(nil)
	for i := 0; i < 10; i++ {
		s.observe([]byte{byte('a' + i)}, 0, int64(100-i)) // 'a' heaviest
	}
	bounds := s.splitBoundaries(0, nil)
	if len(bounds) != 2*splitMaxKeys {
		t.Fatalf("%d boundaries, want %d", len(bounds), 2*splitMaxKeys)
	}
	if string(bounds[0]) != "a" || string(bounds[len(bounds)-2]) != string(byte('a'+splitMaxKeys-1)) {
		t.Errorf("picks not the heaviest keys: %q", bounds)
	}
}

// TestSkewSketchLongKeyPrefix: a key longer than sketchKeyBytes is
// tracked by prefix and contributes only the prefix as a cut point —
// no successor bound, since the range [prefix, next) would otherwise
// cut inside the key's group.
func TestSkewSketchLongKeyPrefix(t *testing.T) {
	long := bytes.Repeat([]byte("k"), sketchKeyBytes+10)
	s := newKeySketch(nil)
	s.observe(long, 0, 100)
	bounds := s.splitBoundaries(0, nil)
	if len(bounds) != 1 {
		t.Fatalf("%d boundaries for a truncated key, want 1", len(bounds))
	}
	if !bytes.Equal(bounds[0], long[:sketchKeyBytes]) {
		t.Errorf("boundary %q is not the stored prefix", bounds[0])
	}
}

// TestSkewSketchAbsorb: merging per-task sketches in a fixed order
// yields one deterministic combined sketch with summed volumes.
func TestSkewSketchAbsorb(t *testing.T) {
	a, b := newKeySketch(nil), newKeySketch(nil)
	a.observe([]byte("x"), 0, 10)
	b.observe([]byte("x"), 0, 20)
	b.observe([]byte("y"), 1, 5)
	a.absorb(b)
	if a.n != 2 {
		t.Fatalf("merged sketch has %d entries, want 2", a.n)
	}
	if !bytes.Equal(a.slot(0), []byte("x")) || a.entries[0].vol != 30 {
		t.Errorf("entry 0 = %q vol %d, want x vol 30", a.slot(0), a.entries[0].vol)
	}
	if !bytes.Equal(a.slot(1), []byte("y")) || a.entries[1].vol != 5 || a.entries[1].red != 1 {
		t.Errorf("entry 1 = %q vol %d red %d, want y vol 5 red 1",
			a.slot(1), a.entries[1].vol, a.entries[1].red)
	}
}

// TestSkewSketchBudgetCharged: sketch key arenas and boundary copies
// go through grabBytes, so their bytes land in the run's ledger.
func TestSkewSketchBudgetCharged(t *testing.T) {
	b := NewBudget(0)
	s := newKeySketch(b)
	if got := b.Stats().ChargedBytes; got != sketchEntries*sketchKeyBytes {
		t.Fatalf("sketch arena charged %d bytes, want %d", got, sketchEntries*sketchKeyBytes)
	}
	s.observe([]byte("kk"), 0, 1)
	before := b.Stats().ChargedBytes
	s.splitBoundaries(0, b)
	if got := b.Stats().ChargedBytes - before; got != 2+3 { // "kk" + "kk\x00"
		t.Errorf("boundaries charged %d bytes, want 5", got)
	}
}

// TestSkewKeyInRange pins the half-open range semantics sub-range
// slots filter with.
func TestSkewKeyInRange(t *testing.T) {
	cases := []struct {
		key, lo, hi string
		noLo, noHi  bool
		want        bool
	}{
		{key: "m", noLo: true, noHi: true, want: true},
		{key: "m", lo: "m", noHi: true, want: true},  // lo inclusive
		{key: "m", noLo: true, hi: "m", want: false}, // hi exclusive
		{key: "a", lo: "b", hi: "d", want: false},
		{key: "c", lo: "b", hi: "d", want: true},
		{key: "", noLo: true, hi: "a", want: true}, // empty key sorts first
		{key: "", lo: "a", noHi: true, want: false},
	}
	for _, c := range cases {
		var lo, hi []byte
		if !c.noLo {
			lo = []byte(c.lo)
		}
		if !c.noHi {
			hi = []byte(c.hi)
		}
		if got := keyInRange([]byte(c.key), lo, hi); got != c.want {
			t.Errorf("keyInRange(%q, %q, %q) = %v, want %v", c.key, lo, hi, got, c.want)
		}
	}
}
