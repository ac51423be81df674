package mr

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestPoolRunsEveryTask checks quiescence over a recursive spawn tree:
// runTasks must not return before every transitively spawned task ran.
func TestPoolRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 8, runtime.GOMAXPROCS(0)} {
		var ran atomic.Int64
		var spawnTree func(c *poolCtx, depth int)
		spawnTree = func(c *poolCtx, depth int) {
			ran.Add(1)
			if depth == 0 {
				return
			}
			for k := 0; k < 3; k++ {
				d := depth - 1
				c.spawn(taskLabel{}, func(c *poolCtx) { spawnTree(c, d) })
			}
		}
		NewEngine(Config{}).runTasks(context.Background(), workers, new(Progress), func(c *poolCtx) { spawnTree(c, 5) })
		// Nodes of a 3-ary tree of depth 5: (3^6 - 1) / 2.
		if want := int64(364); ran.Load() != want {
			t.Errorf("workers=%d: ran %d tasks, want %d", workers, ran.Load(), want)
		}
	}
}

// TestPoolStealing proves idle workers steal queued work: a task that
// blocks until a sibling task runs can only finish if another worker
// takes the sibling from the first worker's deque.
func TestPoolStealing(t *testing.T) {
	release := make(chan struct{})
	NewEngine(Config{}).runTasks(context.Background(), 2, new(Progress), func(c *poolCtx) {
		c.spawn(taskLabel{}, func(c *poolCtx) { close(release) }) // stolen by the idle worker
		c.spawn(taskLabel{}, func(c *poolCtx) {})                 // keeps LIFO pop busy
		<-release                                                 // the deliberate block is the test: it deadlocks unless the idle worker steals the sibling task
	})
}

// TestPoolPanicPropagates checks a task panic is re-raised on the
// runTasks caller, as the engine's panic contract requires.
func TestPoolPanicPropagates(t *testing.T) {
	defer func() {
		if v := recover(); v != "boom" {
			t.Fatalf("recovered %v, want boom", v)
		}
	}()
	NewEngine(Config{}).runTasks(context.Background(), 4, new(Progress), func(c *poolCtx) {
		for i := 0; i < 8; i++ {
			c.spawn(taskLabel{}, func(c *poolCtx) {})
		}
		panic("boom")
	})
}

// TestPoolPanicAbandonsQueuedTasks pins the abort contract: after a
// task panic, queued tasks are abandoned, not drained. With a single
// worker this is deterministic — the seed panics before any spawned
// task can run, so none may execute.
func TestPoolPanicAbandonsQueuedTasks(t *testing.T) {
	var ran atomic.Int64
	func() {
		defer func() { recover() }()
		NewEngine(Config{}).runTasks(context.Background(), 1, new(Progress), func(c *poolCtx) {
			for i := 0; i < 8; i++ {
				c.spawn(taskLabel{}, func(c *poolCtx) { ran.Add(1) })
			}
			panic("boom")
		})
	}()
	if ran.Load() != 0 {
		t.Errorf("%d queued tasks ran after the pool aborted", ran.Load())
	}
}

// TestPoolPanicValueAcrossSteal pins re-raise fidelity: the value a
// stolen task panics with reaches the runTasks caller unwrapped — the
// identical value, not a copy or a formatted rendering — even though
// the panic crosses from the thief worker to the caller's goroutine.
func TestPoolPanicValueAcrossSteal(t *testing.T) {
	type boom struct{ code int }
	val := &boom{code: 42}
	var started atomic.Bool
	defer func() {
		if v := recover(); v != val {
			t.Fatalf("recovered %#v, want the original panic value %p", v, val)
		}
	}()
	NewEngine(Config{}).runTasks(context.Background(), 2, new(Progress), func(c *poolCtx) {
		c.spawn(taskLabel{}, func(c *poolCtx) {
			started.Store(true)
			panic(val)
		})
		// Spin (no blocking ops in a pool task) until the sibling runs:
		// this worker is busy, so only a thief can have started it.
		for !started.Load() {
			runtime.Gosched()
		}
	})
	t.Fatal("runTasks returned without re-raising the task panic")
}

// TestPoolSpawnAfterQuiescencePanics pins misuse detection: a poolCtx
// retained past its runTasks call must not queue work onto the dead
// pool silently — the workers are gone and the task would never run.
func TestPoolSpawnAfterQuiescencePanics(t *testing.T) {
	var leaked *poolCtx
	NewEngine(Config{}).runTasks(context.Background(), 2, new(Progress), func(c *poolCtx) { leaked = c })
	defer func() {
		v := recover()
		s, ok := v.(string)
		if !ok || !strings.Contains(s, "spawn after quiescence") {
			t.Fatalf("recovered %#v, want the spawn-after-quiescence panic", v)
		}
	}()
	leaked.spawn(taskLabel{}, func(c *poolCtx) {})
	t.Fatal("spawn on a quiescent pool returned normally")
}
