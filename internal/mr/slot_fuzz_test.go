package mr

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/cost"
)

// FuzzSlotLayout is the parallel-correctness property of the reduce
// stage's task layout, in the sense of Geck et al. (PAPERS.md):
// re-partitioning cannot change the answer when every group of records
// one Reduce call needs reaches some single task whole. For a random key
// multiset and reducer count the test runs the real shuffle tasks, the
// real heaviness test (ways), the real gather (reduceGroups, in
// memory or spilled) and the real cut, and checks, per reducer ri:
//
//   - the gather holds ri's declared (part, task)-order stream, record
//     for record, and its load is the stream's modelled bytes;
//   - every group reaches exactly one piece, whole, its messages in
//     arrival order;
//   - the pieces are contiguous and in first-arrival order, so
//     concatenating their groups gives the unsplit reducer's group
//     sequence — the order the merge concatenates their outputs in;
//   - each piece is at most L / k unless it is one group, the pieces'
//     loads sum to L, and there are at most 2k − 1 of them.
func FuzzSlotLayout(f *testing.F) {
	f.Add([]byte{1, 'a', 1, 'b', 2, 'a', 'b', 9, 'l', 'o', 'n', 'g', 'e', 'r', 'k', 'e', 'y'}, uint8(3), uint8(200), false)
	f.Add([]byte{0, 1, 0x00, 2, 0x00, 0x00, 1, 0xff}, uint8(1), uint8(0), true)
	f.Add([]byte{3, 'h', 'o', 't'}, uint8(5), uint8(255), true)
	f.Add([]byte{}, uint8(7), uint8(90), false)
	// One reducer and a 12-byte key: each task's 150 records take two
	// chunks of arena, which its shuffle task copies into one segment.
	f.Add([]byte("\x0cmulti-chunks"), uint8(0), uint8(0), false)
	f.Add([]byte("\x0cmulti-chunks"), uint8(8), uint8(0), true)
	c := &poolCtx{scratch: new(taskScratch)} // one worker's scratch, reused across every input
	f.Fuzz(func(t *testing.T, data []byte, reducers, hot uint8, spill bool) {
		keys := decodeFuzzKeys(data)
		if len(keys) == 0 {
			keys = [][]byte{nil}
		}
		checkSlotLayout(t, c, keys, 1+int(reducers)%8, int(hot), spill)
	})
}

// checkSlotLayout shuffles 600 records over 2 parts × 2 tasks — keys
// cycled from the given set, with hot/256 of the records on keys[0] so
// some partition is heavy enough to split — and checks the layout
// property above, every task running on worker context c. It returns the
// number of reduce tasks the layout makes: one per piece.
func checkSlotLayout(t *testing.T, c *poolCtx, keys [][]byte, reducers, hot int, spill bool) int {
	t.Helper()
	e := NewEngine(Config{Cost: cost.Default(), SkewSplit: 1.01})
	gov := govern{}
	if spill {
		e.cfg.SpillThreshold = 1
		e.cfg.SpillDir = t.TempDir()
		gov = e.newGovern(nil)
		defer gov.spill.cleanup()
	}
	const parts, tasks, perTask = 2, 2, 150
	jr := &jobRun{e: e, job: &Job{}, gov: gov, reducers: reducers, left: parts*tasks + 1} // +1: never the last shuffle, so nothing spawns
	jr.results = make([][]mapTaskResult, parts)
	jr.taskParts = make([][]taskPartition, parts)
	// streams[ri] is reducer ri's declared-order record stream, built
	// independently of the engine's shuffle.
	type streamRec struct {
		key  []byte
		v    int64
		size int64
	}
	streams := make([][]streamRec, reducers)
	id := 0
	for part := 0; part < parts; part++ {
		jr.results[part] = make([]mapTaskResult, tasks)
		jr.taskParts[part] = make([]taskPartition, tasks)
		for ti := 0; ti < tasks; ti++ {
			res := &jr.results[part][ti]
			var em Emitter
			for i := 0; i < perTask; i++ {
				k := keys[id%len(keys)]
				if (id*97)%256 < hot {
					k = keys[0]
				}
				emitInt(&em, k, int64(id))
				r := streamRec{key: k, v: int64(id), size: keyBytes(k) + 8}
				res.bytes += r.size
				ri := hashKey(k) % uint32(reducers)
				streams[ri] = append(streams[ri], r)
				id++
			}
			res.chunks, res.msgs = em.chunks, em.records
		}
	}
	for part := 0; part < parts; part++ {
		for ti := 0; ti < tasks; ti++ {
			jr.shuffleTask(c, part, ti)
		}
	}
	var total int64 // the job's map output bytes, whose mean over r ways takes
	for part := range jr.results {
		for _, res := range jr.results[part] {
			total += res.bytes
		}
	}

	tasksMade := 0
	for ri := 0; ri < reducers; ri++ {
		g, err := reduceGroups(c.scratch, jr.taskParts, ri, nil)
		if err != nil {
			t.Fatalf("reducer %d: gather: %v", ri, err)
		}
		stream := streams[ri]
		if len(g.recs) != len(stream) {
			t.Fatalf("reducer %d: gathered %d records, its stream has %d", ri, len(g.recs), len(stream))
		}
		var load int64
		for i, r := range stream {
			v, _ := binary.Varint(g.payload(i))
			if !bytes.Equal(g.key(i), r.key) || g.recs[i].tag != tagInt || v != r.v {
				t.Fatalf("reducer %d: record %d is %q/%v, stream order wants %q/%v", ri, i, g.key(i), v, r.key, r.v)
			}
			load += r.size
		}
		if g.load != load {
			t.Errorf("reducer %d: load %d, records sum to %d", ri, g.load, load)
		}
		// The unsplit group sequence, from the stream through a map: keys
		// in first-arrival order, each with its messages in arrival order.
		var order []string
		msgs, loads := map[string][]int64{}, map[string]int64{}
		for _, r := range stream {
			if _, seen := msgs[string(r.key)]; !seen {
				order = append(order, string(r.key))
			}
			msgs[string(r.key)] = append(msgs[string(r.key)], r.v)
			loads[string(r.key)] += r.size
		}

		pieces := []piece{{hi: len(g.locs), load: g.load}}
		k := jr.ways(g.load, int64(len(g.recs)), float64(total)/float64(reducers))
		if k > 0 {
			pieces = g.cut(pieces[0], k)
			if int64(len(pieces)) > 2*k-1 {
				t.Errorf("reducer %d: %d pieces for k = %d, want at most 2k − 1", ri, len(pieces), k)
			}
		}
		tasksMade += len(pieces)
		next, at := 0, 0 // the next group index a piece must start at; the next key of order
		var sum int64
		for pi, p := range pieces {
			if p.lo != next || p.hi < p.lo {
				t.Fatalf("reducer %d: piece %d covers groups [%d, %d) after %d: not contiguous", ri, pi, p.lo, p.hi, next)
			}
			next = p.hi
			var pload int64
			g.each(p.lo, p.hi, func(key []byte, grp *Group) {
				if at >= len(order) || string(key) != order[at] {
					t.Fatalf("reducer %d: piece %d delivers key %q as group %d of the unsplit sequence", ri, pi, key, at)
				}
				want := msgs[order[at]]
				got := make([]int64, grp.Len())
				for i := range got {
					got[i] = intAt(grp, i)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("reducer %d: piece %d: key %q delivers %v, its messages are %v", ri, pi, key, got, want)
				}
				pload += loads[order[at]]
				at++
			})
			if p.load != pload {
				t.Errorf("reducer %d: piece %d has load %d, its groups sum to %d", ri, pi, p.load, pload)
			}
			if k > 0 && p.hi-p.lo > 1 && p.load*k > g.load {
				t.Errorf("reducer %d: piece %d of %d groups weighs %d, past L / k = %d / %d", ri, pi, p.hi-p.lo, p.load, g.load, k)
			}
			sum += p.load
		}
		if next != len(g.locs) || at != len(order) {
			t.Fatalf("reducer %d: pieces cover %d of %d groups, deliver %d of %d keys", ri, next, len(g.locs), at, len(order))
		}
		if sum != g.load {
			t.Errorf("reducer %d: pieces weigh %d together, the partition %d", ri, sum, g.load)
		}
	}
	return tasksMade
}

// TestSlotLayoutSplits runs the property on inputs known to split, so
// the plain test run (no -fuzz) is guaranteed to cover multi-piece
// partitions in both stores rather than only whatever the seeds reach.
func TestSlotLayoutSplits(t *testing.T) {
	keys := [][]byte{[]byte("hot"), []byte("a"), []byte("hotter"), {}, []byte("zz"), bytes.Repeat([]byte{'p'}, 53)}
	c := &poolCtx{scratch: new(taskScratch)}
	for _, spill := range []bool{false, true} {
		if n := checkSlotLayout(t, c, keys, 4, 160, spill); n <= 4 {
			t.Errorf("spill %v: %d reduce tasks for 4 reducers: nothing split", spill, n)
		}
	}
}
