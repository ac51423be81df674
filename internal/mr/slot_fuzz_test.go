package mr

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/cost"
)

// FuzzSlotLayout is the parallel-correctness property of the reduce
// slot layout, in the sense of Geck et al. (PAPERS.md): re-partitioning
// cannot change the answer when every group of records one Reduce call
// needs reaches some single task whole. For a random key multiset,
// reducer count and the boundaries the real sketch derives from it, the
// test runs the real shuffle tasks, the real slot planner and the real
// reader (taskPartition.count/appendTo, in memory or spilled) and
// checks, per reducer ri:
//
//   - every record of ri's declared (part, task)-order stream lands in
//     exactly one of ri's slots;
//   - no key group straddles two slots, and slots ascend by key range;
//   - each slot's input is the stream filtered to its range in stream
//     order — so concatenating the slots' inputs in slot order is the
//     stream stably partitioned by range, the ordered sub-partition
//     fold's premise;
//   - each key group of a slot carries the index of the key's first
//     record in ri's whole stream, ascending in the slot's group order —
//     the first-arrival index the merge interleaves split outputs by.
func FuzzSlotLayout(f *testing.F) {
	f.Add([]byte{1, 'a', 1, 'b', 2, 'a', 'b', 9, 'l', 'o', 'n', 'g', 'e', 'r', 'k', 'e', 'y'}, uint8(3), uint8(200), false)
	f.Add([]byte{0, 1, 0x00, 2, 0x00, 0x00, 1, 0xff}, uint8(1), uint8(0), true)
	f.Add([]byte{3, 'h', 'o', 't'}, uint8(5), uint8(255), true)
	f.Add([]byte{}, uint8(7), uint8(90), false)
	// One reducer and a 12-byte key: each task's 150 records take two
	// chunks of arena, which become its partition as they are.
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
// some partition is heavy enough to split — and checks the slot-layout
// property above, the shuffle tasks running on worker context c. It
// returns the number of slots planned.
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
	slots := jr.planReduceSlots()

	si := 0
	for ri := 0; ri < reducers; ri++ {
		if si >= len(slots) || slots[si].ri != ri {
			t.Fatalf("reducer %d has no slot at position %d (layout not reducer-major): %+v", ri, si, slots)
		}
		placed := 0
		var prevMax []byte // largest key any earlier slot of ri received
		havePrev := false
		for ; si < len(slots) && slots[si].ri == ri; si++ {
			slot := slots[si]
			var want []streamRec
			for _, r := range streams[ri] {
				if keyInRange(r.key, slot.lo, slot.hi) {
					want = append(want, r)
				}
			}
			var got recordSet
			var load, wantLoad int64
			reserve := 0
			for part := range jr.taskParts {
				for ti := range jr.taskParts[part] {
					reserve += jr.taskParts[part][ti].count(slot)
				}
			}
			ks := c.scratch.keySet(reserve, true)
			arrival := make([]int32, reserve)
			var at int32
			for part := range jr.taskParts {
				for ti := range jr.taskParts[part] {
					tp := &jr.taskParts[part][ti]
					kept, err := tp.appendTo(&got, ks, slot, at, arrival, nil)
					if err != nil {
						t.Fatalf("slot %d: appendTo: %v", si, err)
					}
					load += kept
					at += tp.segs[ri].count
				}
			}
			for g, l := range ks.locs {
				key, first := got.key(int(l.first)), -1
				for i, r := range streams[ri] {
					if bytes.Equal(r.key, key) {
						first = i
						break
					}
				}
				if int(arrival[g]) != first || (g > 0 && arrival[g] <= arrival[g-1]) {
					t.Fatalf("slot %d: group %d (key %q) arrived at %d, its first record is at %d of the stream", si, g, key, arrival[g], first)
				}
			}
			if len(got.recs) != len(want) {
				t.Fatalf("slot %d (reducer %d, [%q,%q)): %d records, want %d", si, ri, slot.lo, slot.hi, len(got.recs), len(want))
			}
			if reserve < len(got.recs) || (!spill && reserve != len(got.recs)) {
				t.Errorf("slot %d: count reserved %d for %d records", si, reserve, len(got.recs))
			}
			for i := range want {
				v, _ := binary.Varint(got.payload(i))
				if !bytes.Equal(got.key(i), want[i].key) || got.recs[i].tag != tagInt || v != want[i].v {
					t.Fatalf("slot %d: record %d is %q/%v, stream order wants %q/%v",
						si, i, got.key(i), v, want[i].key, want[i].v)
				}
				wantLoad += want[i].size
				// Ascending, disjoint ranges: every key here sorts strictly
				// after every key of ri's earlier slots, so no key group
				// can straddle two slots.
				if havePrev && bytes.Compare(got.key(i), prevMax) <= 0 {
					t.Fatalf("slot %d: key %q does not sort after earlier slots' %q", si, got.key(i), prevMax)
				}
			}
			if load != wantLoad {
				t.Errorf("slot %d: load %d, records sum to %d", si, load, wantLoad)
			}
			for i := range got.recs {
				if !havePrev || bytes.Compare(got.key(i), prevMax) > 0 {
					prevMax, havePrev = got.key(i), true
				}
			}
			placed += len(got.recs)
		}
		// Slot inputs are range-filtered sub-sequences of the stream over
		// disjoint ranges; together they must account for all of it.
		if placed != len(streams[ri]) {
			t.Fatalf("reducer %d: slots received %d of %d records", ri, placed, len(streams[ri]))
		}
	}
	if si != len(slots) {
		t.Fatalf("%d slots beyond the last reducer", len(slots)-si)
	}
	return len(slots)
}

// TestSlotLayoutSplits runs the property on inputs known to split, so
// the plain test run (no -fuzz) is guaranteed to cover multi-slot
// partitions in both stores rather than only whatever the seeds reach.
func TestSlotLayoutSplits(t *testing.T) {
	keys := [][]byte{[]byte("hot"), []byte("a"), []byte("hotter"), {}, []byte("zz"), bytes.Repeat([]byte{'p'}, sketchKeyBytes+5)}
	c := &poolCtx{scratch: new(taskScratch)}
	for _, spill := range []bool{false, true} {
		if n := checkSlotLayout(t, c, keys, 4, 160, spill); n <= 4 {
			t.Errorf("spill %v: %d slots for 4 reducers: nothing split", spill, n)
		}
	}
}
