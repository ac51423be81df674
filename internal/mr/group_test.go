package mr

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// kv is one test record: a key and an int message (see emitInt).
type kv struct {
	key string
	v   int64
}

// setOf builds a record set the way a map task does: through the
// production Emitter, sizes fixed at emit.
func setOf(kvs []kv) *recordSet {
	var em Emitter
	for _, r := range kvs {
		emitInt(&em, []byte(r.key), r.v)
	}
	return &em.set
}

// groupTrace renders the sort-based grouping of s as one string: key,
// then each message in delivery order. Comparing traces compares key
// order, group boundaries and message order at once.
func groupTrace(s *recordSet) string {
	var out string
	forEachGroup(s, sortIndexByKey(&taskScratch{}, s), func(key []byte, msgs *Group) {
		out += fmt.Sprintf("%q:", key)
		for i := 0; i < msgs.Len(); i++ {
			out += fmt.Sprintf("%v,", intAt(msgs, i))
		}
		out += ";"
	})
	return out
}

// refTrace is the engine's pre-sort-based reduce grouping (hash map +
// sorted key list) rendered like groupTrace: the oracle the sort-based
// grouping must reproduce byte for byte. It works on string keys — the
// engine's original key representation — so it also serves as the
// string-keyed oracle for the byte-slice key differential tests in
// radix_test.go.
func refTrace(kvs []kv) string {
	groups := make(map[string][]int64)
	var keys []string
	for _, r := range kvs {
		if _, seen := groups[r.key]; !seen {
			keys = append(keys, r.key)
		}
		groups[r.key] = append(groups[r.key], r.v)
	}
	sort.Strings(keys)
	var out string
	for _, k := range keys {
		out += fmt.Sprintf("%q:", k)
		for _, v := range groups[k] {
			out += fmt.Sprintf("%v,", v)
		}
		out += ";"
	}
	return out
}

func TestForEachGroupEmptyPartition(t *testing.T) {
	if got := groupTrace(&recordSet{}); got != "" {
		t.Errorf("forEachGroup called fn on an empty partition: %s", got)
	}
}

func TestForEachGroupSingleKeyRun(t *testing.T) {
	got := groupTrace(setOf([]kv{{"k", 1}, {"k", 2}, {"k", 3}}))
	if want := `"k":1,2,3,;`; got != want {
		t.Errorf("trace = %s, want %s", got, want)
	}
}

// randomKVs draws n records over the given number of distinct keys.
func randomKVs(rng *rand.Rand, n, keys int) []kv {
	kvs := make([]kv, n)
	for i := range kvs {
		kvs[i] = kv{fmt.Sprintf("k%03d", rng.Intn(keys)), int64(i)}
	}
	return kvs
}

// TestForEachGroupMatchesMapGrouping drives both groupings over
// randomized skewed-key partitions and requires identical traces: same
// key order, same group boundaries, same message order.
func TestForEachGroupMatchesMapGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		kvs := randomKVs(rng, rng.Intn(400), rng.Intn(20)+1)
		if got, want := groupTrace(setOf(kvs)), refTrace(kvs); got != want {
			t.Fatalf("trial %d: sort-based grouping diverged:\n got %s\nwant %s", trial, got, want)
		}
	}
}

// TestPackRecordsMatchesMapPacking checks packing against the map-based
// definition: one run per distinct key, the key charged once per run,
// payload bytes all kept, and the groups a reducer sees unchanged.
func TestPackRecordsMatchesMapPacking(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		kvs := randomKVs(rng, rng.Intn(300), rng.Intn(15)+1)
		perKey := make(map[string]int64)
		var wantBytes int64
		for _, r := range kvs {
			if perKey[r.key] == 0 {
				wantBytes += KeyBytes([]byte(r.key))
			}
			perKey[r.key]++
			wantBytes += 8
		}
		s := setOf(kvs)
		runs := packRecords(&taskScratch{}, s)
		var gotBytes int64
		for i := range s.recs {
			want := int64(8) // a run's later records carry payload bytes only
			if i == 0 || string(s.key(i-1)) != string(s.key(i)) {
				want += KeyBytes(s.key(i))
			}
			if s.recs[i].size != want {
				t.Fatalf("trial %d: record %d (key %q): size %d, want %d", trial, i, s.key(i), s.recs[i].size, want)
			}
			gotBytes += s.recs[i].size
		}
		if runs != int64(len(perKey)) || gotBytes != wantBytes || len(s.recs) != len(kvs) {
			t.Fatalf("trial %d: packed %d runs/%d bytes/%d messages, want %d/%d/%d",
				trial, runs, gotBytes, len(s.recs), len(perKey), wantBytes, len(kvs))
		}
		// Same groups in the same per-key message order once grouped —
		// the only property the reduce phase observes.
		if gt, wt := groupTrace(s), refTrace(kvs); gt != wt {
			t.Fatalf("trial %d: packing diverged after grouping:\n got %s\nwant %s", trial, gt, wt)
		}
	}
}

func TestPackRecordsEmptyAndSingle(t *testing.T) {
	if runs := packRecords(&taskScratch{}, &recordSet{}); runs != 0 {
		t.Errorf("packRecords(empty) = %d runs", runs)
	}
	s := setOf([]kv{{"k", 1}})
	if runs := packRecords(&taskScratch{}, s); runs != 1 || len(s.recs) != 1 || s.recs[0].size != KeyBytes([]byte("k"))+8 {
		t.Errorf("packRecords(single) = %d runs, records %+v", runs, s.recs)
	}
	if got := groupTrace(s); got != `"k":1,;` {
		t.Errorf("packRecords(single) changed the record: %s", got)
	}
}
