// Testdata for the mapiter analyzer: range-over-map loops reaching
// order-sensitive sinks.
package mapiter

import (
	"sort"

	"lintest/mr"
	"lintest/relation"
)

func sinks(m map[string]relation.Tuple, out *mr.Output, emit *mr.Emitter, rel *relation.Relation, other *relation.Relation, stats *mr.JobStats) {
	for k, t := range m {
		out.Add(k, t)                   // want `map-ordered Output.Add`
		emit.Emit([]byte(k), 0, 0, nil) // want `map-ordered emit`
		encode(emit, []byte(k))         // want `map-ordered emit`
		rel.Add(t)                      // want `map-ordered Relation.Add`
		rel.AddAll(other)               // want `map-ordered Relation.AddAll`
		stats.OutputMB += 1             // want `map-ordered stats fold \(OutputMB\)`
		if len(t) > 0 {
			out.Add(k, t) // want `map-ordered Output.Add`
		}
	}

	// The fix recipe: collect the keys, sort, iterate the slice.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // collection only: no sink
	}
	sort.Strings(keys)
	for _, k := range keys {
		out.Add(k, m[k]) // slice iteration: deterministic
	}

	// Closures built during iteration run later (after a sort) and are
	// not flagged.
	var emitters []func()
	for k := range m {
		emitters = append(emitters, func() { out.Add(k, m[k]) })
	}
	for _, e := range emitters {
		e()
	}

	// Order-insensitive work inside a map range stays legal.
	var records int64
	for _, ps := range statsByName(stats) {
		records += ps.Records
	}
	_ = records
}

func encode(emit *mr.Emitter, key []byte) { emit.Emit(key, 0, 0, nil) }

func statsByName(stats *mr.JobStats) map[string]mr.PartStats {
	byName := make(map[string]mr.PartStats)
	for _, ps := range stats.Parts {
		byName[ps.Input] = ps
	}
	return byName
}

func suppressedSink(m map[string]relation.Tuple, rel *relation.Relation) {
	for _, t := range m {
		rel.Add(t) //lint:ignore mapiter testdata: pins that suppression silences the finding
	}
}
