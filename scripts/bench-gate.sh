#!/usr/bin/env bash
# bench-gate.sh — CI's gate on the benchmark's exact metrics: all four
# workloads of BENCHMARK.json end to end at seed 1, then every figure of
# the run that does not depend on the host is held to bench-gate.json
# beside this script. A workload fails the gate when
#
#   - an operation failed or a response was wrong,
#   - model_net_s or model_total_s differs (1e-9 relative) from the
#     checked-in value: the simulated times are a function of the plan
#     and the data, so a difference is a change of answer, or
#   - alloc_mb_per_op exceeds its checked-in ceiling, the median of the
#     PR that last lowered it × 1.10. One-sided: allocating less never
#     fails, so a change that lowers it also lowers the ceiling, or
#   - heap_live_mb — the heap after two runtime.GC() calls, data and
#     server still live — exceeds its checked-in ceiling, the median of
#     the PR that last set it × 1.10: memory retained across operations
#     (the Engine's scratch pool must be empty by then). One-sided, like
#     allocation.
#
# Ceilings, nested-sgf / skew-spill / serve-hot / serve-churn:
# alloc_mb_per_op 30.19 / 28.86 / 1.859 / 8.604 (PR 23), 25.85 / 18.95 /
# 0.6096 / 4.273 (PR 25: the Engine's scratch pool); heap_live_mb 5.444 /
# 4.619 / 26.77 / 28.38 (PR 25). PR 25's are its ten-pair medians × 1.10.
# Then alloc_mb_per_op serve-hot 0.5938 and serve-churn 2.092, when load
# bodies came to be parsed in one pass: that change's ten-pair medians ×
# 1.10. Then serve-hot 0.4294 and serve-churn 1.648, when a
# single-reducer job's map arenas became its shuffle partition, with no
# second copy: that change's ten-pair medians (0.3904 / 1.498) × 1.10.
# Then nested-sgf 23.76 and skew-spill 17.61, when reduce tasks came to
# append output facts unindexed and the output merge to be the one place
# they are hashed: that change's ten-pair medians (21.60 / 16.01) × 1.10.
# Then serve-hot 0.3041 and serve-churn 1.240, when a one-reducer task
# came to write no record headers into its arenas: that change's
# ten-pair medians (0.2765 / 1.127) × 1.10.
# Then heap_live_mb 4.349 / 3.527 / 15.61 / 18.21, when a published
# relation came to keep no hash index (Database.Put and relation.Merge
# drop it): that change's seed-1 ten-pair medians (3.953 / 3.206 /
# 14.19 / 16.55) × 1.10.
# Then alloc_mb_per_op nested-sgf 17.00 and skew-spill 13.67, when a
# shuffle partition came to be written back over its map task's arena
# instead of into a fresh buffer: that change's ten-pair medians
# (15.46 / 12.42) × 1.10.
# Then alloc_mb_per_op nested-sgf 12.49 and skew-spill 10.24, when a
# staged task came to write its arena and its output buffers through
# worker staging, keeping one exactly sized copy: that change's ten-pair
# medians (11.35 / 9.312) × 1.10.
# Then alloc_mb_per_op serve-hot 0.2416 and serve-churn 1.093, when a
# one-reducer task came to store each key's bytes once, on one arena
# ladder for all its splits: that change's ten-pair medians (0.2197 /
# 0.9934) × 1.10.
#
# Timings are printed by the run and not gated: CI runners are shared.
#
# Usage:
#   scripts/bench-gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
bash bench/run.sh --seconds 2 --trace 0 --seed 1 --out "$out"

python3 - "$out/result.json" scripts/bench-gate.json <<'PY'
import json, sys

result, gate = (json.load(open(p)) for p in sys.argv[1:3])
passes = {p["workload"]: p for p in result["passes"]}
bad = []
for name, want in gate.items():
    p = passes.get(name)
    if p is None:
        bad.append(f"{name}: not in the run")
        continue
    if p["failed"] or not p["correct"]:
        bad.append(f"{name}: {p['failed']} of {p['attempted']} ops failed")
    m = {k: v["value"] for k, v in p["metrics"].items()}
    for k in ("model_net_s", "model_total_s"):
        if abs(m[k] - want[k]) > 1e-9 * abs(want[k]):
            bad.append(f"{name}: {k} = {m[k]!r}, checked in {want[k]!r}")
    for k in ("alloc_mb_per_op", "heap_live_mb"):
        if m[k] > want[k + "_max"]:
            bad.append(f"{name}: {k} = {m[k]:.2f}, ceiling {want[k + '_max']}")
    print(f"bench-gate: {name}: model {m['model_net_s']:.6g} / {m['model_total_s']:.6g} sim_s, "
          f"{m['alloc_mb_per_op']:.2f} MB/op (ceiling {want['alloc_mb_per_op_max']}), "
          f"{m['heap_live_mb']:.2f} MB live (ceiling {want['heap_live_mb_max']})")
for name in passes.keys() - gate.keys():
    bad.append(f"{name}: no entry in scripts/bench-gate.json")
for line in bad:
    print("bench-gate: FAIL:", line, file=sys.stderr)
sys.exit(1 if bad else 0)
PY
