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
#     fails, so a change that lowers it also lowers the ceiling.
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
    if m["alloc_mb_per_op"] > want["alloc_mb_per_op_max"]:
        bad.append(f"{name}: alloc_mb_per_op = {m['alloc_mb_per_op']:.2f}, ceiling {want['alloc_mb_per_op_max']}")
    print(f"bench-gate: {name}: model {m['model_net_s']:.6g} / {m['model_total_s']:.6g} sim_s, "
          f"{m['alloc_mb_per_op']:.2f} MB/op (ceiling {want['alloc_mb_per_op_max']})")
for name in passes.keys() - gate.keys():
    bad.append(f"{name}: no entry in scripts/bench-gate.json")
for line in bad:
    print("bench-gate: FAIL:", line, file=sys.stderr)
sys.exit(1 if bad else 0)
PY
