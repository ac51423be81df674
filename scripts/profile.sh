#!/usr/bin/env bash
# profile.sh — a CPU profile of one benchmark of internal/server, by
# default the engine path the benchmark's nested-sgf workload runs:
# paper query C3 under Greedy-SGF, planned once and run through the MR
# engine on one host worker (BenchmarkWorkOverEval/C3, which also runs
# the sequential evaluator after each run, so its functions appear
# beside the engine's). `-bench 'BenchmarkQueryHit$'` profiles the
# served path instead: a plan-cache-hit query through the server, every
# job on the one-reducer task. It prints the top 30 functions by flat
# CPU share; the profile and the test binary are kept in the output
# directory for `go tool pprof -list <regexp>` afterwards.
#
# Usage:
#   scripts/profile.sh [-bench REGEXP] [-benchtime 10s] [-o DIR]
#
#   -bench      go test's -bench: the benchmark to profile (default
#               'BenchmarkWorkOverEval/C3$')
#   -benchtime  go test's -benchtime: a duration or Nx (default 10s;
#               CI runs 1x to keep the script working)
#   -o          where the profile and the test binary go (default: a
#               fresh directory under $TMPDIR, printed at the end)
set -euo pipefail
cd "$(dirname "$0")/.."

bench='BenchmarkWorkOverEval/C3$' benchtime=10s out=
while [ $# -gt 0 ]; do
	case "$1" in
	-bench) bench=$2; shift 2 ;;
	-benchtime) benchtime=$2; shift 2 ;;
	-o) out=$2; shift 2 ;;
	*) echo "usage: $0 [-bench REGEXP] [-benchtime 10s] [-o DIR]" >&2; exit 2 ;;
	esac
done
if [ -z "$out" ]; then
	out=$(mktemp -d)
fi
mkdir -p "$out"
out=$(cd "$out" && pwd)

go test -run NONE -bench "$bench" -benchtime "$benchtime" \
	-o "$out/server.test" -cpuprofile "$out/cpu.pprof" ./internal/server
go tool pprof -top -nodecount 30 "$out/server.test" "$out/cpu.pprof"
echo "profile: $out/cpu.pprof (binary $out/server.test)"
