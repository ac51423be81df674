#!/usr/bin/env bash
# run.sh — build the benchmark inside the checkout and run it from the
# repository root. Everything the build leaves behind (Go build cache,
# temp files, the go command's own state under $HOME, the binary) lands
# in .bench_build/, which .gitignore names; nothing outside the checkout
# is written.
#
#   bash bench/run.sh                       all workloads, both passes
#   bash bench/run.sh --workload serve-hot --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh -repeat 3             A/A table against the bounds
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/gopath" \
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -C bench -ldflags "-X main.commit=$commit" -o "$build/gumbo-perf" .
exec "$build/gumbo-perf" "$@"
