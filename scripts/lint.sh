#!/usr/bin/env sh
# lint.sh — the repo's static-analysis gate, exactly what CI's lint job
# runs: gofmt (no unformatted files), go vet, and no .go file of the
# root module outside bench/ importing unsafe (a relation's index is a
# plain slice that only its builder holds; no pointer tricks come back
# unnoticed). The engine's contracts are guarded by tests that run with
# the rest of the suite (docs/INVARIANTS.md names the guard of each). It ends by printing the
# non-test line count (scripts/loc.sh), so the figure a simplicity PR
# quotes is in the job's log.
#
# Usage:
#   scripts/lint.sh
set -eu

cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...

unsafe=$(find . -name '*.go' -not -path './bench/*' -print0 |
	xargs -0 grep -lE '^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"unsafe"' || true)
if [ -n "$unsafe" ]; then
	echo "unsafe imported outside bench/ by:" >&2
	echo "$unsafe" >&2
	exit 1
fi

echo "non-test Go lines: $(scripts/loc.sh)"
echo "lint: OK"
