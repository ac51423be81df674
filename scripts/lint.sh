#!/usr/bin/env sh
# lint.sh — the repo's static-analysis gate, exactly what CI's lint job
# runs: gofmt (no unformatted files), go vet, and the project's own
# gumbo-lint analyzer suite (see docs/INVARIANTS.md for the contracts
# it enforces and the //lint:ignore suppression protocol). It ends by
# printing the non-test line count (scripts/loc.sh), so the figure a
# simplicity PR quotes is in the job's log.
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
go run ./cmd/gumbo-lint ./...

echo "non-test Go lines: $(scripts/loc.sh)"
echo "lint: OK"
