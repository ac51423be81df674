#!/usr/bin/env sh
# loc.sh — the non-test Go line count every simplicity PR quotes
# (CHANGES.md): all .go files outside bench/, testdata/ and tests.
#
# Usage:
#   scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l
