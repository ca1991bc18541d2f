#!/bin/sh
# loc: print the line count ROADMAP.md tracks - non-test source outside
# bench/ (every *.go that is not *_test.go and, since PR 19, every Go
# assembly file *.s beside them, so the tracked number cannot hide
# assembly; comments and blank lines included) - per package directory and
# in total, so every PR reports the same number the same way. CI prints it
# (non-gating). Run from the module root with:
# sh scripts/loc.sh
set -eu
find . \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' |
	sort | xargs wc -l |
	awk '$2 == "total" { next }
	{ dir = $2; sub(/\/[^\/]*$/, "", dir); n[dir] += $1; total += $1 }
	END {
		for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d total (non-test Go and Go assembly outside bench/)\n", total
	}'
