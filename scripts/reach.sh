#!/bin/sh
# reach: list every function and method declared in a non-test file under
# internal/ that none of the three commands (ptdft, ptdftd, summitsim)
# links, and hold that list to scripts/reach.txt. CI runs it on
# every PR; run it from the module root with:
# sh scripts/reach.sh
#
# The commands, the benchmark (bench/, a nested module) and every example
# are built with -gcflags=all=-l, so nothing is inlined away, and their
# text symbols (go tool nm) are compared with the declarations in the files
# go list compiles for this GOOS/GOARCH. An assembly function counts by its
# Go declaration (its .abi0 symbol); init is excluded. An entry's lines run
# from its doc comment to its closing brace. Each entry gets a class:
#   example  an example binary links it;
#   bench    only the bench/ binary links it;
#   test     neither does: only tests reach it.
# scripts/reach.txt holds one line per entry - class, lines, symbol, a
# one-line reason - and the script fails on an unlisted, stale or
# misclassified line, or a line count that moved. A test entry's reason
# must name a Test, Benchmark or Fuzz function declared in a _test.go file
# that uses the entry's identifier, so a function that no program and no
# test reaches cannot be listed: it is deleted instead.
set -eu
export GOWORK=off GOTOOLCHAIN=local
list=scripts/reach.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM

flags=-gcflags=all=-l
go build "$flags" -o "$tmp/cmd/" ./cmd/ptdft ./cmd/ptdftd ./cmd/summitsim
go build "$flags" -o "$tmp/example/" ./examples/...
(cd bench && go build "$flags" -o "$tmp/bench/bench" .)

# syms dir: the ptdft/internal text symbols the binaries in dir link, one
# per line as declared (internal/ prefix, type parameters and the .abi0
# suffix stripped), sorted and unique.
syms() {
	for b in "$1"/*; do go tool nm "$b"; done |
		awk '$2 ~ /^[Tt]$/ {
			s = $0
			sub(/^ *[0-9a-f]+ [Tt] /, "", s)
			if (s !~ /^ptdft\/internal\//) next
			sub(/^ptdft\/internal\//, "", s)
			while (gsub(/\[[^][]*\]/, "", s)) {}
			sub(/\.abi0$/, "", s)
			print s
		}' | sort -u
}
syms "$tmp/cmd" >"$tmp/cmd.syms"
syms "$tmp/example" >"$tmp/example.syms"
syms "$tmp/bench" >"$tmp/bench.syms"

# Every top-level func declaration in the compiled non-test files:
# "symbol lines", where a method's symbol is pkg.(*T).M or pkg.T.M.
go list -f '{{$p := .ImportPath}}{{$d := .Dir}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./internal/... |
	while read -r pkg file; do
		awk -v pkg="${pkg#ptdft/internal/}" '
			/^\/\// { if (!doc) doc = FNR; next }
			!/^func / { doc = 0; next }
			{
				start = doc ? doc : FNR
				doc = 0
				s = $0
				sub(/^func /, "", s)
				recv = ""
				if (s ~ /^\(/) {
					match(s, /^\([^)]*\)/)
					nr = split(substr(s, 2, RLENGTH - 2), r, " ")
					t = r[nr]
					sub(/\[.*$/, "", t)
					recv = (t ~ /^\*/) ? "(" t ")." : t "."
					s = substr(s, RLENGTH + 1)
					sub(/^ +/, "", s)
				}
				match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
				name = substr(s, 1, RLENGTH)
				# Find the last line: parens balance at the end of the
				# signature; a body that opens there ends at the first
				# column-0 "}".
				depth = 0
				line = $0
				for (;;) {
					o = gsub(/\(/, "(", line)
					c = gsub(/\)/, ")", line)
					depth += o - c
					if (depth <= 0) break
					if ((getline line) <= 0) break
				}
				if (line ~ /\{[ \t]*$/)
					while ((getline line) > 0 && line !~ /^}/) {}
				if (name != "init" && name != "_")
					print pkg "." recv name, FNR - start + 1
			}' "$file"
	done | sort -k1,1 >"$tmp/decls"

# The unlinked declarations with their class: "class lines symbol".
awk 'FILENAME == ARGV[1] { cmd[$0] = 1; next }
	FILENAME == ARGV[2] { ex[$0] = 1; next }
	FILENAME == ARGV[3] { be[$0] = 1; next }
	!($1 in cmd) {
		class = ($1 in ex) ? "example" : ($1 in be) ? "bench" : "test"
		print class, $2, $1
	}' "$tmp/cmd.syms" "$tmp/example.syms" "$tmp/bench.syms" "$tmp/decls" >"$tmp/found"

awk '{ n[$1]++; l[$1] += $2; N++; L += $2 }
	END {
		printf "reach: %d functions / %d lines under internal/ that no command links", N, L
		sep = " ("
		for (c = 1; c <= 3; c++) {
			k = c == 1 ? "bench" : c == 2 ? "example" : "test"
			printf "%s%s %d/%d", sep, k, n[k], l[k]
			sep = ", "
		}
		print ")"
	}' "$tmp/found"

# The listed entries, without comments and blank lines.
grep -v '^[ \t]*\(#\|$\)' "$list" >"$tmp/listed" || true

fail=0
awk 'FILENAME == ARGV[1] { class[$3] = $1; lines[$3] = $2; next }
	{
		if ($3 in seen) { print "reach: " $3 " is listed twice"; bad = 1; next }
		seen[$3] = 1
		if (NF < 4) { print "reach: " $3 " has no reason"; bad = 1 }
		if (!($3 in class)) { print "reach: stale: " $3 " is linked by a command or declared nowhere"; bad = 1; next }
		if ($1 != class[$3]) { print "reach: " $3 " is listed as " $1 ", but is " class[$3]; bad = 1 }
		if ($2 != lines[$3]) { print "reach: " $3 " is listed with " $2 " lines, but has " lines[$3]; bad = 1 }
	}
	END {
		for (s in class) if (!(s in seen)) {
			print "reach: unlisted: " class[s] " " lines[s] " " s; bad = 1
		}
		exit bad
	}' "$tmp/found" "$tmp/listed" >&2 || fail=1

# A test entry's reason names the tests that reach it: "symbol identifier
# names...", each name declared in a _test.go file that uses the identifier.
find . -name '*_test.go' ! -path './.bench_build/*' >"$tmp/tests"
awk '$1 == "test" {
		id = $3
		sub(/^.*\./, "", id)
		names = ""
		for (i = 4; i <= NF; i++) {
			nw = split($i, w, /[^A-Za-z0-9_]+/)
			for (j = 1; j <= nw; j++)
				if (w[j] ~ /^(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*$/) names = names " " w[j]
		}
		print $3, id, names
	}' "$tmp/listed" >"$tmp/named"
while read -r sym id names; do
	if [ -z "$names" ]; then
		echo "reach: $sym: the reason names no Test, Benchmark or Fuzz function" >&2
		fail=1
	fi
	for t in $names; do
		files=$(xargs grep -l "^func $t(" <"$tmp/tests" || true)
		if [ -z "$files" ] || ! grep -qw "$id" $files; then
			echo "reach: $sym: $t is declared in no _test.go file that uses $id" >&2
			fail=1
		fi
	done
done <"$tmp/named"

if [ "$fail" -ne 0 ]; then
	echo "reach: $list does not match; the list above is what the build links" >&2
	exit 1
fi
echo "reach: every entry is listed in $list"
