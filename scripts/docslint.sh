#!/bin/sh
# docs-lint: every internal/ package must carry a package comment - a
# "// Package <name> ..." doc comment on a non-test file - stating what the
# package is for, and every cmd/ binary a "// Command <name> ..." comment
# stating what it does and how to invoke it. CI runs this on every PR; run
# it locally from the module root with: sh scripts/docslint.sh
set -u
fail=0
for d in internal/*/; do
	pkg=$(basename "$d")
	found=0
	for f in "$d"*.go; do
		case "$f" in
		*_test.go) continue ;;
		esac
		if grep -q "^// Package $pkg" "$f"; then
			found=1
			break
		fi
	done
	if [ "$found" -eq 0 ]; then
		echo "docs-lint: package $pkg ($d) has no '// Package $pkg' comment" >&2
		fail=1
	fi
done
for d in cmd/*/; do
	name=$(basename "$d")
	found=0
	for f in "$d"*.go; do
		case "$f" in
		*_test.go) continue ;;
		esac
		if grep -q "^// Command $name" "$f"; then
			found=1
			break
		fi
	done
	if [ "$found" -eq 0 ]; then
		echo "docs-lint: command $name ($d) has no '// Command $name' comment" >&2
		fail=1
	fi
done
# Every checked-in script must say how to run it: a self-referential
# "sh scripts/<name>" usage line in its header comment, so the scripts
# stay discoverable from the files themselves.
for f in scripts/*.sh; do
	name=$(basename "$f")
	if ! grep -q "sh scripts/$name" "$f"; then
		echo "docs-lint: script $f has no 'sh scripts/$name' usage line" >&2
		fail=1
	fi
done
# Every example runs in CI: each examples/<name>/ directory needs a
# "go run ./examples/<name>" line in the CI workflow, so a walkthrough that
# stops building or stops printing its numbers fails a PR.
for d in examples/*/; do
	name=$(basename "$d")
	if ! grep -Eq "go run \./examples/$name( |\$)" .github/workflows/ci.yml; then
		echo "docs-lint: example $name has no 'go run ./examples/$name' step in .github/workflows/ci.yml" >&2
		fail=1
	fi
done
# Every word of a go test -run pattern in the CI workflow names a test a
# _test.go file declares, as a prefix (TestCrash covers TestCrashAfterCalls),
# so a renamed or deleted test cannot leave a CI step selecting nothing.
for word in $(grep -o "\-run '[^']*'" .github/workflows/ci.yml | sed "s/^-run '//; s/'\$//" | tr -c 'A-Za-z0-9_\n' ' '); do
	if ! git grep -q "^func $word" -- '*_test.go'; then
		echo "docs-lint: .github/workflows/ci.yml: -run word $word names no test in a _test.go file" >&2
		fail=1
	fi
done
# Docs name only what exists. In README.md, DESIGN.md and the verify skill
# (.claude/skills/verify/SKILL.md, the build-and-run notes), every exported
# CamelCase name (upper-case first letter, a lower-case letter, no "_")
# inside backticks must be found by git grep -w in the Go sources (*.go,
# *.s), whether it stands bare (`GroundState`), qualified by a package under
# internal/ or cmd/ (`fock.Operator.Apply`: Operator and Apply are
# checked) or by another exported name (`Recorder.Coverage`). A trailing *
# (`TestDistributed*`), like a word of a go test -run pattern, names a
# family, found as a substring. Exempt: fenced code blocks,
# sections whose heading starts with "Removed", and names qualified by any
# other package (`sync.Map`); MPI (`MPI_Comm_split`) and mnemonic (`MULSD`)
# names fall outside the pattern. bench/README.md is not linted: bench/ is
# the benchmark's tree and changes only together with it.
pkgs=$(ls internal cmd | tr '\n' ' ')
missing=$(awk -v pkgs="$pkgs" '
	BEGIN { n = split(pkgs, p, " "); for (i = 1; i <= n; i++) pkg[p[i]] = 1 }
	FNR == 1 { fence = 0; removed = 0; open = 0 }
	/^```/ { fence = !fence; next }
	fence { next }
	/^#/ { removed = ($0 ~ /^#+[ \t]*Removed/); open = 0 }
	removed { next }
	/^[ \t]*$/ { open = 0; next }
	{
		# Inline code may wrap lines within a paragraph: the text between
		# the k-th and (k+1)-th backtick is code when "open" is set.
		n = split($0, part, "`")
		for (i = 1; i <= n; i++) {
			if (i > 1) open = !open
			if (open) names(part[i])
		}
	}
	function names(code,    arg, w, nw, j, c, nc, k, bare) {
		# A go test -run/-bench/-fuzz argument is a regexp: each word in
		# it names a family of tests, like a trailing *.
		while (match(code, /-(run|bench|fuzz)[ =]+[^ ]+/)) {
			arg = substr(code, RSTART, RLENGTH)
			sub(/^-[a-z]+[ =]+/, "", arg)
			gsub(/[^A-Za-z0-9_]+/, "* ", arg)
			code = substr(code, 1, RSTART - 1) " " arg "* " substr(code, RSTART + RLENGTH)
		}
		gsub(/[^A-Za-z0-9_.*\/-]/, " ", code)
		nw = split(code, w, " ")
		for (j = 1; j <= nw; j++) {
			if (w[j] !~ /^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\*?$/) continue
			nc = split(w[j], c, ".")
			if (nc > 1 && c[1] ~ /^[a-z]/ && !(c[1] in pkg)) continue
			for (k = 1; k <= nc; k++) {
				bare = c[k]
				sub(/\*$/, "", bare)
				if (bare ~ /^[A-Z]/ && bare ~ /[a-z]/ && bare !~ /_/)
					print FILENAME ":" FNR ":" c[k]
			}
		}
	}' README.md DESIGN.md .claude/skills/verify/SKILL.md | while IFS=: read -r doc line name; do
	case "$name" in
	*\*) git grep -qF "${name%\*}" -- '*.go' '*.s' ;;
	*) git grep -qw "$name" -- '*.go' '*.s' ;;
	esac || echo "docs-lint: $doc:$line: \`$name\` names nothing in the Go sources"
done)
if [ -n "$missing" ]; then
	echo "$missing" >&2
	fail=1
fi
if [ "$fail" -eq 0 ]; then
	echo "docs-lint: all internal packages, commands and scripts documented; docs name only existing Go identifiers"
fi
exit $fail
