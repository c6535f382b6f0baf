#!/usr/bin/env bash
# Fails if any test, benchmark or fuzz target named in a -run / -bench /
# -fuzz pattern of .github/workflows/ci.yml no longer exists in the
# packages that command runs: a renamed, moved or deleted test makes
# `go test -run 'A|B' ./pkg/` match nothing and pass, so a gate would
# silently fall out of CI. Each pattern is expanded into its
# alternatives (top-level `|`, and `(A|B)` groups), and every one must
# match a name `go test -list '.*'` prints for the command's packages.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# expand PATTERN prints one group-free alternative per line.
expand() {
	local p=$1 depth=0 i c open=-1 alt=
	# Split on `|` outside parentheses first.
	for ((i = 0; i < ${#p}; i++)); do
		c=${p:i:1}
		[[ $c == '(' ]] && depth=$((depth + 1))
		[[ $c == ')' ]] && depth=$((depth - 1))
		if [[ $c == '|' && $depth -eq 0 ]]; then
			expand "${p:0:i}"
			expand "${p:i+1}"
			return
		fi
	done
	# No top-level `|`: distribute the first group, if any.
	for ((i = 0; i < ${#p}; i++)); do
		c=${p:i:1}
		if [[ $c == '(' ]]; then
			[[ $depth -eq 0 ]] && open=$i
			depth=$((depth + 1))
		elif [[ $c == ')' ]]; then
			depth=$((depth - 1))
			if [[ $depth -eq 0 ]]; then
				while read -r alt; do
					expand "${p:0:open}${alt}${p:i+1}"
				done < <(expand "${p:open+1:i-open-1}")
				return
			fi
		fi
	done
	printf '%s\n' "$p"
}

declare -A listed # package arguments → the names they define
missing=0
# One `go test` command per line: commands chained with && are split.
while read -r cmd; do
	pkgs=$(tr ' ' '\n' <<<"$cmd" | grep -E '^\.(/|$)' | sort -u | tr '\n' ' ')
	[[ -n ${listed[$pkgs]+x} ]] || listed[$pkgs]=$(go test -list '.*' $pkgs | grep -E '^(Test|Benchmark|Fuzz|Example)')
	while read -r pattern; do
		[[ $pattern == '^$' ]] && continue # "run no tests", beside -bench / -fuzz
		while read -r alt; do
			if ! grep -Eq -- "$alt" <<<"${listed[$pkgs]}"; then
				echo "ci.yml names '$alt' (in '$pattern'), which ${pkgs}does not define" >&2
				missing=1
			fi
		done < <(expand "$pattern")
	done < <(grep -oE -- "-(run|bench|fuzz)[= ]'?[^' ]+" <<<"$cmd" | sed -E "s/^-(run|bench|fuzz)[= ]'?//")
done < <(sed 's/&&/\n/g' .github/workflows/ci.yml | grep -E "go test .*-(run|bench|fuzz)[= ]")

exit $missing
