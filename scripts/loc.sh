#!/usr/bin/env bash
# loc.sh prints the non-test Go line counts the change log quotes: the
# whole tree, the tree without the benchmark module (bench/), and each
# package under internal/ (a package's subpackages are counted on their
# own lines). Test files (*_test.go) are left out everywhere; smlint's
# fixture packages under cmd/smlint/testdata are counted with the tree.
set -euo pipefail
cd "$(dirname "$0")/.."

# lines DIR [FIND-ARGS...]: non-test .go lines of the files find selects.
lines() {
	find "$@" -name '*.go' ! -name '*_test.go' -type f -print0 | xargs -0 cat | wc -l
}

printf '%-32s %6d\n' 'tree' "$(lines .)"
printf '%-32s %6d\n' 'tree without bench/' "$(lines . -path ./bench -prune -o)"
find internal -name '*.go' ! -name '*_test.go' -type f -printf '%h\n' | sort -u |
	while read -r dir; do
		printf '%-32s %6d\n' "$dir" "$(lines "$dir" -maxdepth 1)"
	done
