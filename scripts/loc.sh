#!/usr/bin/env bash
# loc.sh prints the non-test Go line counts the change log quotes: the
# whole tree, the tree without the benchmark module (bench/), and each
# package under internal/ (a package's subpackages are counted on their
# own lines). Test files (*_test.go) are left out everywhere; smlint's
# fixture packages under cmd/smlint/testdata are counted with the tree.
# Assembly (.s) lines follow in a block of their own, for the tree and
# for each package that has any, so the Go counts stay comparable with
# those quoted before assembly was counted.
set -euo pipefail
cd "$(dirname "$0")/.."

# lines EXT DIR [FIND-ARGS...]: non-test lines of the *.EXT files find
# selects.
lines() {
	local ext=$1
	shift
	find "$@" -name "*.$ext" ! -name '*_test.go' -type f -print0 | xargs -0 cat | wc -l
}

# packages EXT: the directories under internal/ that hold non-test
# *.EXT files.
packages() {
	find internal -name "*.$1" ! -name '*_test.go' -type f -printf '%h\n' | sort -u
}

printf '%-32s %6d\n' 'tree' "$(lines go .)"
printf '%-32s %6d\n' 'tree without bench/' "$(lines go . -path ./bench -prune -o)"
packages go | while read -r dir; do
	printf '%-32s %6d\n' "$dir" "$(lines go "$dir" -maxdepth 1)"
done

echo
printf '%-32s %6d\n' 'assembly: tree' "$(lines s .)"
packages s | while read -r dir; do
	printf '%-32s %6d\n' "assembly: $dir" "$(lines s "$dir" -maxdepth 1)"
done
