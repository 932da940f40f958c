#!/bin/sh
# Non-test Go lines per package outside benchmark/ — the figure ROADMAP
# item 6 and every simplicity PR quote. Two columns per package: every
# line, and code lines (neither blank nor a whole-line // comment), so a
# reduction that is only deleted comments shows as one.
#
#   sh scripts/loc.sh                              every package, then the total
#   sh scripts/loc.sh internal/wal internal/core   only these, then their sum
set -eu
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
	set -- $(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' |
		sed 's|^\./||; s|/[^/]*$||; s|^[^/]*\.go$|.|' | sort -u)
fi

printf '%-28s %7s %7s\n' package lines code
total=0 totalcode=0
for pkg in "$@"; do
	# A package that does not exist (deleted, or not yet written) is a
	# zero row, so a before/after comparison can name it on both sides.
	files=$(find "$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go' 2>/dev/null || true)
	lines=0 code=0
	if [ -n "$files" ]; then
		lines=$(cat $files | wc -l)
		code=$(cat $files | grep -cv '^[[:space:]]*\(//.*\)\{0,1\}$' || true)
	fi
	printf '%-28s %7d %7d\n' "$pkg" "$lines" "$code"
	total=$((total + lines))
	totalcode=$((totalcode + code))
done
printf '%-28s %7d %7d\n' total "$total" "$totalcode"
