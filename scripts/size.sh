#!/usr/bin/env sh
# Non-test Go lines per package: the one measure simplicity PRs quote
# before and after.  Every line of every *.go file that is not a
# *_test.go file counts, comments and blanks included, so the number
# cannot be moved by reformatting into denser lines without showing in
# review.  With arguments, only those package directories (relative to
# the repository root) are listed and totalled.
#
#   scripts/size.sh                               # every package
#   scripts/size.sh internal/frame internal/load  # two of them
set -eu

cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' \
        | sed 's|^\./||; s|/[^/]*$||; s|^[^/]*\.go$|.|' | sort -u)
fi

total=0
for pkg in "$@"; do
    n=$(find "$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
    printf '%6d  %s\n' "$n" "$pkg"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
