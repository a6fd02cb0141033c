#!/bin/sh
# Prints the non-test Go line count outside bench/ (the benchmark harness,
# its own module), per top-level directory ("." is the repo root's own
# files) and in total: the size figure the subtraction work tracks from
# change to change.
#
#	sh scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

find . \( -path ./bench -o -path ./.git \) -prune -o -name '*.go' ! -name '*_test.go' -print |
while read -r f; do
    echo "$(wc -l < "$f") $f"
done |
awk '{
    split($2, p, "/")
    dir = (p[3] == "" ? "." : p[2])
    n[dir] += $1
    total += $1
}
END {
    for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"
    close("sort -k2")
    printf "%7d total\n", total
}'
