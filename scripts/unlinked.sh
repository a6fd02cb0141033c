#!/bin/sh
# The linked-code census: builds every binary (the commands, the examples
# and the bench/ harness) with inlining off, so a function called only from
# inlined sites still shows as its own symbol, reads their symbols with
# `go tool nm`, and lists each non-test function of the module that none of
# them links (scripts/unlinked/main.go). Fails on an unlinked function that
# scripts/unlinked.allow does not name with a reason, and on an allow entry
# that is linked again or no longer exists, so the list only shrinks.
#
#	sh scripts/unlinked.sh
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

pkgs=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...)
go build -gcflags=all=-l -o "$tmp/" $pkgs
go build -C bench -gcflags=all=-l -o "$tmp/bench-harness" .

set -- "faasm.dev/faasm/bench=$tmp/bench-harness.nm"
go tool nm "$tmp/bench-harness" > "$tmp/bench-harness.nm"
for pkg in $pkgs; do
    bin="$tmp/${pkg##*/}"
    go tool nm "$bin" > "$bin.nm"
    set -- "$@" "$pkg=$bin.nm"
done
go run ./scripts/unlinked -allow scripts/unlinked.allow "$@"
