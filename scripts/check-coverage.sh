#!/bin/sh
# Enforces statement-coverage floors on the control-plane packages: the
# scheduler (drain mode, leases, forwarding) and the runtime instance
# (graceful stop, pool lifecycle). These are the packages whose
# failure modes only show up under rare interleavings — a coverage
# regression there means a lifecycle path went untested, which is exactly
# how drain/stop bugs ship. Floors sit ~5 points under today's numbers:
# tight enough to catch an untested new subsystem, loose enough that an
# unrelated refactor doesn't trip them.
set -eu
cd "$(dirname "$0")/.."

fail=0
check() {
    pkg=$1
    floor=$2
    line=$(go test -cover "./$pkg" 2>&1 | tail -1)
    case "$line" in
        ok*coverage:*) ;;
        *)
            echo "FAIL: $pkg: tests did not pass: $line"
            fail=1
            return
            ;;
    esac
    pct=$(echo "$line" | sed -E 's/.*coverage: ([0-9.]+)% of statements.*/\1/')
    # Integer compare on tenths, so the shell needs no float arithmetic.
    got=$(echo "$pct" | awk '{printf "%d", $1 * 10}')
    want=$(echo "$floor" | awk '{printf "%d", $1 * 10}')
    if [ "$got" -lt "$want" ]; then
        echo "FAIL: $pkg: coverage $pct% is below the $floor% floor"
        fail=1
    else
        echo "ok: $pkg: coverage $pct% (floor $floor%)"
    fi
}

check internal/sched 80
check internal/frt 80
check internal/queue 80
# wavm: the differential suite (lowered engine vs the reference interpreter)
# reaches 88.4%; an uncovered lowering rule or executor case is one that was
# never compared.
check internal/wavm 83
# The Faaslet lifecycle — reset image, in-place restore, page free list, call
# record lifetime, claim — is reuse of one tenant's sandbox by the next: an
# uncovered branch there is an isolation path nobody compared to a fresh
# Faaslet. (core's floor is low because two thirds of it is the host
# interface's POSIX surface.)
check internal/core 52
check internal/wamem 83
check internal/mbus 81
# The global tier: kvs is the wire command table (every command's parse,
# reply and retry class) and the engine; shardkvs the ring's quorum,
# failover, migration and heal paths.
check internal/kvs 85
check internal/shardkvs 74

[ "$fail" -eq 0 ] || exit 1
