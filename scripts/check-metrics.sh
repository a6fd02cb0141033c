#!/bin/sh
# Enforces the metric naming conventions (docs/ARCHITECTURE.md,
# "Observability") on every registration site, so a series cannot land that
# the obsv registry would reject at runtime — or worse, one that it would
# accept but that breaks the fleet-wide naming scheme:
#
#   faasm_<subsystem>_<noun>[_<unit>][_total]   lower-snake throughout
#   counters end in _total                       (CounterFunc/Counter)
#   gauges and histograms never end in _total
#
# The registry panics on malformed names; this check catches them at CI
# time, before any process has to start, and covers conventions the
# runtime cannot see (e.g. a gauge misnamed *_total parses fine but lies
# to every Prometheus rate() query).
set -eu
cd "$(dirname "$0")/.."

fail=0

# Every quoted faasm_* name at a registration call site, one per line as
# "file:kind:name".
# Test files are excluded: the obsv tests deliberately register
# convention-violating names to pin the registry's own enforcement.
sites=$(grep -rnoE '\.(Counter|CounterFunc|Gauge|GaugeFunc|Histogram)\("faasm_[a-z0-9_]*"' \
    --include='*.go' --exclude='*_test.go' internal cmd \
    | sed -E 's/^([^:]+):([0-9]+):\.([A-Za-z]+)\("([a-z0-9_]*)"/\1:\3:\4/') || true

if [ -z "$sites" ]; then
    echo "FAIL: no metric registrations found (check-metrics.sh patterns stale?)"
    exit 1
fi

echo "$sites" | while IFS=: read -r file kind name; do
    case "$name" in
        faasm_[a-z]*_*) ;;
        *)
            echo "FAIL: $file: $name must match faasm_<subsystem>_<noun>"
            ;;
    esac
    case "$kind" in
        Counter|CounterFunc)
            case "$name" in
                *_total) ;;
                *) echo "FAIL: $file: counter $name must end in _total" ;;
            esac
            ;;
        Gauge|GaugeFunc|Histogram)
            case "$name" in
                *_total) echo "FAIL: $file: $kind $name must not end in _total" ;;
            esac
            ;;
    esac
done > /tmp/check-metrics-out
if grep -q FAIL /tmp/check-metrics-out; then
    cat /tmp/check-metrics-out
    exit 1
fi

# Required series: the shard-health metrics the failure-model docs and the
# chaos gate rely on must stay registered under these exact names — and the
# call table's live-record gauge, which is how an operator sees the records'
# lifetime policy hold (flat between requests, whatever the uptime).
for required in \
    faasm_shardkvs_failovers_total \
    faasm_shardkvs_replica_divergence_total \
    faasm_shardkvs_repairs_total \
    faasm_shardkvs_suspect_shards \
    faasm_sched_locality_hits_total \
    faasm_sched_locality_misses_total \
    faasm_sched_locality_saved_bytes_total \
    faasm_autoscale_hosts \
    faasm_autoscale_scale_ups_total \
    faasm_autoscale_scale_downs_total \
    faasm_autoscale_drains_total \
    faasm_autoscale_restarts_total \
    faasm_queue_depth \
    faasm_queue_enqueued_total \
    faasm_queue_redelivered_total \
    faasm_queue_dead_lettered_total \
    faasm_mbus_calls_live; do
    if ! echo "$sites" | grep -q ":$required\$"; then
        echo "FAIL: required metric $required is not registered anywhere"
        fail=1
    fi
done
[ "$fail" -eq 0 ] || exit 1

count=$(echo "$sites" | wc -l | tr -d ' ')
echo "metrics conventions: $count registration sites clean"
