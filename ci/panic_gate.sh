#!/usr/bin/env sh
# Panic gate: library code on the ingest and forwarding paths must not
# panic. Malformed trace input is an expected condition (skip-and-count or
# a typed error), so `unwrap`/`expect`/`panic!` and friends are banned from
# non-test code in the crates that touch foreign bytes.
#
# Scope: crates/net/src and crates/router/src (the net glob also covers
# the columnar batch module, crates/net/src/batch.rs), plus the fleet
# engine, its checkpoint codec, and the csprov-state/1 container layer
# (state files are foreign bytes: corruption must surface as typed
# StateError/CheckpointError values, shard failures as FleetError), the
# aggregate experiment, the journal hot path in crates/obs, and the
# columnar ingest pipeline: crates/core/src/pipeline.rs and the analyzers
# its columns run through (series, histogram, flows and hurst in
# crates/analysis) — excluding `#[cfg(test)]`
# modules (tests may unwrap freely). Binaries (crates/bench) are exempt —
# a CLI aborting with a message is fine; a library unwinding is not.
#
# Exits non-zero listing each offending line.

set -eu

cd "$(dirname "$0")/.."

PATTERN='\.unwrap\(\)|\.expect\(|panic!|unreachable!|todo!|unimplemented!'
status=0

for f in crates/net/src/*.rs crates/router/src/*.rs \
    crates/core/src/fleet/mod.rs crates/core/src/fleet/persist.rs \
    crates/core/src/fleet/coord.rs \
    crates/analysis/src/persist.rs \
    crates/analysis/src/series.rs crates/analysis/src/histogram.rs \
    crates/analysis/src/flows.rs crates/analysis/src/hurst.rs \
    crates/core/src/experiments/aggregate.rs \
    crates/core/src/pipeline.rs crates/obs/src/journal.rs; do
    # Strip everything from the first `#[cfg(test)]` onward: by repo
    # convention the test module is the final item in each file.
    hits=$(awk '/^#\[cfg\(test\)\]/ { exit } { print NR": "$0 }' "$f" \
        | grep -E "$PATTERN" || true)
    if [ -n "$hits" ]; then
        status=1
        echo "panic-prone construct in library path $f:" >&2
        echo "$hits" >&2
    fi
done

if [ "$status" -ne 0 ]; then
    echo "panic gate FAILED: use typed csprov_net::Error instead" >&2
else
    echo "panic gate OK: no unwrap/expect/panic! in net+router+fleet library code"
fi
exit "$status"
