#!/usr/bin/env bash
# Regenerates csbench/golden.tsv from the program's own CLI: the digests of
# what `repro` prints (and, for main_observed, writes) for each workload at
# the canonical seed and the held-out seed. Run from the repository root:
#
#   bash csbench/golden.sh > csbench/golden.tsv
#
# A change that alters these outputs on purpose regenerates the file and
# says why; the benchmark counts every mismatch as a failed check.
set -euo pipefail

cargo build --release --offline --quiet -p csprov-bench --bin repro >&2
repro="${CARGO_TARGET_DIR:-target}/release/repro"
work=".csbench_out/golden"
rm -rf "$work"
mkdir -p "$work"

digest() { sha256sum "$1" | cut -d' ' -f1; }

printf '# workload\tseed\tartifact\tsha256\n'
for seed in 2002 8675309; do
    "$repro" --seed "$seed" --hours 1 main > "$work/main.txt" 2>/dev/null
    printf 'main_trace\t%s\tstdout\t%s\n' "$seed" "$(digest "$work/main.txt")"

    "$repro" --seed "$seed" nat > "$work/nat.txt" 2>/dev/null
    printf 'nat_map\t%s\tstdout\t%s\n' "$seed" "$(digest "$work/nat.txt")"

    "$repro" --seed "$seed" --fleet 8 --fleet-minutes 15 \
        --fleet-state-dir "$work/state-$seed" > "$work/fleet.txt" 2>/dev/null
    "$repro" fleet merge "$work/merged.txt" "$work/state-$seed"/*.state > "$work/merge.txt" 2>/dev/null
    # `fleet merge` prints the same block without the leading blank line.
    if ! cmp -s <(tail -n +2 "$work/fleet.txt") "$work/merge.txt"; then
        echo "error: fleet merge output differs from the in-process fleet (seed $seed)" >&2
        exit 1
    fi
    printf 'fleet_facility\t%s\tstdout\t%s\n' "$seed" "$(digest "$work/fleet.txt")"

    obs="$work/observed-$seed"
    mkdir -p "$obs"
    "$repro" --seed "$seed" --hours 1 main --trace-out "$obs/trace.json" \
        --series-out "$obs/series" --profile-out "$obs/profile" > "$work/observed.txt" 2>/dev/null
    printf 'main_observed\t%s\tstdout\t%s\n' "$seed" "$(digest "$work/observed.txt")"
    printf 'main_observed\t%s\ttrace.main.json\t%s\n' "$seed" "$(digest "$obs/trace.main.json")"
    printf 'main_observed\t%s\tseries/main.csv\t%s\n' "$seed" "$(digest "$obs/series/main.csv")"
done
rm -rf "$work"
