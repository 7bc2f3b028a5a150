#!/usr/bin/env bash
# Builds the csprov benchmark from source and runs one workload:
#
#   bash csbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Cargo output goes to stderr; the last line
# of stdout is the JSON result. `--trace 1` runs the traced binary (span
# recorder plus counting allocator); `--trace 0` runs the plain one, which
# keeps the system allocator.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
target="${CARGO_TARGET_DIR:-$here/target}"

bin=csbench
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=csbench-traced
    fi
    prev="$arg"
done
exec "$target/release/$bin" "$@"
