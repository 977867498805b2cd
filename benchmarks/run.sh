#!/usr/bin/env bash
# grdbench, in one command: build guardiand (the repository's own release
# build) and the benchmark, then run it.
#
#   benchmarks/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
#   benchmarks/run.sh repeat [--sets 2] [--runs 5] [--workload W]
#   benchmarks/run.sh manifest            # prints BENCHMARK.json
#
# Without --workload all four run. Artifacts go to CARGO_TARGET_DIR if it
# is set (resolved against the caller's directory), else to the
# repository's own target/, so an existing release build is reused.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# cargo reports on stderr; stdout belongs to the benchmark's results.
cargo build --release --offline --manifest-path "$root/Cargo.toml" -p guardiand --bin guardiand 1>&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2

cd "$here"
GRDBENCH_DAEMON="$target/release/guardiand" exec "$target/release/grdbench" "$@"
