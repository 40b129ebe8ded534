#!/usr/bin/env bash
# Builds the benchmark and the `hsconas` CLI it drives from source, then
# runs one benchmark invocation with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload search --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Cargo's output goes to stderr, so the
# last stdout line is the benchmark's JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/perfbench" "$@"
