#!/usr/bin/env bash
# Builds wsn-serve and the benchmark into one target directory (so the
# benchmark finds the server next to itself), then runs the benchmark with
# the given arguments. Run it from the repository root; the target
# directory is $CARGO_TARGET_DIR, by default .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../../../../.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
# Cargo's progress goes to stderr; stdout is the benchmark's alone.
cargo build --offline --release --quiet --manifest-path "$root/Cargo.toml" \
    -p wsn-server --bin wsn-serve 1>&2
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
