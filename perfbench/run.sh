#!/usr/bin/env bash
# Builds typedtd-sockd and the benchmark from this checkout, then runs one
# benchmark run:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout. Build output goes to
# $CARGO_TARGET_DIR (default: target); histories, reference answers,
# sockets and span files go to its perfbench/ subdirectory. The last line
# of standard output is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/Cargo.toml" || ! -f "$root/crates/service/Cargo.toml" ]]; then
    echo "perfbench: $root is not a typedtd checkout (no Cargo.toml or crates/service)" >&2
    exit 2
fi
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"

cargo build --offline --release --quiet -p typedtd-service --bin typedtd-sockd >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$target/release/typedtd-perfbench" \
    --sockd "$target/release/typedtd-sockd" \
    --work "$target/perfbench" \
    --root "$root" \
    "$@"
