#!/usr/bin/env bash
# The one command of the repo benchmark: builds the package offline and
# hands every argument to it. See README.md beside this file.
#
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1   one run
#   benchmark/run.sh [--seed S] [--threads T] [--quick] [--out FILE] all workloads
#   benchmark/run.sh --agree A.json B.json                           compare
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(dirname "$here")"
# A driver may point CARGO_TARGET_DIR somewhere of its own; otherwise
# build outputs stay inside this package.
target="${CARGO_TARGET_DIR:-$here/target}"

if ! command -v cargo >/dev/null 2>&1; then
    echo "benchmark: cargo is not on PATH" >&2
    exit 2
fi
if ! cargo build --quiet --release --offline \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2; then
    echo "benchmark: the offline build failed (the package needs ../crates and ../vendor of the repo it sits in)" >&2
    exit 2
fi

export BGA_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BGA_BENCH_COMMIT="$(git -C "$repo" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$target/release/bga-benchmark" \
    --out-dir "$here/out" --spec "$repo/BENCHMARK.json" "$@"
