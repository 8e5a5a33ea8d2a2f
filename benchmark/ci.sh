#!/usr/bin/env bash
# Build the benchmark, run its unit tests, then a smoke run of the timed and
# the traced suite, and check both result files against BENCHMARK.json
# (every declared workload and metric present, units as declared, no failed
# operation). Takes about a minute after the first build. Nothing calls this
# yet; a later PR can add it to .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
flexbench() {
    cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
}

cargo build --release --offline --manifest-path "$manifest"
cargo test --offline --manifest-path "$manifest"

flexbench run --smoke --out benchmark/work/ci-end_to_end.json
flexbench check --result benchmark/work/ci-end_to_end.json
flexbench trace --smoke --out benchmark/work/ci-per_layer.json
flexbench check --result benchmark/work/ci-per_layer.json
echo "benchmark/ci.sh: ok"
