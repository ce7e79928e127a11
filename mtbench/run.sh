#!/usr/bin/env bash
# Builds the released `mtperf` binary and the benchmark binary from source,
# then runs one benchmark workload. Run from the repository root:
#
#   bash mtbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Workloads: paper_pipeline, serve_batch, serve_whatif, fleet_batch.
# The last line of stdout is the JSON result; see mtbench/README.md.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p mtperf --bin mtperf
cargo build --release --offline --quiet --manifest-path mtbench/Cargo.toml
exec "$target/release/mtbench" --mtperf "$target/release/mtperf" --work-dir "$target/mtbench-work" "$@"
