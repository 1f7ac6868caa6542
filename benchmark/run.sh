#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark package from
# source (offline, into CARGO_TARGET_DIR if the caller set one), then hand
# every argument to the `bench` binary.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh run --seed <n> [--quick]
#   bash benchmark/run.sh agree <a.json> <b.json>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins
exec "$target/release/bench" "$@"
