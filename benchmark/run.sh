#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command does)
#   run.sh [--seed N] [--workload W] [--smoke] [--repeat K]  the whole set, see README.md
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/netsl-benchmark"
case " $* " in
  *" --trace "*) exec "$bin" --out-dir "$here/out" "$@" ;;
  *) exec python3 "$here/suite.py" --bin "$bin" "$@" ;;
esac
