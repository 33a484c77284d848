#!/usr/bin/env bash
# The benchmark's one command: build the package, then run it.
#
#   benchmark/run.sh                 all five workloads, every end-to-end metric,
#                                    output checks, benchmark/out/results.json
#   benchmark/run.sh --trace 1       the per-layer ledger and trace-<workload>.json
#   benchmark/run.sh --aa            two sets on one build, compared to the bounds
#   benchmark/run.sh --smoke         every workload at 1/50 horizon, all checks on
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                    one workload; the last line is its JSON result
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# A relative CARGO_TARGET_DIR is taken from the repository root, as cargo
# itself would from here; the default shares the root's target/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/slbench" "$@"
