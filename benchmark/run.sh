#!/usr/bin/env bash
# The one command: build the ledger in release mode, then run it.
#
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--laps L]
#                    [--trace [0|1]] [--quick] [--out FILE] [--bless]
#   benchmark/run.sh compare A.json B.json
#
# Without --workload every workload runs, each in a process of its own;
# with it (the form BENCHMARK.json's driver uses) only that one, and the
# last line of standard output is its JSON result. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# An exported CARGO_TARGET_DIR is honoured as given (relative to where the
# caller stands, because the build runs from there); by default the
# repository's own ignored target/ is shared.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"

# The build log goes to standard error: standard output is the report.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

exec "$CARGO_TARGET_DIR/release/ledger" "$@"
