#!/usr/bin/env bash
# "Byte-identical to the parent" as one command.
#
#   scripts/byte_identical.sh <other-checkout>
#
# Builds this checkout and <other-checkout> (--release --offline), produces
# the same deterministic output set from each, `cmp`s the two sets and
# prints one line per file. Exits nonzero on any difference.
#
# The set is what a behaviour-preserving PR promises not to move:
#   * table2 on both backends (CSV and stdout);
#   * every CSV fig2, fig6, fig7 and sched_tail write at SYRUP_SCALE=0.05;
#   * the quickstart syrupctl reports (prog stats, metrics, trace report,
#     profile report, map dump, queue list, profile pressure as JSON;
#     profile flame; the blackbox record --inject-burn bundle), each under
#     --backend {interp,fast} x {plain,--ranked}.
#
# The harnesses write into the results/ of the checkout above their cwd or
# their executable, and results/ is tracked, so each side's binaries are
# copied out and run from a scratch directory: neither checkout changes.
set -euo pipefail

if [ $# -ne 1 ] || [ ! -f "$1/Cargo.toml" ]; then
    echo "usage: $0 <other-checkout>" >&2
    exit 2
fi
here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
other="$(cd "$1" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

bins=(table2 fig2 fig6 fig7 sched_tail syrupctl)

# produce <checkout> <side>: leaves the output set in $work/<side>/out.
produce() {
    local root="$1" side="$work/$2"
    local target="${CARGO_TARGET_DIR:-$root/target}"
    mkdir -p "$side/bin" "$side/run" "$side/out"
    (cd "$root" && cargo build --release --offline --quiet -p bench -p syrup) 1>&2
    for b in "${bins[@]}"; do cp "$target/release/$b" "$side/bin/"; done
    (
        cd "$side/run"
        for backend in interp fast; do
            "$side/bin/table2" --backend "$backend" --out "table2.$backend.csv" \
                >"$side/out/table2.$backend.stdout"
        done
        export SYRUP_SCALE=0.05
        for fig in fig2 fig6 fig7 sched_tail; do "$side/bin/$fig" >/dev/null; done
        cp results/*.csv "$side/out/"

        ctl() { # ctl <name> <args...>: one report per backend x variant
            local name="$1" backend ranked
            shift
            for backend in interp fast; do
                for ranked in "" --ranked; do
                    "$side/bin/syrupctl" "$@" --backend "$backend" $ranked \
                        >"$side/out/ctl.$name.$backend${ranked:+.ranked}"
                done
            done
        }
        ctl prog-stats prog stats --json
        ctl metrics metrics --json
        ctl trace-report trace report --json
        ctl profile-report profile report --json
        ctl map-dump map dump --json
        ctl queue-list queue list --json
        ctl profile-pressure profile pressure --json
        ctl profile-flame profile flame
        ctl blackbox-bundle blackbox record --inject-burn
    )
    # Only the scratch path may differ between the sides.
    sed -i "s|$side/run|<checkout>|g" "$side"/out/*.stdout
}

produce "$here" this
produce "$other" other

status=0
for name in $(ls "$work/this/out" "$work/other/out" | grep -v ':$' | sort -u); do
    if [ ! -f "$work/this/out/$name" ] || [ ! -f "$work/other/out/$name" ]; then
        echo "MISSING    $name"
        status=1
    elif cmp -s "$work/this/out/$name" "$work/other/out/$name"; then
        echo "identical  $name"
    else
        echo "DIFFERENT  $name"
        status=1
    fi
done
exit $status
