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
#   * table2 (CSV and stdout);
#   * every CSV the world-backed harnesses write at SYRUP_SCALE=0.05: fig2,
#     fig6, fig7, sched_tail (server_world), fig8 (mt_world), fig9 (mica),
#     ext_late_binding, ext_rfs, ext_storage and ablate_sockbuf - one
#     binary at least per simulation world (`table3` stays out: wall-clock);
#   * every deterministic syrupctl subcommand - stdout, stderr and exit
#     code in one file per invocation: the quickstart reports (prog list,
#     prog stats, queue list, map dump, map get, metrics in its four
#     forms, trace record/report, profile record/report/flame/pressure,
#     blackbox record/dump, watch) as text and as --json, each plain and
#     --ranked; hooks, demo, compile and
#     verify-asm on policies the script writes; trace validate and
#     blackbox report/validate on files it just recorded; and a table of
#     error paths (usage, unknown flags, bad numbers, missing values,
#     unreadable and unwritable paths, malformed bundles).
#   `top` stays out: its barrier-wait columns are wall-clock.
# That is 164 files.
#
# A PR that changes one of these on purpose lists the DIFFERENT lines it
# expects, with before and after, in CHANGES.md.
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

figs=(fig2 fig6 fig7 sched_tail fig8 fig9 ext_late_binding ext_rfs ext_storage ablate_sockbuf)
bins=(table2 "${figs[@]}" syrupctl)

# produce <checkout> <side>: leaves the output set in $work/<side>/out.
produce() {
    local root="$1" side="$work/$2"
    local target="${CARGO_TARGET_DIR:-$root/target}"
    mkdir -p "$side/bin" "$side/run" "$side/out"
    (cd "$root" && cargo build --release --offline --quiet -p bench -p syrup) 1>&2
    for b in "${bins[@]}"; do cp "$target/release/$b" "$side/bin/"; done
    (
        cd "$side/run"
        "$side/bin/table2" >"$side/out/table2.stdout"
        export SYRUP_SCALE=0.05
        for fig in "${figs[@]}"; do "$side/bin/$fig" >/dev/null; done
        cp results/*.csv "$side/out/"

        row() { # row <name> <args...>: stdout, stderr and exit code, one file
            local out="$side/out/ctl.$1" rc=0
            shift
            "$side/bin/syrupctl" "$@" >"$out" 2>"$out.stderr" || rc=$?
            { echo "--- stderr"; cat "$out.stderr"; echo "--- exit $rc"; } >>"$out"
            rm "$out.stderr"
        }
        ctl() { # ctl <name> <args...>: one row per variant
            local name="$1" ranked
            shift
            for ranked in "" --ranked; do
                row "$name${ranked:+.ranked}" "$@" $ranked
            done
        }
        for form in "" --json; do
            ctl "prog-list$form" prog list $form
            ctl "prog-stats$form" prog stats $form
            ctl "queue-list$form" queue list $form
            ctl "map-dump$form" map dump $form
            ctl "metrics$form" metrics $form
            ctl "metrics-shards$form" metrics --shards 4 $form
            ctl "trace-report$form" trace report $form
            ctl "profile-report$form" profile report $form
            ctl "profile-pressure$form" profile pressure $form
            ctl "blackbox-dump$form" blackbox dump $form
            ctl "watch$form" watch --requests 32 --interval 16 $form
        done
        ctl metrics-openmetrics metrics --openmetrics
        ctl map-get map get /syrup/1/__globals 0
        ctl trace-record trace record --requests 32 --sample 8
        ctl profile-record profile record
        ctl profile-flame profile flame
        ctl blackbox-bundle blackbox record --inject-burn
        ctl blackbox-manual blackbox record --trigger-manual --out manual.json

        printf '%s\n' 'uint32_t idx = 0;' \
            'uint32_t schedule(void *pkt_start, void *pkt_end) {' \
            '    idx++;' '    return idx % NUM_THREADS;' '}' >policy.c
        printf 'mov r0, 0\nexit\n' >ok.s
        printf 'mov r0, 0\n' >falls_off.s
        printf 'frob r0\n' >garbage.s
        printf '{}' >empty.json
        printf '{"traceEvents":[]}' >no_traces.json
        printf '{"postmortem":{}}' >no_layers.json
        row hooks hooks
        row demo demo
        row compile compile policy.c -D NUM_THREADS=4
        row verify-asm verify-asm ok.s
        row trace-export trace export trace.json
        row trace-validate trace validate trace.json
        row blackbox-record-out blackbox record --inject-burn --out bundle.json
        row blackbox-report blackbox report bundle.json
        row blackbox-validate blackbox validate bundle.json --min-layers 4

        # The error table, one invocation per line.
        while IFS= read -r args; do
            name="$(printf '%s' "${args:-no arguments}" | tr -cs 'a-zA-Z0-9' '-')"
            # shellcheck disable=SC2086
            row "err.$name" $args
        done <<'ERRORS'

frobnicate
prog
queue
map
trace
trace export
profile
blackbox
compile
compile --json
compile /nonexistent/policy.c
compile policy.c
compile policy.c -D
compile policy.c -D NUM
compile policy.c -D NUM=x
verify-asm
verify-asm /nonexistent/x.s
verify-asm falls_off.s
verify-asm garbage.s
prog list --frob x
prog list --backend interp
map get
map get /syrup/1/__globals
map get /syrup/1/__globals not-a-number
map get /not/pinned 0
map get /syrup/1/__globals 99
metrics --shards abc
metrics --shards 0
metrics --shards 99999999999999999999
metrics --json --shards
top --shards 0
top --frames 0
top --flows abc
top --flows abc --shards x
top --shards 0 --frames abc
top --flows 0
top --flows 5000000000
top --flows 10 --shards 11 --frames 1
trace record --requests zero
trace record --requests
trace record --sample x
trace record --scenario nope
trace record --export /nonexistent/dir/t.json
trace report --scenario nope
trace report --requests abc
trace validate
trace validate /nonexistent/trace.json
trace validate /dev/null
trace validate empty.json
trace validate no_traces.json
profile record --requests abc
profile record --flame-out /nonexistent/dir/f.folded
profile report --top abc
profile flame --requests x
profile flame --out /nonexistent/dir/f
profile flame --out
profile pressure --requests x
blackbox record --requests x
blackbox record --inject-burn --out /nonexistent/dir/b.json
blackbox dump --requests x
blackbox report
blackbox report --x
blackbox report /nonexistent/b.json
blackbox report /dev/null
blackbox report empty.json
blackbox validate
blackbox validate /nonexistent/b.json
blackbox validate /dev/null
blackbox validate empty.json
blackbox validate no_layers.json
blackbox validate trace.json
blackbox validate bundle.json --min-layers x
blackbox validate bundle.json --min-layers 9
watch --requests x
watch --interval x
watch --interval 0
ERRORS
    )
    # Only the scratch path may differ between the sides.
    sed -i "s|$side/run|<checkout>|g" "$side"/out/*.stdout "$side"/out/ctl.*
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
