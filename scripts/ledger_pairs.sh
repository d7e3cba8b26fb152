#!/usr/bin/env bash
# Alternating parent/change pairs of the perf ledger, as one command.
#
#   scripts/ledger_pairs.sh <parent-checkout> [first-seed] [workload...]
#
# Run it from inside the change's checkout: the change is the git work
# tree holding the working directory, so the script also runs when piped
# through `bash -s --`. It copies the files git knows in <parent-checkout>
# and in the change (tracked, plus untracked ones that are not ignored)
# into two fresh directories whose paths have equal length, builds the
# ledger in each with its own target directory, then runs PAIRS
# alternating pairs per workload (all of BENCHMARK.json's by default) at
# seeds first-seed, first-seed + 1, ... (4 unless a number follows the
# parent checkout; a claim's rerun on unused seeds passes 14): pair k runs
# the parent first when k is even and the change first when it is odd. Every run is the driver's form, `benchmark/run.sh --workload W
# --seed S --seconds 8 --trace 0`, a process of its own.
#
# Standard output is one JSON document: the `side: "pairs"` record of
# results/BENCH_e2e.json, less the `pr` and `note` its author adds. Per
# workload and end-to-end metric it gives each side's median, q1, q3,
# inter-quartile range and runs, and the pairs the change won; ops_per_s
# also appears raw (`raw_ops_per_s`, before the ledger scales it by its
# host-speed probe) and with each run's probe slowdown, so a delta can be
# read against the spread it sits in. A workload's extra rates (such as
# `dispatch-mt.one_caller_ops_per_s`) are reported the same way, higher
# being better. Progress goes to standard error.
set -euo pipefail

PAIRS=10
FIRST_SEED=4
SECONDS_PER_RUN=8

if [ $# -lt 1 ] || [ ! -f "$1/benchmark/run.sh" ]; then
    echo "usage: $0 <parent-checkout> [first-seed] [workload...]" >&2
    exit 2
fi
here="$(git rev-parse --show-toplevel)"
parent="$(cd "$1" && pwd)"
shift
if [ $# -gt 0 ] && [[ $1 =~ ^[0-9]+$ ]]; then
    FIRST_SEED=$1
    shift
fi
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
# Each side builds into its own target directory.
unset CARGO_TARGET_DIR

if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' "$here/BENCHMARK.json")
fi

# Both names are six characters, so both trees sit at equally long paths.
for side in parent change; do
    case $side in
        parent) src="$parent" ;;
        change) src="$here" ;;
    esac
    mkdir -p "$work/$side"
    (cd "$src" && git ls-files -co --exclude-standard -z | tar -cf - --null -T -) |
        tar -xf - -C "$work/$side"
    echo "building $side ($src)" >&2
    CARGO_TARGET_DIR="$work/$side/target" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/benchmark/Cargo.toml" 1>&2
done

mkdir -p "$work/out"
for w in "${workloads[@]}"; do
    for ((k = 0; k < PAIRS; k++)); do
        seed=$((FIRST_SEED + k))
        if ((k % 2 == 0)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            echo "$w seed $seed: $side" >&2
            (cd "$work/$side" && benchmark/run.sh --workload "$w" --seed "$seed" \
                --seconds "$SECONDS_PER_RUN" --trace 0) >"$work/out/$w.$seed.$side" 2>/dev/null || true
        done
    done
done

python3 - "$work/out" "$parent" "$here" "$PAIRS" "$FIRST_SEED" "$SECONDS_PER_RUN" "${workloads[@]}" <<'EOF'
import json, os, platform, statistics, subprocess, sys

out, parent, here, pairs, first, secs = sys.argv[1:7]
workloads = sys.argv[7:]
pairs, first = int(pairs), int(first)
seeds = list(range(first, first + pairs))
higher_is_better = {"ops_per_s": True, "raw_ops_per_s": True, "setup_s": False, "peak_rss_mb": False}

def record(w, seed, side):
    path = os.path.join(out, f"{w}.{seed}.{side}")
    for line in open(path):
        if line.startswith("record "):
            return json.loads(line[len("record "):])
    sys.exit(f"{path}: no ledger record (the run failed before its report)")

def stats(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": runs}

def git(root, *args):
    return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True).stdout.strip()

def value(rec, metric):
    if metric == "raw_ops_per_s":
        return statistics.median(n / s for n, s in zip(rec["lap_ops"], rec["lap_s"]))
    if metric in rec["extras"]:
        return rec["extras"][metric]["value"]
    return rec["metrics"][metric]["value"]

doc_workloads = {}
for w in workloads:
    recs = {side: [record(w, s, side) for s in seeds] for side in ("parent", "change")}
    entry = {}
    extras = {name: True for name in recs["parent"][0]["extras"]}
    for metric, higher in {**higher_is_better, **extras}.items():
        p = [value(r, metric) for r in recs["parent"]]
        c = [value(r, metric) for r in recs["change"]]
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        entry[metric] = {"seeds": seeds, "parent": stats(p), "change": stats(c),
                         "change_wins": wins, "pairs": pairs}
    entry["probe_slowdown"] = {side: [r["host_speed"]["slowdown"] for r in recs[side]]
                               for side in ("parent", "change")}
    entry["ops_failed"] = sum(r["ops_failed"] for side in recs.values() for r in side)
    entry["all_laps_correct"] = all(r["correct"] for side in recs.values() for r in side)
    doc_workloads[w] = entry

cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")),
           platform.processor())
doc = {
    "bench": "e2e",
    "side": "pairs",
    "command": f"scripts/ledger_pairs.sh: benchmark/run.sh --workload W --seed S --seconds {secs} "
               f"--trace 0, {pairs} pairs at seeds {seeds[0]}-{seeds[-1]}, parent first on even "
               "pairs; both sides copied into fresh directories of equal path length and built there",
    "host": {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip(),
    },
    "parent_git_sha": git(parent, "rev-parse", "HEAD"),
    "change_git_sha": git(here, "rev-parse", "HEAD"),
    "change_git_dirty": bool(git(here, "status", "--porcelain")),
    "workloads": doc_workloads,
}
print(json.dumps(doc))
EOF
