#!/usr/bin/env bash
# Public functions that nothing outside test code names.
#
#   scripts/unreached.sh
#
# Prints one `file name` line for each `pub fn` in crates/*/src whose name
# appears nowhere outside test code, then exits 0: a report, not a gate.
# References are searched in every crate's src/, in benchmark/src and in
# examples/. Test code is every `#[cfg(test)]` item (a `mod tests { ... }`
# block, or a whole file pulled in by `#[cfg(test)] mod name;`), and the
# tests/ and benches/ directories, which are not searched at all.
#
# The match is by name and ignores `//` comments, so a function that
# shares its name with one that is called counts as reached: the list is
# a lower bound on what only tests reach.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Files a `#[cfg(test)] mod name;` declaration pulls in.
cfg_test_files() {
    awk '
        prev ~ /^[[:space:]]*#\[cfg\(test\)\]/ && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
            name = $0
            sub(/^[[:space:]]*(pub(\([a-z]+\))? )?mod /, "", name)
            sub(/;.*/, "", name)
            dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
            stem = FILENAME; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
            if (stem == "lib" || stem == "main" || stem == "mod") print dir "/" name ".rs"
            else print dir "/" stem "/" name ".rs"
        }
        { prev = $0 }' "$@"
}

# A source file without its `#[cfg(test)]` items and `//` comments.
strip_tests() {
    awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        skip {
            o = gsub(/\{/, "{"); c = gsub(/\}/, "}")
            depth += o - c
            if (o > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && /;[[:space:]]*$/)) skip = 0
            next
        }
        { sub(/\/\/.*/, ""); print }' "$1"
}

mapfile -t crate_src < <(find crates -path '*/src/*' -name '*.rs' | sort)
[ "${#crate_src[@]}" -gt 0 ] || exit 0
cfg_test_files "${crate_src[@]}" | sort -u >"$work/test_files"

: >"$work/defs"
for f in "${crate_src[@]}"; do
    grep -qxF "$f" "$work/test_files" && continue
    strip_tests "$f" >"$work/body"
    cat "$work/body" >>"$work/corpus"
    grep -oE '^[[:space:]]*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*' "$work/body" |
        sed -E "s|.*fn |$f |" >>"$work/defs" || true
done
while IFS= read -r f; do
    strip_tests "$f" >>"$work/corpus"
done < <(find benchmark/src examples -name '*.rs' 2>/dev/null | sort)

# Word counts, and how many of them are a `fn NAME` definition.
grep -oE '[A-Za-z_][A-Za-z0-9_]*' "$work/corpus" | sort | uniq -c |
    awk '{ print $2, $1 }' >"$work/uses"
grep -oE '\bfn [A-Za-z_][A-Za-z0-9_]*' "$work/corpus" | sed 's/^fn //' | sort | uniq -c |
    awk '{ print $2, $1 }' >"$work/fn_defs"

awk '
    FILENAME == ARGV[1] { uses[$1] = $2; next }
    FILENAME == ARGV[2] { defs[$1] = $2; next }
    { if (uses[$2] - defs[$2] <= 0) print $1, $2 }
' "$work/uses" "$work/fn_defs" "$work/defs" | sort
exit 0
