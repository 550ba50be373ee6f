#!/usr/bin/env bash
# Non-test line count per crate under crates/, the unit the ROADMAP's
# "least code" aim counts in.
#
#   scripts/loc.sh     # one "<crate> <lines>" row per crate, then the total
#
# Every line of each crates/<name>/src/**/*.rs file counts, blank and
# comment lines included, up to the first `#[cfg(test)]` attribute that
# (past any further attributes) opens an inline `mod ... {` — the
# file's unit-test module. A `#[cfg(test)]` on a field, a statement or
# a function does not cut the file. A file that a
# `#[cfg(test)] mod name;` declaration pulls in counts nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

# Lines of "$1" before its unit-test module (all of them without one).
count() {
    awk '
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { cut = NR; next }
        cut && /^[[:space:]]*#\[/ { next }
        cut && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+[[:space:]]*\{/ {
            print cut - 1
            found = 1
            exit
        }
        { cut = 0 }
        END { if (!found) print NR }
    ' "$1"
}

# Base names of the files "$1"/src declares as `#[cfg(test)] mod name;`.
test_files() {
    { grep -rh -A1 '^[[:space:]]*#\[cfg(test)\][[:space:]]*$' "$1/src" || true; } |
        sed -n 's/^[[:space:]]*\(pub \)\{0,1\}mod \([A-Za-z0-9_]*\);.*/\2.rs/p'
}

total=0
for dir in crates/*/; do
    dir=${dir%/}
    skip=" $(test_files "$dir" | tr '\n' ' ') "
    lines=0
    while IFS= read -r f; do
        case "$skip" in *" $(basename "$f") "*) continue ;; esac
        lines=$((lines + $(count "$f")))
    done < <(find "$dir/src" -name '*.rs' | sort)
    printf '%-14s %6d\n' "$(basename "$dir")" "$lines"
    total=$((total + lines))
done
printf '%-14s %6d\n' total "$total"
