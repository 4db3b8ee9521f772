#!/usr/bin/env bash
# Line census: workspace Rust outside the repo benchmark's directory, the
# figure every simplicity PR quotes, and its per-crate split. Beside each
# total, the production lines: those of `src/` files before a file's first
# `#[cfg(test)]` — no unit tests, no `tests/`, `benches/` or `examples/` —
# so a move from production into tests reads as a move, not a reduction.
# Informational: nothing here is a threshold.
set -euo pipefail
cd "$(dirname "$0")/.."

rs_files() {
    find "$@" -name '*.rs' -not -path '*/bin/benchmark/*' -print0
}

count() {
    rs_files "$@" | xargs -0 cat | wc -l
}

production() {
    local dirs=()
    for dir in "$@"; do
        [ -d "$dir/src" ] && dirs+=("$dir/src")
        [ "$dir" = src ] && dirs+=(src)
    done
    [ ${#dirs[@]} -eq 0 ] && { echo 0; return; }
    rs_files "${dirs[@]}" | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test { n++ }
        END { print n + 0 }'
}

printf '%-16s %6s %6s\n' '' total prod
for dir in crates/*/ src tests examples; do
    dir=${dir%/}
    printf '%-16s %6d %6d\n' "$dir" "$(count "$dir")" "$(production "$dir")"
done
printf '%-16s %6d %6d\n' total "$(count crates src tests examples)" \
    "$(production crates/*/ src)"
