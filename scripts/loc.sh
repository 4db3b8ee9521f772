#!/usr/bin/env bash
# Line census: workspace Rust outside the repo benchmark's directory, the
# figure every simplicity PR quotes, and its per-crate split.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -not -path '*/bin/benchmark/*' -print0 | xargs -0 cat | wc -l
}

for dir in crates/*/ src tests examples; do
    printf '%-16s %6d\n' "${dir%/}" "$(count "$dir")"
done
printf '%-16s %6d\n' total "$(count crates src tests examples)"
