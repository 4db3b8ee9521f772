#!/usr/bin/env bash
# The state-hash table every issue quotes: runs the fixed command lines
# below through BIN (default target/release/frontier-sim) and prints
# `args -> state hash`, one line each. Diff the output of two binaries to
# see which configurations a change moved; a hash is the FNV-1a of the
# id-sorted final particle state, so "same line" means "same bits".
set -euo pipefail
cd "$(dirname "$0")/.."
bin=${1:-target/release/frontier-sim}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

while IFS= read -r args; do
    # shellcheck disable=SC2086  # the table rows are option lists
    hash=$("$bin" run $args --out "$out/io" | sed -n 's/.*state hash: \([0-9a-f]*\).*/\1/p')
    rm -rf "$out/io"
    printf '%s -> %s\n' "$args" "${hash:-<none>}"
done <<'TABLE'
--np 16 --steps 3 --seed 7 --ranks 1
--np 16 --steps 3 --seed 7 --ranks 2
--np 16 --steps 3 --seed 7 --ranks 4
--np 16 --steps 3 --seed 7 --ranks 2 --physics gravity
--np 32 --steps 2 --seed 7 --ranks 8 --physics gravity
--np 16 --steps 2 --seed 3 --ranks 2 --zi 1.5 --zf 1.0
--np 16 --steps 2 --seed 3 --ranks 4 --zi 1.5 --zf 1.0
--np 16 --steps 1 --seed 3 --ranks 2 --zi 1.5 --zf 1.2 --flat
--np 12 --steps 3 --seed 11 --ranks 1 --zi 2 --zf 0.5
--np 16 --steps 3 --seed 5 --ranks 2 --zi 0.5 --zf 0.0
TABLE
