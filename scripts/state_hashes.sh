#!/usr/bin/env bash
# The state-hash table every issue quotes: runs the fixed command lines
# below through BIN (default target/release/frontier-sim) and prints
# `args -> state hash [substeps]`, one line each; a hash is the FNV-1a of
# the id-sorted final particle state, so "same line" means "same bits",
# and `[substeps]` lists the subcycle depth of each PM step the run
# printed (a rolled-back run prints only the steps of its last attempt).
# With a second binary, `state_hashes.sh BIN BIN2` runs both and prints
# `args -> hash [substeps] hash2 [substeps2] same|moved`: which
# configurations a change moved, and whether their substeps moved too.
# The four `--chaos` rows repeat the row above them with a rank lost:
# two at step 1 (a rollback to step 0's checkpoint), one at step 2 (a
# rollback over step 1's checkpoint, a step that left its last substep's
# closing half-kick to step 2), the 64-rank one at step 0, before any
# checkpoint exists (a cold start through the distributed ICs). Recovery
# is bitwise, so each prints the hash of the row above. The 27-rank row
# is the one 3×3×3 decomposition, and its 16³ mesh leaves eleven ranks
# owning no plane. The `--np 9` row is the one odd grid: its PM and IC
# real inverses (n·F = 9 and 27 half-rows per plane) leave each plane a
# lone last half-row, and its transforms run Bluestein.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=${1:-target/release/frontier-sim}
bin2=${2:-}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# `hash [s0,s1,..]` of one run: its state hash and each step's substeps.
state_hash() {
    local log hash subs
    # shellcheck disable=SC2086  # the table rows are option lists
    log=$("$1" run $2 --out "$out/io" 2> /dev/null)
    rm -rf "$out/io"
    hash=$(sed -n 's/.*state hash: \([0-9a-f]*\).*/\1/p' <<< "$log")
    subs=$(sed -n 's/^ *step .* substeps *\([0-9]*\) .*/\1/p' <<< "$log" | paste -sd, -)
    printf '%s [%s]' "${hash:-<none>}" "$subs"
}

while IFS= read -r args; do
    run=$(state_hash "$bin" "$args")
    if [ -z "$bin2" ]; then
        printf '%s -> %s\n' "$args" "$run"
        continue
    fi
    run2=$(state_hash "$bin2" "$args")
    [ "${run%% *}" = "${run2%% *}" ] && verdict=same || verdict=moved
    printf '%s -> %s %s %s\n' "$args" "$run" "$run2" "$verdict"
done <<'TABLE'
--np 16 --steps 3 --seed 7 --ranks 1
--np 16 --steps 3 --seed 7 --ranks 2
--np 16 --steps 3 --seed 7 --ranks 2 --chaos panic@1:0
--np 16 --steps 3 --seed 7 --ranks 4
--np 16 --steps 3 --seed 7 --ranks 2 --physics gravity
--np 16 --steps 3 --seed 7 --ranks 2 --physics gravity --chaos panic@1:0
--np 32 --steps 2 --seed 7 --ranks 8 --physics gravity
--np 16 --steps 2 --seed 3 --ranks 27 --physics gravity
--np 9 --steps 2 --seed 3 --ranks 2 --physics gravity
--np 32 --steps 2 --seed 7 --ranks 64 --physics gravity
--np 32 --steps 2 --seed 7 --ranks 64 --physics gravity --chaos panic@0:5
--np 16 --steps 2 --seed 3 --ranks 2 --zi 1.5 --zf 1.0
--np 16 --steps 2 --seed 3 --ranks 4 --zi 1.5 --zf 1.0
--np 16 --steps 1 --seed 3 --ranks 2 --zi 1.5 --zf 1.2 --flat
--np 12 --steps 3 --seed 11 --ranks 1 --zi 2 --zf 0.5
--np 16 --steps 3 --seed 5 --ranks 2 --zi 0.5 --zf 0.0
--np 16 --steps 3 --seed 5 --ranks 2 --zi 0.5 --zf 0.0 --chaos panic@2:0
TABLE
