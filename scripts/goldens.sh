#!/usr/bin/env bash
# Golden determinism: runs the fixed telemetry command lines below through
# BIN (default target/release/frontier-sim) and a second time through BIN2
# (default BIN itself), then compares each run's Chrome trace and the
# region of its `report.txt` between `# === GOLDEN BEGIN ===` and
# `# === GOLDEN END ===`. Prints `args: trace.json same|moved` and
# `args: golden same|moved` per line, and exits 1 on any `moved` or on an
# empty golden region. With one binary it checks that two identical runs
# agree byte for byte (the tier-2 gate of `verify.sh`); with two, e.g. one
# built from a `git clone` of the parent commit, that a change left every
# golden artifact — step counts, I/O bytes, per-rank comm bytes — as it was.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=${1:-target/release/frontier-sim}
bin2=${2:-$bin}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

golden() {
    sed -n '/# === GOLDEN BEGIN ===/,/# === GOLDEN END ===/p' "$1"
}

# run BIN ARGS TAG: one run with telemetry into "$out/TAG", its golden
# region extracted beside it.
run() {
    # shellcheck disable=SC2086  # the table rows are option lists
    "$1" run $2 --out "$out/io-$3" --telemetry "$out/$3" > /dev/null
    rm -rf "$out/io-$3"
    golden "$out/$3/report.txt" > "$out/$3.golden"
}

status=0
row=0
while IFS= read -r args; do
    row=$((row + 1))
    run "$bin" "$args" "a$row"
    run "$bin2" "$args" "b$row"
    for artifact in trace.json golden; do
        if [ "$artifact" = golden ]; then
            a="$out/a$row.golden" b="$out/b$row.golden"
        else
            a="$out/a$row/$artifact" b="$out/b$row/$artifact"
        fi
        if [ ! -s "$a" ] || [ ! -s "$b" ]; then
            verdict="empty"
            status=1
        elif cmp -s "$a" "$b"; then
            verdict=same
        else
            verdict=moved
            status=1
        fi
        printf '%s: %s %s\n' "$args" "$artifact" "$verdict"
    done
done <<'TABLE'
--np 8 --ranks 2 --steps 2 --physics gravity --seed 4242
--np 8 --ranks 2 --steps 2 --physics hydro --seed 4242
TABLE
exit "$status"
