#!/usr/bin/env bash
# Re-bless a checked-in perf baseline after a deliberate performance
# change. Runs the bench targets behind it with HACC_BENCH_JSON pointed at
# the baseline file, which merges the fresh metrics in place. Commit the
# updated file together with the change that moved the numbers.
#
#   scripts/bench_update.sh         BENCH_kernels.json (the tier-5 ratchet)
#   scripts/bench_update.sh ranks   BENCH_ranks.json, when ranks_scaling or
#                                   the scheduler under it is what changed
#
# kernels_micro measures at the same fixed budget here and under the
# tier-5 gate, so blessed numbers and gate numbers are comparable.
set -euo pipefail
cd "$(dirname "$0")/.."
unset HACC_BENCH_BASELINE || true

case "${1:-kernels}" in
kernels)
    export HACC_BENCH_JSON="$PWD/BENCH_kernels.json"
    echo "== blessing short-range symmetric kernel and long-range PM solve baselines =="
    cargo bench -q --offline -p hacc-bench --bench kernels_micro \
        | grep -E "short_range_symmetric|long_range|metric|wrote"
    echo "== blessing headline hydro-vs-gravity baselines =="
    cargo bench -q --offline -p hacc-bench --bench headline_hydro_vs_gravity \
        | grep -E "^metric|wrote"
    ;;
ranks)
    # The cooperative-scheduler weak-scaling curve lives in its own
    # baseline file (informational metrics, not ratcheted — see
    # ranks_scaling.rs).
    export HACC_BENCH_JSON="$PWD/BENCH_ranks.json"
    echo "== blessing cooperative-scheduler weak-scaling baselines =="
    cargo bench -q --offline -p hacc-bench --bench ranks_scaling \
        | grep -E "^metric|wrote|weak eff"
    ;;
*)
    echo "usage: scripts/bench_update.sh [kernels|ranks]" >&2
    exit 2
    ;;
esac
echo "blessed: $HACC_BENCH_JSON"
