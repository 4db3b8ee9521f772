#!/usr/bin/env bash
# Re-bless the checked-in perf baselines (BENCH_kernels.json) after a
# deliberate performance change. Runs the two ratcheted bench targets
# with HACC_BENCH_JSON pointed at the baseline file, which merges the
# fresh metrics in place. Commit the updated BENCH_kernels.json together
# with the change that moved the numbers. kernels_micro measures at the
# same fixed budget here and under the tier-5 gate, so blessed numbers and
# gate numbers are comparable.
set -euo pipefail
cd "$(dirname "$0")/.."

export HACC_BENCH_JSON="$PWD/BENCH_kernels.json"
unset HACC_BENCH_BASELINE || true

echo "== blessing short-range symmetric kernel and long-range PM solve baselines =="
cargo bench -q --offline -p hacc-bench --bench kernels_micro \
    | grep -E "short_range_symmetric|long_range|metric|wrote"

echo "== blessing headline hydro-vs-gravity baselines =="
cargo bench -q --offline -p hacc-bench --bench headline_hydro_vs_gravity \
    | grep -E "^metric|wrote"

echo "blessed: $HACC_BENCH_JSON"

# The cooperative-scheduler weak-scaling curve lives in its own baseline
# file (informational metrics, not ratcheted — see ranks_scaling.rs).
export HACC_BENCH_JSON="$PWD/BENCH_ranks.json"

echo "== blessing cooperative-scheduler weak-scaling baselines =="
cargo bench -q --offline -p hacc-bench --bench ranks_scaling \
    | grep -E "^metric|wrote|weak eff"

echo "blessed: $HACC_BENCH_JSON"
