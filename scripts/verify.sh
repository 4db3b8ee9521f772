#!/usr/bin/env bash
# Hermetic-build verification: the workspace must build and test fully
# offline, with no dependency outside the repository. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch the gates leave behind: the seeded lint canaries (tier 0), the
# benchmark package's lockfile as `cargo tree` re-resolves it (tier 0; the
# file is pinned with the rest of that directory, so it is put back), and
# the run directory of the later tiers.
tdir=""
bench_manifest=crates/bench/src/bin/benchmark/Cargo.toml
bench_lock=$(mktemp)
cp "${bench_manifest%.toml}.lock" "$bench_lock"
cleanup() {
    rm -f crates/*/src/__*_canary.rs
    cp "$bench_lock" "${bench_manifest%.toml}.lock" && rm -f "$bench_lock"
    [ -z "$tdir" ] || rm -rf "$tdir"
}
trap cleanup EXIT

echo "== line census (informational, no threshold) =="
scripts/loc.sh
# rustfmt drift of the workspace, as the number of hunks `cargo fmt`
# would rewrite; informational, and skipped where rustfmt is missing.
if cargo fmt --version >/dev/null 2>&1; then
    drift=$(cargo fmt --all --check 2>/dev/null | grep -c '^Diff in' || true)
    echo "rustfmt drift: $drift hunk(s)"
else
    echo "rustfmt drift: rustfmt not installed"
fi

echo "== tier 0: hacc-lint static analysis =="
# The lint gate runs before the workspace build: hacc-lint and the
# hacc-telem it imports are std-only, so this compiles in seconds and
# fails fast on the findings of its seven rules: determinism (D1),
# collective-safety (C1), hermeticity (H1), fault-coverage (F1),
# hot-loop allocation (P1), panic-surface (E1), and
# vectorization-blocker (V1) (`unsafe` needs no rule: every crate root
# says `#![forbid(unsafe_code)]`). A finding is suppressed only by a
# `// <rule>: allow: <reason>` marker at its site, and a marker that
# suppresses nothing is itself a finding, so a stale one fails here.
cargo build -q --release --offline -p hacc-lint
# The analyser is a leaf tool: nothing that simulates or measures may
# compile it.
for pkg in "-p hacc-rt" "-p frontier-sim" "--manifest-path $bench_manifest"; do
    # shellcheck disable=SC2086
    closure=$(cargo tree --offline -e normal $pkg)
    if grep -q hacc-lint <<< "$closure"; then
        echo "error: hacc-lint is a normal dependency of \`cargo tree $pkg\`" >&2
        exit 1
    fi
done
tier0_start=$EPOCHREALTIME
./target/release/hacc-lint --root .
# Gate self-tests: one seeded violation per row of the table below, all
# seeded at once and caught by one lint pass. Each row is
# `RULE|path|what`, then the canary source up to a `---` line; every row
# has a file of its own. The canary files sit outside the module tree
# (cargo never compiles them), but the lint walks the filesystem: with
# the canaries in place the gate must fail *and* report each row's rule
# at a line of that row's own file. Every static rule has a row
# (`crates/lint/tests/rules.rs` checks the table).
rows=()
while IFS='|' read -r rule path what; do
    src=""
    while IFS= read -r line && [ "$line" != "---" ]; do
        src+="$line"$'\n'
    done
    if [ -e "$path" ]; then
        echo "error: canary path $path is taken (each row needs a file of its own)" >&2
        exit 1
    fi
    printf '%s' "$src" > "$path"
    rows+=("$rule|$path|$what")
done <<'CANARIES'
D1|crates/telem/src/__d1_canary.rs|a stray wall-clock read in a telemetry source
pub fn leak() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }
---
D1|crates/ranks/src/__d1_canary.rs|a timed wait standing in for a wake-up
pub fn nap() { std::thread::park_timeout(std::time::Duration::from_millis(100)); }
---
D1|crates/rt/src/__d1_canary.rs|worker threads spawned beside the lane-gated ranks
pub fn fan_out(n: usize) {
    std::thread::scope(|s| {
        for _ in 0..n {
            s.spawn(|| {});
        }
    });
}
---
D1|crates/rt/src/__d1_env_canary.rs|an environment knob steering the scheduler
pub fn lanes() -> usize {
    std::env::var("HACC_CANARY_LANES").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
}
---
C1|crates/ranks/src/__c1_canary.rs|a collective under a rank guard
pub fn canary_guarded(comm: &mut Comm) {
    if comm.rank() == 0 {
        comm.barrier();
    }
}
---
C1|crates/ranks/src/__c1_exit_canary.rs|a collective after a rank-guarded early return
pub fn canary_early_exit(comm: &mut Comm) {
    if comm.rank() != 0 {
        return;
    }
    comm.barrier();
}
---
H1|crates/units/src/__h1_canary.rs|an extern crate outside the workspace
extern crate libc;
---
F1|crates/fault/src/__f1_canary.rs|a fault site no production code fires
pub enum FaultKind { CanaryNeverFired }
---
P1|crates/gpusim/src/__p1_canary.rs|a heap allocation inside an interaction-tile loop
pub fn execute_leaf_canary(n: usize) -> Vec<f64> {
    let mut out = Vec::new();
    for i in 0..n {
        out.push(i as f64);
    }
    out
}
---
P1|crates/core/src/__p1_fn_canary.rs|a heap allocation in a marked step-stage fn, outside any loop
// p1: hot-loop
pub fn canary_stage(step: usize) -> usize {
    format!("stage-{step}").len()
}
---
E1|crates/core/src/__e1_canary.rs|an unwrap one call below a marked supervised root
// e1: root
pub fn canary_step_loop(v: &[f64]) -> f64 {
    canary_helper(v)
}
fn canary_helper(v: &[f64]) -> f64 {
    *v.first().unwrap()
}
---
V1|crates/gpusim/src/__v1_canary.rs|a data-dependent early exit inside a tile lane loop
pub fn execute_leaf_canary2(xs: &[f64], out: &mut [f64; 4]) {
    for i in 0..xs.len() {
        if xs[i] < 0.0 {
            break;
        }
        out[0] += xs[i];
    }
}
---
CANARIES
if out=$(./target/release/hacc-lint --root . 2> /dev/null); then
    echo "error: lint gate passed with ${#rows[@]} canaries seeded" >&2
    exit 1
fi
rm -f crates/*/src/__*_canary.rs
for row in "${rows[@]}"; do
    IFS='|' read -r rule path what <<< "$row"
    grep -qE "^${path//./\\.}:[0-9]+: \[$rule\]" <<< "$out" || {
        echo "error: lint gate missed $what: no [$rule] finding in $path" >&2
        exit 1
    }
done
# The lint tier must stay cheap enough to run on every commit: the
# clean pass plus the canary pass share a 5 s budget (compile time
# excluded — that is cargo's cache, not the analyzer).
tier0_ms=$(awk -v a="$tier0_start" -v b="$EPOCHREALTIME" 'BEGIN { printf "%d", (b - a) * 1000 }')
if [ "$tier0_ms" -ge 5000 ]; then
    echo "error: lint tier took ${tier0_ms} ms, budget is <5000 ms" >&2
    exit 1
fi
echo "ok: zero findings; all ${#rows[@]} seeded violations caught (${tier0_ms} ms)"

echo "== build (offline) =="
cargo build --release --offline
# The benchmark package compiles against the workspace's public items from
# its own manifest: a signature change that breaks it fails here, not when
# the benchmark is next run. (The trap restores its lockfile.)
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path "$bench_manifest"

echo "== test (offline) =="
cargo test -q --offline

echo "== tier 2: warnings-as-errors build =="
RUSTFLAGS="-D warnings" cargo build --release --offline

echo "== state-hash table (informational, no threshold) =="
# The fixed command lines every issue quotes, through the binary just
# built; diff against another binary's output to see what a change moved.
scripts/state_hashes.sh

echo "== tier 2: release test suite, every workspace crate =="
# The crates' own tests (the clustering oracles, the driver's, the lint
# rule fixtures, ...) run only under --workspace.
cargo test --workspace --release -q --offline

echo "== tier 2: telemetry golden-section determinism =="
# Two identical runs must produce byte-identical Chrome traces and
# byte-identical golden regions of the text report; wall-clock content
# is confined to the non-golden appendix, so the byte-diff catches any
# wall-clock leak that makes two identical runs differ (hacc-lint rule D1
# polices the sources of wall time).
scripts/goldens.sh
echo "ok: telemetry golden sections are byte-identical"

echo "== tier 3: chaos gate — supervised recovery is bitwise-exact =="
tdir=$(mktemp -d)
golden() {
    sed -n '/# === GOLDEN BEGIN ===/,/# === GOLDEN END ===/p' "$1"
}
# For each rank count, run an uninterrupted reference, then the same
# seed under several fault plans. Every recovered run must report the
# reference's exact final state hash, and chaos telemetry itself must
# be deterministic (same seed + same spec -> same golden region). A PM
# step inherits nothing but the particle store, so the rows run the
# default physics (full hydro); one gravity-only row stays beside them.
chaos_specs=(
    "panic@2:1,ckpt-crc@1:0"
    "panic@1:0,ckpt-torn@0:1"
    "comm-delay@1:0,comm-dup@1:1,comm-trunc@2:0,nvme-err@1:0,gpu-launch@2:1"
)
# chaos_rows RANKS TAG [PHYSICS-OPTION...]
chaos_rows() {
    local ranks=$1 tag=$2
    shift 2
    local ref_dir="$tdir/chaos-ref-$tag"
    ./target/release/frontier-sim run \
        --np 8 --ranks "$ranks" --steps 3 --seed 4242 "$@" \
        --out "$ref_dir" > "$ref_dir.log"
    local ref_hash
    ref_hash=$(grep -o 'state hash: [0-9a-f]*' "$ref_dir.log")
    [ -n "$ref_hash" ] || {
        echo "error: reference run printed no state hash" >&2
        exit 1
    }
    for i in "${!chaos_specs[@]}"; do
        local spec="${chaos_specs[$i]}"
        # Rank-count-specific specs: clamp rank indices for --ranks 1.
        [ "$ranks" -eq 1 ] && spec="${spec//:1/:0}"
        local run_dir="$tdir/chaos-$tag-$i"
        ./target/release/frontier-sim run \
            --np 8 --ranks "$ranks" --steps 3 --seed 4242 "$@" \
            --out "$run_dir" --chaos "$spec" \
            > "$run_dir.log" 2> /dev/null
        local hash
        hash=$(grep -o 'state hash: [0-9a-f]*' "$run_dir.log")
        if [ "$hash" != "$ref_hash" ]; then
            echo "error: chaos spec '$spec' on $ranks rank(s) ($tag) diverged:" >&2
            echo "  reference: $ref_hash" >&2
            echo "  recovered: ${hash:-<missing>}" >&2
            exit 1
        fi
    done
}
chaos_rows 1 hydro-r1
chaos_rows 2 hydro-r2
chaos_rows 2 gravity-r2 --physics gravity
# Chaos golden determinism: two identical faulted runs, identical goldens.
for run in a b; do
    ./target/release/frontier-sim run \
        --np 8 --ranks 2 --steps 3 --seed 4242 \
        --out "$tdir/chaos-det-$run" --telemetry "$tdir/chaos-telem-$run" \
        --chaos "panic@2:1,ckpt-crc@1:0" \
        > /dev/null 2>&1
done
golden "$tdir/chaos-telem-a/report.txt" > "$tdir/chaos-golden-a.txt"
golden "$tdir/chaos-telem-b/report.txt" > "$tdir/chaos-golden-b.txt"
grep -q '\[faults rank' "$tdir/chaos-golden-a.txt" || {
    echo "error: chaos golden region carries no fault ledger" >&2
    exit 1
}
cmp "$tdir/chaos-golden-a.txt" "$tdir/chaos-golden-b.txt" || {
    echo "error: chaos telemetry goldens differ between identical runs" >&2
    exit 1
}
echo "ok: all fault plans recovered to the reference state hash"

echo "== tier 4: hacc-san dynamic sanitizer gate =="
# The whole release suite again with the sanitizer armed on every
# World::run (HACC_SAN=1): rank-privacy checks on annotated regions,
# MUST-style collective matching, and wait-graph deadlock detection, all
# live. Any finding fails the run: there is no suppression list.
HACC_SAN=1 cargo test --release -q --offline
# Gate self-test on the seeded canary race (an `#[ignore]`d fixture only
# this gate runs): unarmed it must pass, and armed it must FAIL with an
# R1 finding naming its region — a failure for any other reason proves
# nothing about the sanitizer.
canary() {
    cargo test --release -q --offline --test sanitizer \
        canary_seeded_race_must_fail -- --ignored > "$tdir/canary-$1.log" 2>&1
}
canary plain || {
    echo "error: the seeded canary fails with the sanitizer off:" >&2
    tail -n 25 "$tdir/canary-plain.log" >&2
    exit 1
}
if HACC_SAN=1 canary armed; then
    echo "error: sanitizer gate missed the seeded canary race" >&2
    exit 1
fi
grep -q '\[R1\] region `canary-race`' "$tdir/canary-armed.log" || {
    echo "error: the armed canary failed without an R1 finding on canary-race:" >&2
    tail -n 25 "$tdir/canary-armed.log" >&2
    exit 1
}
# Clean sanitized CLI runs at every test-tier rank count; the sanitizer
# report must be finding-free and byte-identical run to run.
for ranks in 1 2 4 8; do
    for run in a b; do
        ./target/release/frontier-sim run \
            --np 8 --ranks "$ranks" --steps 2 --physics gravity --seed 4242 \
            --sanitize --telemetry "$tdir/san-r$ranks-$run" \
            > /dev/null
    done
    grep -q '^findings            : 0$' "$tdir/san-r$ranks-a/sanitizer.txt" || {
        echo "error: sanitized $ranks-rank run is not clean:" >&2
        cat "$tdir/san-r$ranks-a/sanitizer.txt" >&2
        exit 1
    }
    cmp "$tdir/san-r$ranks-a/sanitizer.txt" "$tdir/san-r$ranks-b/sanitizer.txt" || {
        echo "error: sanitizer reports differ between identical $ranks-rank runs" >&2
        exit 1
    }
done
echo "ok: armed suite clean, canary caught, 1/2/4/8-rank reports byte-stable"

echo "== tier 5: perf ratchet — short-range symmetric kernels, long-range PM solve =="
# The tiled symmetric executors, the lane compaction in front of them and
# the PM solve must hold their blessed ratios: any dimensionless *_speedup
# in BENCH_kernels.json — each the ratio of two arms' fastest times over
# interleaved samples whose order flips every sample, so the host's own
# speed and its bursts of load cancel — that regresses
# more than 15% fails the gate
# with a delta table, and the kernels_micro run additionally asserts the
# headline crk_force symmetric speedup stays >= 2x and the half-spectrum
# PM solve's speedup over the complex three-inverse assembly >= 1.55x.
# The absolute rates (*_per_s) and the
# headline cost multiples are measured and printed as information: the
# host moves them by itself, and the repository benchmark gates them
# against its host-speed probe. Re-bless deliberate performance changes
# with scripts/bench_update.sh.
# A red tier 5 does not stop the gate: its verdict is recorded, tier 6
# runs anyway, and both verdicts print (and decide the exit code) at the
# end.
tier5=ok
if ! HACC_BENCH_BASELINE="$PWD/BENCH_kernels.json" \
    HACC_BENCH_JSON="$tdir/bench_fresh.json" \
    cargo bench -q --offline -p hacc-bench --bench kernels_micro \
    > "$tdir/ratchet-micro.log" 2>&1; then
    echo "error: kernels_micro perf ratchet failed:" >&2
    tail -n 25 "$tdir/ratchet-micro.log" >&2
    tier5=FAILED
fi
grep -E "short_range_symmetric|long_range|ratchet" "$tdir/ratchet-micro.log" | sed 's/^/  /' || true
if ! HACC_BENCH_BASELINE="$PWD/BENCH_kernels.json" \
    HACC_BENCH_JSON="$tdir/bench_fresh.json" \
    cargo bench -q --offline -p hacc-bench --bench headline_hydro_vs_gravity \
    > "$tdir/ratchet-headline.log" 2>&1; then
    echo "error: headline perf ratchet failed:" >&2
    tail -n 25 "$tdir/ratchet-headline.log" >&2
    tier5=FAILED
fi
grep -E "^metric" "$tdir/ratchet-headline.log" | sed 's/^/  /' || true
[ "$tier5" = ok ] && echo "ok: perf ratchet green against BENCH_kernels.json"

echo "== tier 6: cooperative-scheduler scaling gate =="
# Run in a subshell of its own, errexit on, so that its first failure
# ends tier 6 alone and is recorded like tier 5's.
set +e
(
    set -e
    # The multiplexing contract at full scale: world sizes that oversubscribe
    # the host by orders of magnitude must stay exact, sanitized, and
    # byte-stable.
    #
    # (a) 1024-rank sanitized smoke, twice: finding-free and byte-identical.
    for run in a b; do
        ./target/release/frontier-sim ranks \
            --ranks 1024 --rounds 1 --seed 4242 --sanitize \
            > "$tdir/ranks-1024-$run.txt"
    done
    grep -q '^findings            : 0$' "$tdir/ranks-1024-a.txt" || {
        echo "error: sanitized 1024-rank world is not clean:" >&2
        cat "$tdir/ranks-1024-a.txt" >&2
        exit 1
    }
    cmp "$tdir/ranks-1024-a.txt" "$tdir/ranks-1024-b.txt" || {
        echo "error: 1024-rank sanitized output differs between identical runs" >&2
        exit 1
    }
    # (b) 4096-rank smoke: every collective kind completes on this host.
    ./target/release/frontier-sim ranks --ranks 4096 --rounds 1 --seed 4242 \
        > "$tdir/ranks-4096.txt"
    grep -q '^digest' "$tdir/ranks-4096.txt" || {
        echo "error: 4096-rank smoke printed no digest" >&2
        exit 1
    }
    # (c) Gate self-test: a wait cycle buried in a 256-rank multiplexed
    # world must FAIL (diagnosed deadlock), never hang the gate.
    if timeout 120 cargo test --release -q --offline --test sanitizer \
        canary_multiplexed_deadlock_must_fail -- --ignored > /dev/null 2>&1; then
        echo "error: multiplexed deadlock canary passed — detection lost its teeth" >&2
        exit 1
    fi
    # (d) The release-tier scaling tests: 4096-rank collectives, driver
    # decomposition invariance across 64 ranks (48 of them zero-plane FFT
    # ranks), and 256-rank chaos recovery.
    cargo test --release -q --offline --test rank_scaling -- --ignored
    echo "ok: 1024-rank sanitized world byte-stable, 4096-rank world exact"
)
tier6_status=$?
set -e
tier6=ok
[ "$tier6_status" -eq 0 ] || tier6=FAILED

echo "== verdicts =="
echo "  tier 5 (perf ratchet): $tier5"
echo "  tier 6 (scaling):      $tier6"
if [ "$tier5" != ok ] || [ "$tier6" != ok ]; then
    echo "verify.sh: FAILED" >&2
    exit 1
fi
echo "verify.sh: all checks passed"
