//! Integration: the cooperative rank scheduler at scale (ISSUE 8).
//!
//! The multiplexing contract: world size is decoupled from host core
//! count — 512 ranks in the debug tier and 4096 in the release scaling
//! tier (`verify.sh` tier 6 runs the `#[ignore]`d tests here with
//! `--release -- --ignored`) — while every collective keeps its exact
//! semantics and the driver's decomposition-invariance oracle keeps
//! holding at rank counts that oversubscribe the FFT slab decomposition
//! (zero-plane ranks) and the host cores alike.

mod common;

use common::final_state;
use frontier_sim::core::{run_simulation, Physics, SimConfig};
use frontier_sim::ranks::{smoke, World};

// --- smoke worlds: every collective kind + p2p ring -----------------

/// Two same-seed worlds must agree digest-for-digest (the workload
/// self-checks every payload internally; see `hacc_ranks::smoke`).
fn run_smoke_twice(ranks: usize, rounds: usize, seed: u64) {
    let a = World::run(ranks, |c| smoke::smoke(c, seed, rounds));
    let b = World::run(ranks, |c| smoke::smoke(c, seed, rounds));
    assert_eq!(a.len(), ranks);
    assert_eq!(a, b, "smoke digests not reproducible at {ranks} ranks");
}

#[test]
fn smoke_world_all_collectives_at_512_ranks() {
    run_smoke_twice(512, 1, 0x512);
}

/// The headline capability: a 4096-rank SPMD world completes every
/// collective kind plus the p2p ring on a host with a handful of cores.
#[test]
#[ignore = "release-tier scale test (verify.sh tier 6)"]
fn smoke_world_all_collectives_at_4096_ranks() {
    let digests = World::run(4096, |c| smoke::smoke(c, 0x4096, 1));
    assert_eq!(digests.len(), 4096);
}

// --- driver decomposition invariance at high rank counts ------------
//
// The quantized-aggregate oracle from tests/decomposition_invariance.rs:
// exact particle count, exact id set, total mass to 1e-12 relative,
// mass-weighted centroid to 1e-3 of the box. Per-particle state differs
// across decompositions (ghost staleness within a PM step), aggregates
// must not.

fn cfg_io(np: usize, tag: &str) -> (SimConfig, std::path::PathBuf) {
    let mut c = SimConfig::small(np);
    c.physics = Physics::GravityOnly;
    c.pm_steps = 1;
    c.max_rung = 0;
    c.analysis_every = 0;
    c.checkpoint_every = 1;
    c.seed = 4242;
    let dir = std::env::temp_dir().join(format!(
        "frontier-rank-scaling-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    c.io_dir = Some(dir.clone());
    (c, dir)
}

/// FNV-1a over the exact bit patterns of the sorted id set.
fn id_hash(state: &[(u64, Vec<f64>)]) -> u64 {
    hacc_rt::fnv1a(state.iter().map(|&(id, _)| id))
}

/// (count, id-hash, mass, centroid) of a run's final state.
fn aggregates(np: usize, ranks: usize, tag: &str) -> (usize, u64, f64, [f64; 3]) {
    let (c, d) = cfg_io(np, tag);
    run_simulation(&c, ranks);
    let s = final_state(&d, ranks);
    let mass: f64 = s.iter().map(|(_, v)| v[6]).sum();
    let mut com = [0.0f64; 3];
    for (_, v) in &s {
        for k in 0..3 {
            com[k] += v[6] * v[k] / mass;
        }
    }
    let out = (s.len(), id_hash(&s), mass, com);
    let _ = std::fs::remove_dir_all(&d);
    out
}

fn assert_aggregates_invariant(np: usize, rank_counts: &[usize], tag: &str) {
    let box_size = np as f64;
    let (n0, ids0, mass0, com0) =
        aggregates(np, rank_counts[0], &format!("{tag}-r{}", rank_counts[0]));
    assert_eq!(n0, np * np * np);
    for &ranks in &rank_counts[1..] {
        let (n, ids, mass, com) =
            aggregates(np, ranks, &format!("{tag}-r{ranks}"));
        assert_eq!(n, n0, "{ranks} ranks changed the particle count");
        assert_eq!(ids, ids0, "{ranks} ranks changed the id set");
        assert!(
            (mass - mass0).abs() <= 1e-12 * mass0,
            "{ranks} ranks: mass {mass:.15e} vs {mass0:.15e}"
        );
        for k in 0..3 {
            assert!(
                (com[k] - com0[k]).abs() < 1e-3 * box_size,
                "{ranks} ranks: centroid[{k}] {} vs {}",
                com[k],
                com0[k]
            );
        }
    }
}

/// 16 ranks on 16³ particles: the decomposition already oversubscribes
/// the host cores under the cooperative scheduler, and higher counts
/// only shrink the per-rank subdomain (the 27-neighborhood overload
/// exchange requires overload width <= subdomain extent, so np scales
/// with the rank count).
#[test]
fn driver_aggregates_invariant_up_to_16_ranks() {
    assert_aggregates_invariant(16, &[1, 4, 16], "mid");
}

/// 64 ranks on a 16³ grid: the FFT slab decomposition holds only 16
/// planes, so 48 ranks own zero planes and must still route every
/// transpose collective correctly.
#[test]
#[ignore = "release-tier scale test (verify.sh tier 6)"]
fn driver_aggregates_invariant_at_64_ranks() {
    assert_aggregates_invariant(16, &[1, 64], "high");
}

// --- chaos recovery under multiplexing ------------------------------

/// Injected rank panics unwind through the test harness's panic hook
/// and would spam the output; filter exactly those.
fn quiet_injected_panics() {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// A 256-rank supervised run that loses a rank mid-flight must roll
/// back and land on the same final state hash as an undisturbed run —
/// with world teardown and re-spawn happening entirely under the
/// cooperative scheduler.
#[test]
#[ignore = "release-tier scale test (verify.sh tier 6)"]
fn chaos_recovery_at_256_ranks() {
    quiet_injected_panics();
    let ranks = 256;
    let np = 32;
    // Two PM steps so the step-1 fault lands after the step-0
    // checkpoint exists and the rollback is a real one.
    let (mut cfg_ref, dir_ref) = cfg_io(np, "chaos-ref");
    cfg_ref.pm_steps = 2;
    let reference = run_simulation(&cfg_ref, ranks);
    assert_eq!(reference.attempts, 1);

    let (mut cfg_chaos, dir_chaos) = cfg_io(np, "chaos-hit");
    cfg_chaos.pm_steps = 2;
    cfg_chaos.chaos = Some("panic@1:171".into());
    let recovered = run_simulation(&cfg_chaos, ranks);
    assert!(recovered.attempts > 1, "fault did not fire");
    assert_eq!(
        recovered.final_state_hash, reference.final_state_hash,
        "256-rank recovery did not converge to the reference state"
    );
    let _ = (
        std::fs::remove_dir_all(&dir_ref),
        std::fs::remove_dir_all(&dir_chaos),
    );
}
