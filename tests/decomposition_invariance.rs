//! Integration: physics must not depend on the rank decomposition, and a
//! fixed seed must reproduce the run exactly.
//!
//! The same initial conditions evolved on 1, 2, and 4 ranks should give
//! closely matching observables. Exact bitwise agreement *across rank
//! counts* is not expected — ghost staleness within a PM step differs
//! between decompositions — but power spectra, momentum, and
//! conservation diagnostics must agree to well within physical
//! tolerances. Bitwise agreement *across repeated runs at a fixed rank
//! count* IS the contract: the golden-run tests below hash the full
//! particle state and the telemetry golden sections.

mod common;

use common::final_state;
use frontier_sim::core::{run_simulation, Physics, SimConfig, SimReport};
use frontier_sim::telem::golden_section;

fn cfg() -> SimConfig {
    let mut c = SimConfig::small(10);
    c.physics = Physics::GravityOnly;
    c.pm_steps = 2;
    c.max_rung = 0;
    c.analysis_every = 0;
    c.checkpoint_every = 0;
    c.seed = 777;
    c
}

fn run(ranks: usize) -> SimReport {
    run_simulation(&cfg(), ranks)
}

#[test]
fn power_spectrum_rank_invariant() {
    let r1 = run(1);
    let r2 = run(2);
    let r4 = run(4);
    assert_eq!(r1.power.len(), r2.power.len());
    for ((a, b), c) in r1.power.iter().zip(&r2.power).zip(&r4.power) {
        assert_eq!(a.modes, b.modes);
        assert_eq!(a.modes, c.modes);
        let rel12 = (a.power - b.power).abs() / a.power.max(1e-30);
        let rel14 = (a.power - c.power).abs() / a.power.max(1e-30);
        assert!(
            rel12 < 0.05,
            "P(k={:.3}) differs 1 vs 2 ranks by {:.1}%",
            a.k,
            rel12 * 100.0
        );
        assert!(
            rel14 < 0.05,
            "P(k={:.3}) differs 1 vs 4 ranks by {:.1}%",
            a.k,
            rel14 * 100.0
        );
    }
}

#[test]
fn momentum_conservation_rank_invariant() {
    for ranks in [1usize, 2, 4] {
        let r = run(ranks);
        let net = (r.total_momentum.iter().map(|p| p * p).sum::<f64>()).sqrt();
        assert!(
            net < 0.05 * r.momentum_scale,
            "{ranks} ranks: net momentum {net:.3e} vs scale {:.3e}",
            r.momentum_scale
        );
    }
}

#[test]
fn particle_count_rank_invariant() {
    for ranks in [1usize, 2, 4] {
        let r = run(ranks);
        assert_eq!(r.total_particles, 1000);
        let last = r.steps.last().unwrap();
        assert_eq!(last.particles, 1000, "{ranks} ranks lost particles");
    }
}

// --- golden-run regression tier -------------------------------------

/// Like `cfg()` but checkpointing into a throwaway directory so the full
/// final particle state can be read back.
fn cfg_io(tag: &str) -> (SimConfig, std::path::PathBuf) {
    let mut c = cfg();
    c.checkpoint_every = 1;
    let dir = std::env::temp_dir().join(format!(
        "frontier-golden-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    c.io_dir = Some(dir.clone());
    (c, dir)
}

/// FNV-1a over the exact bit patterns of the sorted state.
fn bitwise_state_hash(state: &[(u64, Vec<f64>)]) -> u64 {
    let words = state.iter().flat_map(|(id, vals)| {
        std::iter::once(*id).chain(vals.iter().map(|v| v.to_bits()))
    });
    hacc_rt::fnv1a(words)
}

#[test]
fn golden_run_state_hash_identical_across_repeated_runs() {
    // The determinism contract: at a fixed seed and rank count, two runs
    // produce bit-identical full particle state. Checked at every rank
    // count the decomposition tier uses.
    for ranks in [1usize, 2, 4] {
        let (c1, d1) = cfg_io(&format!("rerun-a{ranks}"));
        run_simulation(&c1, ranks);
        let s1 = final_state(&d1, ranks);
        let (c2, d2) = cfg_io(&format!("rerun-b{ranks}"));
        run_simulation(&c2, ranks);
        let s2 = final_state(&d2, ranks);
        assert_eq!(s1.len(), 1000);
        assert_eq!(
            bitwise_state_hash(&s1),
            bitwise_state_hash(&s2),
            "{ranks}-rank run is not reproducible bit-for-bit"
        );
        let _ = (std::fs::remove_dir_all(&d1), std::fs::remove_dir_all(&d2));
    }
}

#[test]
fn golden_run_aggregate_hash_rank_invariant() {
    // Per-particle state cannot be identical across decompositions (ghost
    // staleness — see the module docs), but the quantized aggregate state
    // must be: exact particle count, exact id set, total mass to 1e-12
    // relative, and mass-weighted centroid to 1e-3 of the box.
    let mut box_size = 0.0;
    let mut results = Vec::new();
    for ranks in [1usize, 2, 4] {
        let (c, d) = cfg_io(&format!("agg{ranks}"));
        box_size = c.box_size;
        run_simulation(&c, ranks);
        let s = final_state(&d, ranks);
        let mass: f64 = s.iter().map(|(_, v)| v[6]).sum();
        let mut com = [0.0f64; 3];
        for (_, v) in &s {
            for d in 0..3 {
                com[d] += v[6] * v[d] / mass;
            }
        }
        let id_state: Vec<(u64, Vec<f64>)> =
            s.iter().map(|(id, _)| (*id, Vec::new())).collect();
        results.push((s.len(), bitwise_state_hash(&id_state), mass, com));
        let _ = std::fs::remove_dir_all(&d);
    }
    let (n0, ids0, mass0, com0) = results[0].clone();
    for (ranks, (n, ids, mass, com)) in [2usize, 4].iter().zip(&results[1..]) {
        assert_eq!(*n, n0, "{ranks} ranks changed the particle count");
        assert_eq!(*ids, ids0, "{ranks} ranks changed the id set");
        assert!(
            (mass - mass0).abs() <= 1e-12 * mass0,
            "{ranks} ranks: mass {mass:.15e} vs {mass0:.15e}"
        );
        for d in 0..3 {
            assert!(
                (com[d] - com0[d]).abs() < 1e-3 * box_size,
                "{ranks} ranks: centroid[{d}] {} vs {}",
                com[d],
                com0[d]
            );
        }
    }
}

#[test]
fn telemetry_golden_sections_identical_across_repeated_runs() {
    // The exporter contract end to end through the driver: Chrome trace
    // and the golden region of the text report are byte-identical across
    // two same-seed runs, and the ledger matches record for record.
    let r1 = run(2);
    let r2 = run(2);
    assert_eq!(
        r1.telemetry.chrome_trace(),
        r2.telemetry.chrome_trace(),
        "chrome trace must be fully golden"
    );
    let (t1, t2) = (r1.telemetry.text_report(), r2.telemetry.text_report());
    assert_eq!(golden_section(&t1), golden_section(&t2));
    assert_eq!(r1.ledger, r2.ledger);
    assert_eq!(r1.ledger.len(), 2);
    // Spans carry wall durations, but those must never reach the golden
    // artifacts: the trace and golden text already compared equal even
    // though the two runs' wall clocks differ.
    assert!(!r1.telemetry.chrome_trace().contains("wall"));
}

#[test]
fn flop_counts_rank_invariant_to_leading_order() {
    // The short-range pair work is decomposition-independent up to the
    // duplicated ghost-pair evaluations at rank boundaries.
    let f1 = run(1).counters.pairs as f64;
    let f2 = run(2).counters.pairs as f64;
    assert!(
        f2 >= f1 * 0.9 && f2 <= f1 * 3.0,
        "pair counts diverged: 1 rank {f1:.3e}, 2 ranks {f2:.3e}"
    );
}
