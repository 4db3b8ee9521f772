//! Integration: thermodynamic behaviour of the gas through the full
//! driver — Hubble cooling, shock heating, subgrid activity.

mod common;

use common::TempRunDir;
use frontier_sim::core::{run_simulation, Physics, SimConfig, SimReport};
use frontier_sim::iosim::TieredWriter;

/// The report matches the work: every rank ran the substep count the
/// step records publish, so the updates summed over ranks are
/// `Σ_steps particles × (substeps + 1)` (one kick opens the block, one
/// closes each substep).
fn assert_updates_match_substeps(r: &SimReport) {
    let expected: u64 = r
        .steps
        .iter()
        .map(|s| s.particles * (u64::from(s.substeps) + 1))
        .sum();
    assert_eq!(
        r.particle_updates, expected,
        "ranks subcycled at different depths: substeps {:?}",
        r.steps.iter().map(|s| s.substeps).collect::<Vec<_>>()
    );
}

fn cfg(tag: &str, physics: Physics) -> (SimConfig, TempRunDir) {
    let mut c = SimConfig::small(8);
    c.physics = physics;
    c.pm_steps = 3;
    c.max_rung = 1;
    c.analysis_every = 0;
    c.checkpoint_every = 1;
    let dir = TempRunDir::new(tag);
    c.io_dir = Some(dir.path().to_path_buf());
    (c, dir)
}

fn final_u(dir: &std::path::Path, ranks: usize) -> Vec<f64> {
    let mut u = Vec::new();
    for r in 0..ranks {
        let pfs = dir.join("pfs").join(format!("rank-{r}"));
        let (_, blocks) = TieredWriter::load_latest_valid(&pfs).unwrap();
        u.extend(blocks.iter().find(|b| b.name == "u").unwrap().as_f64());
    }
    u
}

#[test]
fn internal_energies_stay_finite_and_positive() {
    let (c, dir) = cfg("finite", Physics::Hydro);
    assert_updates_match_substeps(&run_simulation(&c, 2));
    let u = final_u(dir.path(), 2);
    // Gas entries carry positive u; collisionless entries are zero.
    let gas: Vec<f64> = u.iter().copied().filter(|&v| v > 0.0).collect();
    assert!(!gas.is_empty(), "no gas energies recorded");
    assert!(gas.iter().all(|v| v.is_finite()));
    // Nothing runs away to absurd temperatures (> 1e9 K ~ u of 1e8).
    assert!(
        gas.iter().all(|&v| v < 1.0e8),
        "runaway heating: max u = {:.3e}",
        gas.iter().cloned().fold(0.0, f64::max)
    );
}

#[test]
fn subgrid_run_matches_adiabatic_except_sources() {
    // With identical seeds, the adiabatic and full-subgrid runs share
    // dynamics until cooling/star formation diverge them; both must
    // complete with the same particle budget (stars replace gas 1:1).
    let (ca, _da) = cfg("adiab", Physics::HydroAdiabatic);
    let (cs, _ds) = cfg("subgrid", Physics::Hydro);
    let ra = run_simulation(&ca, 1);
    let rs = run_simulation(&cs, 1);
    assert_eq!(ra.total_particles, rs.total_particles);
    assert_eq!(ra.steps.len(), rs.steps.len());
    // The adiabatic run can never form stars.
    assert_eq!(ra.total_stars, 0);
}

#[test]
fn gravity_only_run_has_no_thermal_state() {
    let (c, dir) = cfg("gravonly", Physics::GravityOnly);
    let r = run_simulation(&c, 1);
    assert_eq!(r.total_particles, 512);
    let u = final_u(dir.path(), 1);
    assert!(u.iter().all(|&v| v == 0.0));
    assert_eq!(r.total_stars, 0);
}

// --- conservation-ledger tier ---------------------------------------
//
// The driver reduces a per-step conservation snapshot across ranks (the
// `hacc_telem` ledger); these tests are the physics oracle over it.
// Documented bounds for the miniature 3-step configurations here:
//
//  * particle count — exactly conserved (star formation converts gas
//    1:1, migration/overload never lose particles);
//  * total mass — conserved to accumulation roundoff, < 1e-12 relative;
//  * net momentum — pairwise-antisymmetric forces plus stale-ghost
//    asymmetry keep |Σ m p| below 5% of Σ m |p| every step (measured
//    ~3e-3; the bound leaves headroom for seed variation);
//  * energy — the tracked functional (Σ ½m|p|² + Σ m u) has no potential
//    term, so gravitational collapse legitimately grows it. The bound is
//    a runaway detector: relative drift < 0.9 over 3 steps (measured
//    ~0.73-0.76), every entry finite and non-negative.

fn ledger_cfg(physics: Physics) -> SimConfig {
    let mut c = SimConfig::small(8);
    c.physics = physics;
    c.pm_steps = 3;
    c.max_rung = 1;
    c.analysis_every = 0;
    c.checkpoint_every = 0;
    c
}

#[test]
fn ledger_particle_count_exactly_conserved() {
    for physics in [Physics::GravityOnly, Physics::Hydro] {
        let r = run_simulation(&ledger_cfg(physics), 2);
        assert_updates_match_substeps(&r);
        assert_eq!(r.ledger.len(), 3);
        assert!(r.ledger.count_conserved(), "{physics:?} lost particles");
        for rec in r.ledger.records() {
            assert_eq!(rec.count, r.total_particles, "{physics:?} step {}", rec.step);
        }
    }
}

#[test]
fn ledger_mass_conserved_to_roundoff() {
    for physics in [Physics::GravityOnly, Physics::HydroAdiabatic, Physics::Hydro] {
        let r = run_simulation(&ledger_cfg(physics), 2);
        assert_updates_match_substeps(&r);
        assert!(
            r.ledger.mass_drift() < 1e-12,
            "{physics:?}: mass drift {:.3e}",
            r.ledger.mass_drift()
        );
        assert!(r.ledger.records().iter().all(|rec| rec.mass > 0.0));
    }
}

#[test]
fn ledger_momentum_fraction_bounded_every_step() {
    for physics in [Physics::GravityOnly, Physics::Hydro] {
        let r = run_simulation(&ledger_cfg(physics), 2);
        assert_updates_match_substeps(&r);
        let frac = r.ledger.max_momentum_fraction();
        assert!(
            frac < 0.05,
            "{physics:?}: net momentum fraction {frac:.3e} exceeds bound"
        );
    }
}

#[test]
fn ledger_energy_drift_within_documented_bound() {
    for physics in [Physics::GravityOnly, Physics::HydroAdiabatic, Physics::Hydro] {
        let r = run_simulation(&ledger_cfg(physics), 2);
        assert_updates_match_substeps(&r);
        for rec in r.ledger.records() {
            assert!(rec.kinetic.is_finite() && rec.kinetic >= 0.0);
            assert!(rec.internal.is_finite() && rec.internal >= 0.0);
        }
        let drift = r.ledger.energy_drift();
        assert!(
            drift < 0.9,
            "{physics:?}: energy drift {drift:.3e} looks like a runaway"
        );
        // Gravity-only runs carry no thermal state in the ledger either.
        if physics == Physics::GravityOnly {
            assert!(r.ledger.records().iter().all(|rec| rec.internal == 0.0));
        }
    }
}

#[test]
fn ledger_is_identical_on_report_and_telemetry() {
    // The ledger the report exposes is the one the telemetry bundle
    // exports — a single source of truth for the oracle and the golden
    // artifacts.
    let r = run_simulation(&ledger_cfg(Physics::HydroAdiabatic), 2);
    assert_updates_match_substeps(&r);
    assert_eq!(r.ledger, r.telemetry.ledger);
    let txt = r.telemetry.text_report();
    for rec in r.ledger.records() {
        assert!(txt.contains(&format!("{} {}", rec.step, rec.count)));
    }
}

#[test]
fn ranks_share_one_subcycle_depth() {
    // The smallest box found on which the ranks' own CFL rungs disagree
    // (`small(8)` is the smallest box two ranks hold; seed 37 the first
    // of seeds 1-80 that splits them): in step 1, rank 0's deepest owned
    // rung is 1 and rank 1's is 0. Left rank-local, rank 0 ran 2
    // substeps and rank 1 ran 1 while the report said 2 for both.
    let mut c = SimConfig::small(8);
    c.pm_steps = 2;
    c.seed = 37;
    c.analysis_every = 0;
    c.checkpoint_every = 0;
    let r = run_simulation(&c, 2);
    assert_eq!(
        r.steps.iter().map(|s| s.substeps).collect::<Vec<_>>(),
        [1, 2]
    );
    assert_updates_match_substeps(&r);
}

#[test]
fn first_step_subcycles_like_the_rest() {
    // The CFL rungs come from the step's own opening forces, so the
    // first step after a start (or a resume) is as deep as its gas asks —
    // not one substep for want of a signal velocity from a step before.
    let mut c = SimConfig::small(16);
    c.seed = 5;
    c.a_init = 1.0 / 1.5;
    c.a_final = 1.0;
    c.pm_steps = 3;
    c.analysis_every = 0;
    c.checkpoint_every = 0;
    let r = run_simulation(&c, 2);
    assert_eq!(r.steps[0].substeps, r.steps[1].substeps);
    assert_updates_match_substeps(&r);
}

#[test]
fn deeper_rungs_cost_more_substeps() {
    let (mut c, _dir) = cfg("rungs", Physics::HydroAdiabatic);
    c.flat_stepping = true;
    c.max_rung = 3;
    let r = run_simulation(&c, 1);
    assert!(r.steps.iter().all(|s| s.substeps == 8));
    // Flat stepping at rung 3 does 8x the updates of rung 0.
    let (mut c0, _dir0) = cfg("rungs0", Physics::HydroAdiabatic);
    c0.flat_stepping = true;
    c0.max_rung = 0;
    let r0 = run_simulation(&c0, 1);
    assert!(r0.steps.iter().all(|s| s.substeps == 1));
    assert!(
        r.counters.pairs > 4 * r0.counters.pairs,
        "subcycling should multiply pair work: {} vs {}",
        r.counters.pairs,
        r0.counters.pairs
    );
}
