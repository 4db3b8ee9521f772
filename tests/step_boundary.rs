//! Integration: every PM-step boundary is one synchronisation point. The
//! closing half-kicks of a step ride on the next step's opening solves,
//! so a run makes one long-range and one short-range solve per boundary,
//! and a run resumed at a boundary is the uninterrupted run, bit for bit.

mod common;

use common::TempRunDir;
use frontier_sim::core::{resume_simulation, run_simulation, Physics, SimConfig, SimReport};
use frontier_sim::iosim::TieredWriter;

/// `SimConfig::small(8)` at `z` 2 → 0.5: the gas asks for 2 substeps in
/// step 0 and 4 in steps 1 and 2 (the hydro modes; gravity-only steps
/// always take one).
fn cfg(physics: Physics) -> SimConfig {
    let mut c = SimConfig::small(8);
    c.physics = physics;
    c.pm_steps = 3;
    c.seed = 7;
    c.a_init = 1.0 / 3.0;
    c.a_final = 1.0 / 1.5;
    c.analysis_every = 0;
    c.checkpoint_every = 0;
    c
}

/// Long-range solves each rank made, from its telemetry spans.
fn long_range_solves(r: &SimReport) -> Vec<usize> {
    r.telemetry
        .ranks
        .iter()
        .map(|t| t.spans.iter().filter(|s| s.phase == "long-range").count())
        .collect()
}

/// Launches of `kernel` per rank (the profile sums them over ranks).
fn launches_per_rank(r: &SimReport, kernel: &str) -> u64 {
    let launches = r.profile.get(kernel).map_or(0, |c| c.launches);
    assert_eq!(launches % r.n_ranks as u64, 0, "{kernel}: {launches} launches");
    launches / r.n_ranks as u64
}

fn substeps(r: &SimReport) -> Vec<u32> {
    r.steps.iter().map(|s| s.substeps).collect()
}

#[test]
fn gravity_run_makes_one_solve_per_step_boundary() {
    let c = cfg(Physics::GravityOnly);
    let r = run_simulation(&c, 2);
    assert_eq!(substeps(&r), [1, 1, 1]);
    // Two solves of each kind per step would be 6; the three steps have
    // four boundaries: the start, two between steps, the end.
    assert_eq!(long_range_solves(&r), [c.pm_steps + 1; 2]);
    assert_eq!(launches_per_rank(&r, "grav_short_range"), 4);
}

#[test]
fn hydro_run_makes_one_solve_per_step_boundary() {
    let c = cfg(Physics::Hydro);
    let r = run_simulation(&c, 2);
    assert_eq!(substeps(&r), [2, 4, 4]);
    assert_eq!(long_range_solves(&r), [c.pm_steps + 1; 2]);
    // Σ substeps + 1 = 11 force evaluations; closing every step itself
    // and opening the next again would be Σ (substeps + 1) = 13.
    for kernel in ["grav_short_range", "sph_density", "crk_moments", "crk_force"] {
        assert_eq!(launches_per_rank(&r, kernel), 11, "{kernel}");
    }
}

/// Resume at the boundary after step 0, which closed with 2 substeps and
/// left its last half-kick to step 1, which takes 4: the resumed run
/// recomputes the merged widths from the checkpointed substep count and
/// lands on the uninterrupted state bit for bit. Gravity-only steps all
/// take one substep; there the test covers the carried half-kick alone.
#[test]
fn resume_across_a_substep_change_is_bitwise() {
    for physics in [Physics::GravityOnly, Physics::HydroAdiabatic, Physics::Hydro] {
        let mut c = cfg(physics);
        c.checkpoint_every = 1;
        c.checkpoint_window = 16;
        let dir = TempRunDir::new(&format!("{physics:?}"));
        c.io_dir = Some(dir.path().to_path_buf());
        let reference = run_simulation(&c, 2);
        if physics != Physics::GravityOnly {
            assert_eq!(substeps(&reference), [2, 4, 4], "{physics:?}");
        }
        // Keep step 0's checkpoint only.
        for rank in 0..2 {
            let pfs = dir.path().join("pfs").join(format!("rank-{rank}"));
            for e in std::fs::read_dir(&pfs).unwrap().flatten() {
                let name = e.file_name().to_string_lossy().into_owned();
                if TieredWriter::parse_step(&name).is_some_and(|s| s > 0) {
                    std::fs::remove_file(e.path()).unwrap();
                }
            }
        }
        let resumed = resume_simulation(&c, 2);
        assert_eq!(resumed.steps[0].step, 1, "{physics:?}");
        assert_eq!(substeps(&resumed), substeps(&reference)[1..], "{physics:?}");
        assert_eq!(
            resumed.final_state_hash, reference.final_state_hash,
            "{physics:?}: resumed run diverged from the uninterrupted one"
        );
    }
}
