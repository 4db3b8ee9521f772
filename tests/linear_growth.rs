//! Physics integration test: linear growth of structure.
//!
//! The whole solver stack (ICs → PM + tree gravity → kick/drift) must
//! reproduce linear perturbation theory: large-scale power grows as the
//! square of the linear growth factor, `P(k, a) ∝ D²(a)`. This exercises
//! hacc-units (growth), hacc-core (ICs, driver), hacc-mesh/swfft (PM),
//! hacc-grav (short range), and hacc-analysis (P(k)) in one shot.

use frontier_sim::analysis::measure_power;
use frontier_sim::core::ic::distributed_ics;
use frontier_sim::core::{run_simulation, Physics, SimConfig};
use frontier_sim::mesh::{PmConfig, PmSolver};
use frontier_sim::ranks::World;
use frontier_sim::units::{Background, LinearPower};

/// P(k) of the driver's ICs, generated and measured on two ranks (the
/// deposit routes each particle to its plane owner, so they need no
/// homing).
fn measure_ic_power(cfg: &SimConfig) -> Vec<(f64, f64)> {
    let bg = Background::new(cfg.cosmology);
    let power = LinearPower::new(cfg.cosmology);
    World::run(2, |comm| {
        let store = distributed_ics(cfg, &bg, &power, comm);
        let pm = PmSolver::new(
            comm,
            PmConfig {
                n: cfg.ngrid,
                box_size: cfg.box_size,
                prefactor: 1.0,
                split_scale: 0.0,
                deconvolve_cic: false,
            },
        );
        let (dk, y0, ny) = pm.density_k(comm, &store.pos, &store.mass);
        measure_power(comm, &dk, cfg.ngrid, y0, ny, cfg.box_size)
            .into_iter()
            .map(|b| (b.k, b.power))
            .collect()
    })
    .swap_remove(0)
}

#[test]
fn large_scale_power_grows_as_d_squared() {
    let mut cfg = SimConfig::small(12);
    cfg.physics = Physics::GravityOnly;
    cfg.box_size = 96.0; // 8 Mpc/h spacing: large-scale modes stay linear
    cfg.a_init = 0.20;
    cfg.a_final = 0.32;
    cfg.pm_steps = 4;
    cfg.max_rung = 0;
    cfg.analysis_every = 0;
    cfg.checkpoint_every = 0;

    let p_init = measure_ic_power(&cfg);
    let report = run_simulation(&cfg, 2);
    let bg = Background::new(cfg.cosmology);
    let expected = (bg.growth_factor(cfg.a_final) / bg.growth_factor(cfg.a_init)).powi(2);

    // Average the measured growth over the three largest-scale bins
    // (smallest k), which have the most linear dynamics.
    let mut ratios = Vec::new();
    for bin in report.power.iter().take(3) {
        if let Some((_, p0)) = p_init
            .iter()
            .find(|(k0, _)| (k0 - bin.k).abs() < 1e-9)
        {
            if *p0 > 0.0 {
                ratios.push(bin.power / p0);
            }
        }
    }
    assert!(ratios.len() >= 2, "not enough comparable bins");
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        (mean_ratio / expected - 1.0).abs() < 0.35,
        "growth mismatch: measured {mean_ratio:.3}, linear theory {expected:.3} \
         (ratios per bin: {ratios:?})"
    );
    // And it must actually have grown.
    assert!(mean_ratio > 1.1, "no growth measured: {mean_ratio}");
}

#[test]
fn ic_power_matches_input_spectrum_shape() {
    // The IC generator must imprint the linear spectrum: measured P(k)
    // at the initial time should be within sampling noise of
    // P_lin(k) D^2(a_init), bin by bin at large scales.
    let mut cfg = SimConfig::small(16);
    cfg.box_size = 128.0;
    cfg.a_init = 0.2;
    let measured = measure_ic_power(&cfg);
    let bg = Background::new(cfg.cosmology);
    let lin = LinearPower::new(cfg.cosmology);
    let d2 = bg.growth_factor(cfg.a_init).powi(2);
    let mut checked = 0;
    for (k, p) in measured.iter().take(4) {
        let expect = lin.pk(*k) * d2;
        if expect <= 0.0 {
            continue;
        }
        let ratio = p / expect;
        assert!(
            (0.25..4.0).contains(&ratio),
            "P({k:.3}) = {p:.3e} vs linear {expect:.3e} (ratio {ratio:.2})"
        );
        checked += 1;
    }
    assert!(checked >= 3);
}
