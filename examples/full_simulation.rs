//! A fuller campaign: the miniature analog of the Frontier-E run.
//!
//! ```sh
//! cargo run --release --example full_simulation
//! ```
//!
//! Evolves a 2×16³-particle box through 8 PM steps with all physics on,
//! checkpoints every step through the tiered I/O path, runs in-situ
//! analysis, and prints the end-to-end report — the same execution
//! structure as the paper's 4-trillion-particle, 625-step flagship, at
//! one-billionth scale.

use frontier_sim::core::timers::Phase;
use frontier_sim::core::{run_simulation, Physics, SimConfig};
use frontier_sim::units::CosmologyParams;

fn main() {
    let mut cfg = SimConfig::small(16);
    cfg.physics = Physics::Hydro;
    cfg.cosmology = CosmologyParams::planck2018();
    cfg.pm_steps = 8;
    cfg.a_init = 0.10; // z = 9, the paper's Fig. 3 early epoch
    cfg.a_final = 0.40; // z = 1.5
    cfg.max_rung = 3;
    cfg.analysis_every = 4;
    cfg.checkpoint_every = 1;

    println!("=== Frontier-E, one-billionth scale ===");
    println!(
        "  particles : {} ({}^3 gas + {}^3 dark matter)",
        cfg.total_particles(),
        cfg.np,
        cfg.np
    );
    println!("  box       : {:.0} Mpc/h", cfg.box_size);
    println!("  PM mesh   : {}^3, {} PM steps", cfg.ngrid, cfg.pm_steps);
    println!(
        "  redshift  : z = {:.1} -> z = {:.1}",
        1.0 / cfg.a_init - 1.0,
        1.0 / cfg.a_final - 1.0
    );

    let ranks = 4;
    // d1: allow: example program timing printout for humans; examples are outside the golden-run contract
    let t0 = std::time::Instant::now();
    let report = run_simulation(&cfg, ranks);
    let wall = t0.elapsed().as_secs_f64();

    println!("\n  completed in {wall:.1} s on {ranks} simulated ranks");
    println!(
        "  (the paper: 196 hours on 9,000 Frontier nodes for 4e12 particles)"
    );

    println!("\n-- evolution --");
    for s in &report.steps {
        let adaptive_speedup = s.rung_stats.speedup();
        println!(
            "  step {:>2}  z = {:>5.2}  substeps {}  adaptive speedup {:>4.1}x  stars {}",
            s.step, s.z, s.substeps, adaptive_speedup, s.stars_formed
        );
    }

    let sr = report.timers.get(Phase::ShortRange);
    let total = report.timers.total();
    println!("\n-- headline checks --");
    println!(
        "  short-range fraction: {:.1}% (paper: 79.6%)",
        sr / total * 100.0
    );
    println!(
        "  particles/s (aggregate): {:.2e} (paper: 4.66e10 on the full machine)",
        report.particles_per_second
    );
    println!(
        "  I/O: {} checkpoints, effective {:.1} TB/s modeled (paper: 5.45 TB/s over 100 PB)",
        report.io.checkpoints,
        report.io.effective_bandwidth_tbs()
    );
    println!(
        "  momentum conservation: |P|/sum m|p| = {:.2e}",
        (report.total_momentum.iter().map(|p| p * p).sum::<f64>()).sqrt()
            / report.momentum_scale.max(1e-300)
    );
    println!(
        "  halos: {}   stars formed: {}   mean utilization: {:.1}%",
        report.n_halos,
        report.total_stars,
        report.utilizations.iter().sum::<f64>() / report.utilizations.len() as f64 * 100.0
    );
}
