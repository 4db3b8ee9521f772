//! Fig. 4 — strong and weak scaling, and the Frontier-E throughput star.
//!
//! Paper: 92% strong / 95% weak efficiency from 128 to 9,000 nodes;
//! 46.6 × 10⁹ particles/s at the full-machine point. We sweep simulated
//! rank counts, print efficiencies, and extrapolate to the 72,000-rank
//! partition with the measured weak efficiency.

use hacc_bench::scaling::{
    extrapolate_rate, frontier_per_rank_rate, strong_scaling, weak_scaling, ScalePoint,
};
use hacc_bench::{bench_config, compare, print_table};
use hacc_core::Physics;

fn main() {
    let mut base = bench_config(8, 1, Physics::GravityOnly);
    base.max_rung = 0;
    base.analysis_every = 0;
    base.checkpoint_every = 0;

    let ranks = [1usize, 2, 4, 8];
    // The paper's machine grows its cores with its ranks; this host does
    // not, so an efficiency is comparable only while ranks <= cores.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let on_cores = |points: &[ScalePoint]| {
        *points.iter().rev().find(|p| p.ranks <= cores).expect("the 1-rank point")
    };

    let weak = weak_scaling(&base, 8, &ranks);
    let rows: Vec<Vec<String>> = weak
        .iter()
        .map(|p| {
            vec![
                p.ranks.to_string(),
                format!("{:.2e}", p.particles),
                format!("{:.3}", p.solver_seconds),
                format!("{:.2e}", p.particles_per_second),
                format!("{:.0}%", p.efficiency * 100.0),
            ]
        })
        .collect();
    print_table(
        "Fig. 4 — weak scaling (fixed per-rank load)",
        &["ranks", "particles", "solver [s]", "particles/s", "eff"],
        &rows,
    );
    println!(
        "  (simulated ranks share {cores} physical core(s): past that count they
   serialize, so the verdicts below read the largest point that fits)"
    );

    let strong = strong_scaling(&base, 12, &ranks);
    let rows: Vec<Vec<String>> = strong
        .iter()
        .map(|p| {
            vec![
                p.ranks.to_string(),
                format!("{:.2e}", p.particles),
                format!("{:.3}", p.solver_seconds),
                format!("{:.0}%", p.efficiency * 100.0),
            ]
        })
        .collect();
    print_table(
        "Fig. 4 — strong scaling (fixed total problem, 12^3 sites)",
        &["ranks", "particles", "solver [s]", "eff"],
        &rows,
    );

    let (weak_at, strong_at) = (on_cores(&weak), on_cores(&strong));
    let at = weak_at.ranks;
    let weak_eff = weak_at.efficiency.min(1.0);
    let strong_eff = strong_at.efficiency.min(1.0);
    compare(
        "weak-scaling efficiency on the host's cores",
        "95% (128 -> 9,000 nodes)",
        &format!("{:.0}% (1 -> {at} ranks)", weak_eff * 100.0),
        weak_eff > 0.5,
    );
    compare(
        "strong-scaling efficiency on the host's cores",
        "92%",
        &format!("{:.0}% (1 -> {at} ranks)", strong_eff * 100.0),
        strong_eff > 0.3,
    );
    compare(
        "weak efficiency >= strong efficiency (shape)",
        "95% vs 92%",
        &format!("{:.0}% vs {:.0}%", weak_eff * 100.0, strong_eff * 100.0),
        weak_eff >= strong_eff * 0.8,
    );

    // Machine extrapolation: per-rank rate from the largest weak point,
    // scaled to the 72,000-GCD partition at the paper's 95% efficiency.
    let last = weak.last().unwrap();
    let per_rank = last.particles_per_second / last.ranks as f64;
    let predicted = extrapolate_rate(per_rank, 72_000, 0.95);
    println!(
        "\n  extrapolation: measured per-rank rate {per_rank:.2e} particles/s \
         -> {predicted:.2e} particles/s on 72,000 GCDs at 95% weak efficiency"
    );
    println!(
        "  (paper's star: 46.6e9 particles/s; our per-rank rate reflects \
         CPU-thread emulation, so the extrapolation validates the *model*, \
         not the absolute rate)"
    );
    compare(
        "model reproduces the paper's star from its own inputs",
        "46.6e9 particles/s",
        &format!(
            "{:.1e}",
            extrapolate_rate(frontier_per_rank_rate(), 72_000, 0.95)
        ),
        (extrapolate_rate(frontier_per_rank_rate(), 72_000, 0.95) / 46.6e9 - 1.0).abs() < 1e-9,
    );
}
