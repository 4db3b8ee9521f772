//! Shared infrastructure for the paper-reproduction benchmark harness.
//!
//! Every bench target regenerates one table or figure of the Frontier-E
//! paper, printing PAPER-vs-MEASURED rows (recorded in `EXPERIMENTS.md`).
//! The harness runs miniature configurations of the same code paths; the
//! claims under test are *shapes* — who wins, what dominates, where the
//! crossovers fall — not absolute exascale numbers.

#![forbid(unsafe_code)]

use hacc_core::{run_simulation, Physics, SimConfig, SimReport};
use hacc_gpusim::{DeviceSpec, ExecMode, KernelCounters};

pub mod baseline;
pub mod scaling;
pub mod workloads;

/// Print a formatted table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Print a single paper-vs-measured comparison line.
pub fn compare(label: &str, paper: &str, measured: &str, verdict: bool) {
    println!(
        "  {:<44} paper: {:>14}   measured: {:>14}   [{}]",
        label,
        paper,
        measured,
        if verdict { "shape OK" } else { "MISMATCH" }
    );
}

/// A standard miniature run configuration for benches.
pub fn bench_config(np: usize, steps: usize, physics: Physics) -> SimConfig {
    let mut cfg = SimConfig::small(np);
    cfg.physics = physics;
    cfg.pm_steps = steps;
    cfg.max_rung = 2;
    cfg.analysis_every = steps.max(2) / 2;
    cfg.checkpoint_every = 1;
    cfg.seed = 20250706;
    cfg
}

/// Run a miniature simulation, returning its report.
pub fn mini_run(np: usize, ranks: usize, steps: usize, physics: Physics) -> SimReport {
    run_simulation(&bench_config(np, steps, physics), ranks)
}

/// A uniform (high-redshift-like) particle distribution.
pub fn uniform_cloud(n: usize, extent: f64, seed: u64) -> Vec<[f64; 3]> {
    use hacc_rt::rand::{self, Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            [
                rng.gen_range(0.0..extent),
                rng.gen_range(0.0..extent),
                rng.gen_range(0.0..extent),
            ]
        })
        .collect()
}

/// A clustered (low-redshift-like) distribution: most particles in dense
/// Gaussian blobs, the rest a diffuse background.
pub fn clustered_cloud(n: usize, extent: f64, seed: u64) -> Vec<[f64; 3]> {
    use hacc_rt::rand::{self, Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n_blobs = 8.max(n / 2000);
    let centers: Vec<[f64; 3]> = (0..n_blobs)
        .map(|_| {
            [
                rng.gen_range(0.0..extent),
                rng.gen_range(0.0..extent),
                rng.gen_range(0.0..extent),
            ]
        })
        .collect();
    let sigma = extent * 0.02;
    (0..n)
        .map(|i| {
            if i % 5 == 0 {
                // Diffuse background (20%).
                [
                    rng.gen_range(0.0..extent),
                    rng.gen_range(0.0..extent),
                    rng.gen_range(0.0..extent),
                ]
            } else {
                let c = centers[i % n_blobs];
                let mut p = [0.0f64; 3];
                for (d, v) in p.iter_mut().enumerate() {
                    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    let g = (-2.0 * u1.ln()).sqrt()
                        * (2.0 * std::f64::consts::PI * u2).cos();
                    *v = (c[d] + sigma * g).rem_euclid(extent);
                }
                p
            }
        })
        .collect()
}

/// Run the SPH pipeline over a particle cloud on a device/mode, returning
/// merged counters (the workhorse of the utilization benches).
pub fn sph_workload(
    positions: &[[f64; 3]],
    extent: f64,
    device: DeviceSpec,
    mode: ExecMode,
) -> KernelCounters {
    use hacc_sph::pipeline::{sph_step, SphConfig, SphInput};
    use hacc_sph::CubicSpline;
    use hacc_tree::{ChainingMesh, CmConfig};
    let n = positions.len();
    let vel = vec![[0.0; 3]; n];
    let mass = vec![1.0; n];
    let spacing = extent / (n as f64).cbrt();
    let h = vec![1.3 * spacing; n];
    let u = vec![10.0; n];
    // Bins sized for ~250 particles so base leaves run near the 128-
    // particle target — the coarse-leaf regime the paper's kernels are
    // tuned for (bins may exceed the cutoff; only the reverse is unsafe).
    let cm = ChainingMesh::build(
        positions,
        [0.0; 3],
        [extent; 3],
        &CmConfig {
            bin_width: (6.3 * spacing).max(2.0 * 1.3 * spacing),
            max_leaf: 128,
        },
    );
    let cfg: SphConfig<CubicSpline> = SphConfig {
        device,
        mode,
        ..SphConfig::new()
    };
    let input = SphInput {
        pos: positions,
        vel: &vel,
        mass: &mass,
        h: &h,
        u: &u,
    };
    sph_step(&input, &cm, &cfg).counters.merged()
}

/// Mean and standard deviation.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

/// Artifacts directory for bench outputs (slices, CSVs).
pub fn artifact_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into()),
    )
    .join("../../bench_artifacts");
    std::fs::create_dir_all(&dir).expect("artifact dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clouds_have_requested_size() {
        assert_eq!(uniform_cloud(100, 10.0, 1).len(), 100);
        assert_eq!(clustered_cloud(100, 10.0, 1).len(), 100);
    }

    #[test]
    fn clustered_is_more_clustered_than_uniform() {
        // Variance of per-cell counts is the clustering proxy.
        let count_var = |pts: &[[f64; 3]]| {
            let mut cells = vec![0f64; 8 * 8 * 8];
            for p in pts {
                let i = ((p[0] / 10.0 * 8.0) as usize).min(7);
                let j = ((p[1] / 10.0 * 8.0) as usize).min(7);
                let k = ((p[2] / 10.0 * 8.0) as usize).min(7);
                cells[(i * 8 + j) * 8 + k] += 1.0;
            }
            mean_std(&cells).1
        };
        let u = count_var(&uniform_cloud(5000, 10.0, 3));
        let c = count_var(&clustered_cloud(5000, 10.0, 3));
        assert!(c > 3.0 * u, "clustered σ {c} vs uniform σ {u}");
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }
}
