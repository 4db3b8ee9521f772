//! Integration: the final P(k) comes from the last closing solve. That
//! solve deposits and transforms the final positions anyway, so the final
//! analysis bins its density spectrum `rho(k)` before the Green's function
//! overwrites it, scaled to the overdensity — and must report what
//! depositing those positions again, as an overdensity, would.

mod common;

use common::TempRunDir;
use frontier_sim::analysis::measure_power;
use frontier_sim::analysis::power::PowerBin;
use frontier_sim::core::{run_simulation, Physics, SimConfig};
use frontier_sim::iosim::TieredWriter;
use frontier_sim::mesh::{PmConfig, PmSolver};
use frontier_sim::ranks::World;
use frontier_sim::swfft::DistFft3d;
use std::path::Path;

/// One PM step of `SimConfig::small(n)` (grid and lattice both `n`),
/// checkpointed so the final positions can be read back per rank.
fn cfg(n: usize, physics: Physics, dir: &Path) -> SimConfig {
    let mut c = SimConfig::small(n);
    c.physics = physics;
    c.pm_steps = 1;
    c.max_rung = 0;
    c.analysis_every = 0;
    c.checkpoint_every = 1;
    c.seed = 21;
    c.io_dir = Some(dir.to_path_buf());
    c
}

/// P(k) of the final positions through the path the final analysis took
/// before it read the closing solve: each rank deposits its checkpointed
/// particles again, forms `delta = rho / rho_mean - 1`, transforms it and
/// bins `delta(k)`.
fn redeposited_power(cfg: &SimConfig, ranks: usize, dir: &Path) -> Vec<PowerBin> {
    let n = cfg.ngrid;
    World::run(ranks, |comm| {
        let pfs = dir.join("pfs").join(format!("rank-{}", comm.rank()));
        let (_, blocks) = TieredWriter::load_latest_valid(&pfs).unwrap();
        let col = |name: &str| blocks.iter().find(|b| b.name == name).unwrap().as_f64();
        let (x, y, z, mass) = (col("x"), col("y"), col("z"), col("mass"));
        let pos: Vec<[f64; 3]> = (0..x.len()).map(|i| [x[i], y[i], z[i]]).collect();
        let pm = PmSolver::new(comm, PmConfig::new(n, cfg.box_size, 1.0));
        let mut delta = pm.mass_slab(comm, &pos, &mass);
        let total = comm.all_reduce_f64(delta.iter().sum(), |a, b| a + b);
        let mean_per_cell = total / (n * n * n) as f64;
        for m in &mut delta {
            *m = *m / mean_per_cell - 1.0;
        }
        let fft = DistFft3d::new(comm, n);
        let delta_k = fft.forward_real(comm, delta);
        measure_power(comm, &delta_k, n, fft.y0, fft.ny, cfg.box_size)
    })
    .swap_remove(0)
}

#[test]
fn closing_solve_power_matches_density_k() {
    // A radix-2, an even Bluestein and an odd grid; one rank, even and
    // uneven slabs.
    for physics in [Physics::GravityOnly, Physics::Hydro] {
        for n in [16usize, 12, 17] {
            for ranks in [1usize, 2, 3] {
                let dir = TempRunDir::new(&format!("{physics:?}-{n}-{ranks}"));
                let c = cfg(n, physics, dir.path());
                let got = run_simulation(&c, ranks).power;
                let want = redeposited_power(&c, ranks, dir.path());
                let tag = format!("{physics:?} n={n} ranks={ranks}");
                assert_eq!(got.len(), want.len(), "{tag}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.modes, w.modes, "{tag}");
                    assert_eq!(g.k.to_bits(), w.k.to_bits(), "{tag}");
                    assert!(
                        (g.power - w.power).abs() <= 1e-12 * w.power,
                        "{tag} k={}: {} vs {}",
                        w.k,
                        g.power,
                        w.power
                    );
                }
            }
        }
    }
}
