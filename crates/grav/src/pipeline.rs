//! Per-rank short-range gravity evaluation over the chaining mesh.
//!
//! Accelerations are computed for the *sinks* only — the particle prefix
//! `[0, n_sinks)` whose result the caller reads (a rank's owned particles;
//! the overload ghosts behind them are sources and nothing else). Leaf
//! pairs with no sink on either side are dropped from the interaction
//! list before the launch, so they cost nothing and `counters.pairs`
//! counts the pairs actually swept. [`grav_step`] is the all-sinks form.

use crate::kernel::{GravAccum, GravState, GravityKernel};
use crate::split::ForceSplitTable;
use hacc_gpusim::{sweep, DeviceSpec, ExecMode, KernelCounters, LeafExec};
use hacc_tree::ChainingMesh;

/// Entries in the cached force-splitting table.
const SPLIT_TABLE_SIZE: usize = 8192;

/// Configuration of the short-range gravity solve.
///
/// Owns the [`GravityKernel`] and its tabulated [`ForceSplitTable`], built
/// once in [`GravConfig::new`] and borrowed by every [`grav_step`] call.
#[derive(Debug, Clone)]
pub struct GravConfig {
    /// Newton's constant in the caller's unit system.
    pub g_newton: f64,
    /// Gaussian split scale `r_s` (must match the PM filter). Descriptive
    /// after construction: call [`GravConfig::rebuild_table`] if changed.
    pub split_scale: f64,
    /// Plummer softening length. Descriptive after construction: call
    /// [`GravConfig::rebuild_table`] if changed.
    pub softening: f64,
    /// Simulated device.
    pub device: DeviceSpec,
    /// Kernel formulation.
    pub mode: ExecMode,
    /// The kernel, holding the cached splitting/softening table.
    kernel: GravityKernel,
}

impl GravConfig {
    /// Defaults: warp-split kernels on an MI250X GCD.
    pub fn new(g_newton: f64, split_scale: f64, softening: f64) -> Self {
        Self {
            g_newton,
            split_scale,
            softening,
            device: DeviceSpec::mi250x_gcd(),
            mode: ExecMode::WarpSplit,
            kernel: GravityKernel {
                table: ForceSplitTable::new(split_scale, softening, SPLIT_TABLE_SIZE),
            },
        }
    }

    /// The cached splitting table.
    pub fn table(&self) -> &ForceSplitTable {
        &self.kernel.table
    }

    /// Rebuild the cached table after mutating `split_scale`/`softening`.
    pub fn rebuild_table(&mut self) {
        self.kernel.table =
            ForceSplitTable::new(self.split_scale, self.softening, SPLIT_TABLE_SIZE);
    }
}

/// Result of a short-range gravity evaluation.
#[derive(Debug, Clone)]
pub struct GravResult {
    /// Accelerations in original particle order; exactly zero for
    /// non-sinks.
    pub accel: Vec<[f64; 3]>,
    /// Launch counters.
    pub counters: KernelCounters,
}

/// Evaluate short-range gravitational accelerations for all particles:
/// [`grav_step_sinks`] with every particle a sink.
pub fn grav_step(
    pos: &[[f64; 3]],
    mass: &[f64],
    cm: &ChainingMesh,
    cfg: &GravConfig,
) -> GravResult {
    grav_step_sinks(pos, mass, cm, cfg, pos.len())
}

/// Evaluate short-range gravitational accelerations of the sinks
/// `[0, n_sinks)`, sourced by all particles.
///
/// A sink's acceleration is bit-equal to what [`grav_step`] gives it: the
/// swept list is a subsequence of the full one that keeps every pair of a
/// sink-holding leaf, so each sink meets the same partners in the same
/// order. Non-sinks read exactly zero, never a partial sum.
///
/// The chaining mesh must have been built from `pos`; its bins must be at
/// least `r_cut = 7 r_s` wide (asserted), so all interactions stay within
/// one bin neighborhood.
pub fn grav_step_sinks(
    pos: &[[f64; 3]],
    mass: &[f64],
    cm: &ChainingMesh,
    cfg: &GravConfig,
    n_sinks: usize,
) -> GravResult {
    grav_step_with(pos, mass, cm, cfg, n_sinks, LeafExec::Tiled)
}

/// [`grav_step_sinks`] through either executor family (the tests compare
/// them).
fn grav_step_with(
    pos: &[[f64; 3]],
    mass: &[f64],
    cm: &ChainingMesh,
    cfg: &GravConfig,
    n_sinks: usize,
    exec: LeafExec,
) -> GravResult {
    assert_eq!(pos.len(), mass.len());
    let n = pos.len();
    assert!(n_sinks <= n, "{n_sinks} sinks among {n} particles");
    let mut counters = KernelCounters::default();
    if n == 0 {
        return GravResult {
            accel: vec![],
            counters,
        };
    }
    let r_cut = cfg.table().r_cut();
    let widths = cm.widths();
    let nbins = cm.nbins();
    assert!(
        (0..3).all(|d| widths[d] + 1e-12 >= r_cut || nbins[d] <= 2),
        "chaining-mesh bins {widths:?} ({nbins:?} bins) narrower than gravity cutoff {r_cut}"
    );
    let pairs = cm.interaction_pairs(r_cut, Some(&cm.sink_leaves(n_sinks)));

    let states: Vec<GravState> = cm
        .order
        .iter()
        .map(|&i| GravState {
            pos: pos[i as usize],
            mass: mass[i as usize],
        })
        .collect();
    let mut accums = vec![GravAccum::default(); n];
    sweep(
        &cfg.kernel,
        &cfg.device,
        cfg.mode,
        exec,
        |leaf| cm.leaves[leaf as usize].range(),
        &pairs,
        &states,
        &mut accums,
        &mut counters,
    );

    counters.launches = 1;
    let mut accel = vec![[0.0f64; 3]; n];
    for (slot, &i) in cm.order.iter().enumerate() {
        // A non-sink in a sink-holding leaf has a partial sum: not output.
        if (i as usize) < n_sinks {
            let a = &accums[slot].acc;
            accel[i as usize] = [
                cfg.g_newton * a[0],
                cfg.g_newton * a[1],
                cfg.g_newton * a[2],
            ];
        }
    }
    GravResult { accel, counters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_tree::CmConfig;
    use hacc_rt::rand::{self, Rng, SeedableRng};

    fn mesh_for(pos: &[[f64; 3]], extent: f64, bin: f64) -> ChainingMesh {
        ChainingMesh::build(
            pos,
            [0.0; 3],
            [extent; 3],
            &CmConfig {
                bin_width: bin,
                max_leaf: 64,
            },
        )
    }

    #[test]
    fn matches_direct_sum() {
        // Leaf-pair execution must equal the O(N^2) direct sum exactly
        // (it visits the same pairs with the same arithmetic).
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let n = 150;
        let pos: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..12.0),
                    rng.gen_range(0.0..12.0),
                    rng.gen_range(0.0..12.0),
                ]
            })
            .collect();
        let mass: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..2.0)).collect();
        let cfg = GravConfig::new(2.0, 0.8, 0.05);
        let cm = mesh_for(&pos, 12.0, 6.0);
        let r = grav_step(&pos, &mass, &cm, &cfg);

        let table = ForceSplitTable::new(cfg.split_scale, cfg.softening, 8192);
        for i in 0..n {
            let mut direct = [0.0f64; 3];
            for j in 0..n {
                if i == j {
                    continue;
                }
                let dr = [
                    pos[i][0] - pos[j][0],
                    pos[i][1] - pos[j][1],
                    pos[i][2] - pos[j][2],
                ];
                let r2 = dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2];
                let g = table.eval_r2(r2);
                for d in 0..3 {
                    direct[d] -= cfg.g_newton * mass[j] * g * dr[d];
                }
            }
            for d in 0..3 {
                assert!(
                    (r.accel[i][d] - direct[d]).abs() < 1e-10,
                    "particle {i} component {d}: {} vs {}",
                    r.accel[i][d],
                    direct[d]
                );
            }
        }
    }

    #[test]
    fn tiled_symmetric_matches_reference_executor_bitwise() {
        // The production grav_step (symmetric tiles, one evaluation per
        // unordered pair) must reproduce the pre-fix double-evaluation
        // executor bit for bit, with leaf sizes straddling tile widths.
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let n = 400;
        let pos: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..12.0),
                    rng.gen_range(0.0..12.0),
                    rng.gen_range(0.0..12.0),
                ]
            })
            .collect();
        let mass: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..2.0)).collect();
        let cfg = GravConfig::new(2.0, 0.8, 0.05);
        let cm = mesh_for(&pos, 12.0, 6.0);
        let r = grav_step(&pos, &mass, &cm, &cfg);

        // Reference: the identical sweep through the pre-fix executors
        // (both-sides one-sided interact calls).
        let reference = grav_step_with(&pos, &mass, &cm, &cfg, n, LeafExec::Reference);
        assert_eq!(r.accel, reference.accel);
        // Same cost-model pair count, half the actual evaluations.
        assert_eq!(r.counters.pairs, reference.counters.pairs);
    }

    #[test]
    fn sinks_get_the_all_sinks_bits_and_non_sinks_get_zero() {
        // Owned-first layout: the sinks are a spatial slab (as a rank's
        // owned particles are), listed before the rest.
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let n = 600;
        let mut pos: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..24.0),
                    rng.gen_range(0.0..12.0),
                    rng.gen_range(0.0..12.0),
                ]
            })
            .collect();
        pos.sort_by(|a, b| a[0].total_cmp(&b[0]));
        let mass: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..2.0)).collect();
        let cfg = GravConfig::new(2.0, 0.5, 0.05);
        let cm = ChainingMesh::build(
            &pos,
            [0.0; 3],
            [24.0, 12.0, 12.0],
            &CmConfig {
                bin_width: 4.0,
                max_leaf: 16,
            },
        );
        let full = grav_step(&pos, &mass, &cm, &cfg);
        let k = rng.gen_range(100..200);
        let part = grav_step_sinks(&pos, &mass, &cm, &cfg, k);
        assert_eq!(part.accel.len(), n);
        assert_eq!(part.accel[..k], full.accel[..k]);
        assert!(part.accel[..k].iter().any(|a| a != &[0.0; 3]));
        assert!(part.accel[k..].iter().all(|a| a == &[0.0; 3]));
        // The far end of the slab holds leaves without any sink.
        assert!(cm.sink_leaves(k).iter().any(|&m| !m));
        assert!(part.counters.pairs < full.counters.pairs);

        let all = grav_step_sinks(&pos, &mass, &cm, &cfg, n);
        assert_eq!(all.accel, full.accel);
        assert_eq!(all.counters.pairs, full.counters.pairs);
        let none = grav_step_sinks(&pos, &mass, &cm, &cfg, 0);
        assert!(none.accel.iter().all(|a| a == &[0.0; 3]));
        assert_eq!(none.counters.pairs, 0);
    }

    #[test]
    fn momentum_conserved() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 300;
        let pos: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                ]
            })
            .collect();
        let mass: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..3.0)).collect();
        let cfg = GravConfig::new(1.0, 0.6, 0.02);
        let cm = mesh_for(&pos, 10.0, 5.0);
        let r = grav_step(&pos, &mass, &cm, &cfg);
        let mut p = [0.0f64; 3];
        let mut scale = 0.0;
        for i in 0..n {
            for d in 0..3 {
                p[d] += mass[i] * r.accel[i][d];
                scale += (mass[i] * r.accel[i][d]).abs();
            }
        }
        for d in 0..3 {
            assert!(p[d].abs() < 1e-11 * scale.max(1.0), "net force {p:?}");
        }
    }

    #[test]
    fn isolated_blob_collapses() {
        // All particles in a compact blob accelerate toward the barycenter.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let n = 100;
        let pos: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    5.0 + rng.gen_range(-1.0..1.0),
                    5.0 + rng.gen_range(-1.0..1.0),
                    5.0 + rng.gen_range(-1.0..1.0),
                ]
            })
            .collect();
        let mass = vec![1.0; n];
        let cfg = GravConfig::new(1.0, 0.7, 0.05);
        let cm = mesh_for(&pos, 10.0, 5.0);
        let r = grav_step(&pos, &mass, &cm, &cfg);
        // Barycenter.
        let mut c = [0.0f64; 3];
        for p in &pos {
            for d in 0..3 {
                c[d] += p[d] / n as f64;
            }
        }
        let mut inward = 0;
        for (p, a) in pos.iter().zip(&r.accel) {
            let dr = [c[0] - p[0], c[1] - p[1], c[2] - p[2]];
            let dot: f64 = (0..3).map(|d| dr[d] * a[d]).sum();
            let rad: f64 = dr.iter().map(|x| x * x).sum::<f64>().sqrt();
            if dot > 0.0 || rad < 0.3 {
                inward += 1;
            }
        }
        assert!(inward > n * 9 / 10, "only {inward}/{n} accelerate inward");
    }

    #[test]
    fn counters_track_pairs() {
        let pos = vec![[1.0, 1.0, 1.0], [1.5, 1.0, 1.0], [9.0, 9.0, 9.0]];
        let mass = vec![1.0; 3];
        let cfg = GravConfig::new(1.0, 0.3, 0.0);
        let cm = mesh_for(&pos, 10.0, 2.5);
        let r = grav_step(&pos, &mass, &cm, &cfg);
        assert!(r.counters.pairs >= 1);
        assert!(r.counters.flops > 0);
    }
}
