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
use hacc_gpusim::{sweep, DeviceSpec, ExecMode, KernelCounters};
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
        |leaf| cm.leaves[leaf as usize].range(),
        |a, b| cm.image_shift(a, b),
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
    use hacc_gpusim::reference;
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

    /// The production sweep (symmetric tiles over lane-compacted leaf
    /// pairs) against the dense one-sided oracle over the same list: the
    /// same bits in every acceleration, and pairs evaluated + pairs culled
    /// equal to the oracle's list-sized count. Returns (evaluated, culled).
    fn assert_matches_dense_reference(
        pos: &[[f64; 3]],
        mass: &[f64],
        cm: &ChainingMesh,
        cfg: &GravConfig,
        n_sinks: usize,
    ) -> (u64, u64) {
        let tiled = grav_step_sinks(pos, mass, cm, cfg, n_sinks);
        // `grav_step_sinks` with the oracle swapped in for the sweep.
        let pairs = cm.interaction_pairs(cfg.table().r_cut(), Some(&cm.sink_leaves(n_sinks)));
        let states: Vec<GravState> = cm
            .order
            .iter()
            .map(|&i| GravState { pos: pos[i as usize], mass: mass[i as usize] })
            .collect();
        let mut accums = vec![GravAccum::default(); pos.len()];
        let mut rc = KernelCounters::default();
        reference::sweep(
            &cfg.kernel,
            &cfg.device,
            cfg.mode,
            |leaf| cm.leaves[leaf as usize].range(),
            |a, b| cm.image_shift(a, b),
            &pairs,
            &states,
            &mut accums,
            &mut rc,
        );
        let mut accel = vec![[0.0f64; 3]; pos.len()];
        for (slot, &i) in cm.order.iter().enumerate().filter(|(_, &i)| (i as usize) < n_sinks) {
            accel[i as usize] = accums[slot].acc.map(|a| cfg.g_newton * a);
        }
        assert_eq!(tiled.accel, accel);
        assert_eq!(rc.culled_pairs, 0);
        assert_eq!(tiled.counters.list_pairs(), rc.pairs);
        (tiled.counters.pairs, tiled.counters.culled_pairs)
    }

    fn cloud(rng: &mut rand::rngs::StdRng, n: usize, extent: f64) -> (Vec<[f64; 3]>, Vec<f64>) {
        let pos = (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..extent),
                    rng.gen_range(0.0..extent),
                    rng.gen_range(0.0..extent),
                ]
            })
            .collect();
        let mass = (0..n).map(|_| rng.gen_range(0.5..2.0)).collect();
        (pos, mass)
    }

    #[test]
    fn tiled_symmetric_matches_reference_executor_bitwise() {
        // Leaf sizes straddle the tile width; most of every 64-lane leaf
        // is out of reach of its partner's box and never reaches a tile.
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let (pos, mass) = cloud(&mut rng, 400, 12.0);
        let cfg = GravConfig::new(2.0, 0.8, 0.05);
        let cm = mesh_for(&pos, 12.0, 6.0);
        let (evaluated, culled) = assert_matches_dense_reference(&pos, &mass, &cm, &cfg, 400);
        assert!(evaluated > 0 && culled > 0, "{evaluated} evaluated, {culled} culled");
    }

    #[test]
    fn leaves_meeting_whole_across_the_seam_are_moved_not_swept_in_place() {
        // Two 40-particle clusters hugging either end of the wrapped x
        // axis: every lane of each reaches the other's moved box, so the
        // compaction culls nobody, and the pair must still be swept
        // against the moved leaf.
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut pos = Vec::new();
        for x0 in [0.0, 11.5] {
            for _ in 0..40 {
                let yz = [rng.gen_range(5.0..6.0), rng.gen_range(5.0..6.0)];
                pos.push([rng.gen_range(x0..x0 + 0.5), yz[0], yz[1]]);
            }
        }
        let mass = vec![1.0; pos.len()];
        let cfg = GravConfig::new(1.0, 0.5, 0.02);
        let cm = ChainingMesh::build_wrapped(
            &pos,
            [0.0; 3],
            [12.0; 3],
            [true, false, false],
            &CmConfig { bin_width: 4.0, max_leaf: 64 },
        );
        assert_eq!(cm.n_leaves(), 2);
        assert!(cm.image_shift(0, 1).is_some());
        let (evaluated, culled) = assert_matches_dense_reference(&pos, &mass, &cm, &cfg, 80);
        assert_eq!((evaluated, culled), (2 * 780 + 1600, 0));
        // Momentum: the clusters pull on each other across the seam.
        let r = grav_step(&pos, &mass, &cm, &cfg);
        let pull: f64 = r.accel[..40].iter().map(|a| a[0]).sum();
        assert!(pull < 0.0, "cluster at x = 0 pulled toward +x ({pull})");
    }

    use hacc_rt::prop::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Clouds of every density and leaf size, cutoffs from a fraction
        // of a bin to a whole one, any sink prefix.
        #[test]
        fn culled_sweep_matches_dense_reference_on_random_clouds(
            seed in 0u64..u64::MAX,
            n in 1usize..500,
            max_leaf in 1usize..80,
            split_scale in 0.1f64..0.57,
            sink_frac in 0.0f64..1.0,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (pos, mass) = cloud(&mut rng, n, 12.0);
            let cfg = GravConfig::new(1.0, split_scale, 0.02);
            let cm = ChainingMesh::build(
                &pos,
                [0.0; 3],
                [12.0; 3],
                &CmConfig { bin_width: 4.0, max_leaf },
            );
            let n_sinks = (sink_frac * n as f64) as usize;
            assert_matches_dense_reference(&pos, &mass, &cm, &cfg, n_sinks);
        }

        // The same across periodic seams: a mesh wrapped along the axes
        // of `wrap_mask`, positions drifted up to `slack` past its ends.
        // The second leaf of a wrapped pair is moved through scratch, on
        // the compacted and the dense path alike.
        #[test]
        fn culled_sweep_matches_dense_reference_across_periodic_seams(
            seed in 0u64..u64::MAX,
            n in 1usize..500,
            max_leaf in 1usize..80,
            wrap_mask in 1usize..8,
            slack in 0.0f64..0.5,
            sink_frac in 0.0f64..1.0,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (mut pos, mass) = cloud(&mut rng, n, 12.0 + 2.0 * slack);
            for p in &mut pos {
                *p = p.map(|x| x - slack);
            }
            let cfg = GravConfig::new(1.0, 0.5, 0.02);
            let wrap = [0, 1, 2].map(|d| wrap_mask >> d & 1 == 1);
            let cm = ChainingMesh::build_wrapped(
                &pos,
                [0.0; 3],
                [12.0; 3],
                wrap,
                &CmConfig { bin_width: 4.0, max_leaf },
            );
            let n_sinks = (sink_frac * n as f64) as usize;
            assert_matches_dense_reference(&pos, &mass, &cm, &cfg, n_sinks);
        }
    }

    #[test]
    fn particles_planted_at_the_cutoff_of_the_partner_box_match_reference_bitwise() {
        // A cluster whose box starts at x = 7.5, its corner particle first;
        // lanes planted on the same y, z at exactly r_cut from it, one ulp
        // either side, past the cull margin and well inside — a leaf of
        // their own, one bin below the cluster's.
        let cfg = GravConfig::new(1.0, 0.5, 0.05);
        let r_cut = cfg.table().r_cut();
        assert_eq!(r_cut, 3.5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut pos = vec![[7.5, 5.0, 5.0]];
        for _ in 0..60 {
            pos.push([
                rng.gen_range(7.5..10.0),
                rng.gen_range(4.0..6.0),
                rng.gen_range(4.0..6.0),
            ]);
        }
        let n_cluster = pos.len();
        let on = 7.5 - r_cut;
        for x in [on.next_up(), on, on.next_down(), on * (1.0 - 1e-9), on + 0.5] {
            pos.push([x, 5.0, 5.0]);
        }
        let mass: Vec<f64> = (0..pos.len()).map(|_| rng.gen_range(0.5..2.0)).collect();
        let cm = mesh_for(&pos, 14.0, 3.5);
        let (_, culled) = assert_matches_dense_reference(&pos, &mass, &cm, &cfg, pos.len());
        assert!(culled > 0);
        // On the cutoff the force is exactly zero, one ulp inside it is not
        // (the corner particle is the only one in range of that lane).
        // Only the planted lanes' pull on each other is left of the ones
        // on or past the cutoff; one ulp inside it the corner particle
        // still pulls (+x).
        let r = grav_step(&pos, &mass, &cm, &cfg);
        let alone = grav_step(&pos[n_cluster..], &mass[n_cluster..], &mesh_for(&pos[n_cluster..], 14.0, 3.5), &cfg);
        assert!(r.accel[n_cluster][0] > alone.accel[0][0]);
        assert_eq!(r.accel[n_cluster + 1..n_cluster + 4], alone.accel[1..4]);
    }

    #[test]
    fn culls_against_the_particles_not_the_grown_mesh_boxes() {
        // The driver builds one mesh per PM step and grows its leaf boxes
        // as particles drift (`cm_all`): the interaction list comes from
        // the grown boxes, the cull from where the particles are now.
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let (mut pos, mass) = cloud(&mut rng, 3000, 12.0);
        let cfg = GravConfig::new(1.0, 0.2, 0.02);
        let mut cm = mesh_for(&pos, 12.0, 4.0);
        let built = cm.interaction_pairs(cfg.table().r_cut(), None).len();
        for p in &mut pos {
            for x in p.iter_mut() {
                *x = (*x + rng.gen_range(-0.4..0.4)).clamp(0.0, 12.0);
            }
        }
        cm.grow_aabbs(&pos, None);
        assert!(cm.interaction_pairs(cfg.table().r_cut(), None).len() > built);
        let (_, culled) = assert_matches_dense_reference(&pos, &mass, &cm, &cfg, 2000);
        assert!(culled > 0);
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
