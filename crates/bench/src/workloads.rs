//! Prepared short-range leaf-pair workloads for the symmetric-kernel
//! microbenchmarks.
//!
//! These drive `hacc_gpusim::sweep` directly — the same call `grav_step` /
//! `sph_step` make, minus the surrounding pipeline — so the production
//! sweep (symmetric tiles over lane-compacted leaf pairs), the same tiles
//! swept dense and the one-sided oracle `hacc_gpusim::reference::sweep`
//! can be timed head to head over identical interaction lists. All three
//! produce bitwise identical accumulators (asserted in the `gpusim`,
//! `grav`, and `sph` unit tests); here only the throughput differs.

use hacc_gpusim::{
    execute_leaf_pair, execute_leaf_self, reference, sweep, DeviceSpec, ExecMode, KernelCounters,
    SplitKernel,
};
use hacc_grav::{ForceSplitTable, GravState, GravityKernel};
use hacc_sph::hydro::{
    DensityKernel, ForceKernel, ForceState, GeomState, HydroOptions, MomentsKernel,
};
use hacc_sph::{CrkCorrections, CubicSpline};
use hacc_tree::{ChainingMesh, CmConfig, LeafId, MAX_LEAF};

/// A short-range workload frozen at construction: particle states in
/// tree order plus the interaction list, ready for repeated sweeps.
pub struct ShortRangeWorkload<K: SplitKernel> {
    /// The kernel under test.
    pub kernel: K,
    /// Simulated device (tile width = its half-warp).
    pub device: DeviceSpec,
    /// Chaining mesh over the cloud.
    pub cm: ChainingMesh,
    /// Leaf interaction list at the cutoff.
    pub pairs: Vec<(LeafId, LeafId)>,
    /// Per-particle states in tree (slot) order.
    pub states: Vec<K::State>,
}

/// Which sweep of a [`ShortRangeWorkload`] to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// The production sweep: symmetric tiles over lane-compacted leaf
    /// pairs.
    Tiled,
    /// The same tile executors over the full leaves of every listed pair:
    /// the sweep of a kernel that states no reach.
    Dense,
    /// The one-sided oracle, `hacc_gpusim::reference::sweep` (each
    /// unordered pair evaluated twice, never compacted).
    Reference,
}

impl<K: SplitKernel> ShortRangeWorkload<K> {
    /// Run one sweep of `arm`, returning the counters.
    /// `counters.list_pairs()` — the same for every arm — is what the
    /// throughput metrics divide by.
    pub fn run(&self, arm: Arm) -> KernelCounters {
        let mut accums = vec![K::Accum::default(); self.states.len()];
        let mut counters = KernelCounters::default();
        let leaf_range = |leaf: LeafId| self.cm.leaves[leaf as usize].range();
        let (dev, mode) = (&self.device, ExecMode::WarpSplit);
        let (k, pairs, states, c) = (&self.kernel, &self.pairs, &self.states, &mut counters);
        match arm {
            Arm::Tiled => sweep(k, dev, mode, leaf_range, |_, _| None, pairs, states, &mut accums, c),
            Arm::Reference => {
                reference::sweep(k, dev, mode, leaf_range, |_, _| None, pairs, states, &mut accums, c)
            }
            Arm::Dense => {
                // What `sweep` does with a kernel that states no reach:
                // every leaf pair of the list straight to the tile
                // executors, on the full slices.
                for &(a, b) in pairs {
                    let (ra, rb) = (leaf_range(a), leaf_range(b));
                    if a == b {
                        let (s, acc) = (&states[ra.clone()], &mut accums[ra]);
                        execute_leaf_self(k, dev, mode, s, acc, c);
                    } else {
                        let (left, right) = accums.split_at_mut(rb.start);
                        let (si, sj) = (&states[ra.clone()], &states[rb.clone()]);
                        let (ai, aj) = (&mut left[ra], &mut right[..rb.len()]);
                        execute_leaf_pair(k, dev, mode, si, sj, ai, aj, c);
                    }
                }
            }
        }
        counters
    }
}

fn build_mesh(pos: &[[f64; 3]], extent: f64, bin_width: f64) -> ChainingMesh {
    ChainingMesh::build(
        pos,
        [0.0; 3],
        [extent; 3],
        &CmConfig {
            bin_width: bin_width.max(1e-3),
            max_leaf: MAX_LEAF,
        },
    )
}

/// Short-range gravity over a uniform cloud: `n` particles, unit masses,
/// split scale sized so each particle sees a few hundred neighbors.
pub fn grav_workload(n: usize, seed: u64) -> ShortRangeWorkload<GravityKernel> {
    let extent = (n as f64).cbrt();
    let pos = crate::uniform_cloud(n, extent, seed);
    let split_scale = extent / 16.0;
    let table = ForceSplitTable::new(split_scale, 0.1 * split_scale, 8192);
    let cutoff = table.r_cut();
    // Bins exactly at the cutoff: the tightest leaf AABB pruning the
    // locality guarantee allows.
    let cm = build_mesh(&pos, extent, cutoff);
    let pairs = cm.interaction_pairs(cutoff, None);
    let states = cm
        .order
        .iter()
        .map(|&i| GravState {
            pos: pos[i as usize],
            mass: 1.0,
        })
        .collect();
    ShortRangeWorkload {
        kernel: GravityKernel { table },
        device: DeviceSpec::mi250x_gcd(),
        cm,
        pairs,
        states,
    }
}

/// The uniform gas cloud every SPH workload sweeps: positions, the
/// uniform smoothing length, the mesh and its leaf interaction list, in
/// the driver's geometry (`SimConfig::small`): `h` at 1.6 particle
/// spacings (`sph_eta`), bins at twice the driver's cap on `h` (1.75
/// spacings) — 3.5 spacings, its gravity cutoff too — so a leaf holds
/// 50–60 particles in a box ~1.2 supports wide, as the gas leaves of the
/// repository benchmark's hydro workloads do. (Bins *at* the support
/// would give ~20-particle leaves that fit one half-warp tile, which the
/// sweep does not compact.)
fn gas_cloud(n: usize, seed: u64) -> (Vec<[f64; 3]>, f64, ChainingMesh, Vec<(LeafId, LeafId)>) {
    let extent = (n as f64).cbrt();
    let pos = crate::uniform_cloud(n, extent, seed);
    let spacing = extent / (n as f64).cbrt();
    let h = 1.6 * spacing;
    let cm = build_mesh(&pos, extent, 2.0 * 1.75 * spacing);
    let pairs = cm.interaction_pairs(2.0 * h, None);
    (pos, h, cm, pairs)
}

/// A geometry-only SPH kernel (density, moments) over [`gas_cloud`] with
/// unit masses / volumes.
fn geom_workload<K: SplitKernel<State = GeomState>>(
    kernel: K,
    n: usize,
    seed: u64,
) -> ShortRangeWorkload<K> {
    let (pos, h, cm, pairs) = gas_cloud(n, seed);
    let states = cm
        .order
        .iter()
        .map(|&i| GeomState {
            pos: pos[i as usize],
            h,
            m_or_v: 1.0,
        })
        .collect();
    ShortRangeWorkload {
        kernel,
        device: DeviceSpec::mi250x_gcd(),
        cm,
        pairs,
        states,
    }
}

/// The SPH density kernel over the same cloud, mesh and list as
/// [`crk_force_workload`].
pub fn sph_density_workload(n: usize, seed: u64) -> ShortRangeWorkload<DensityKernel<CubicSpline>> {
    geom_workload(
        DensityKernel {
            kernel: CubicSpline,
        },
        n,
        seed,
    )
}

/// The CRK moments kernel over the same cloud, mesh and list as
/// [`crk_force_workload`].
pub fn crk_moments_workload(n: usize, seed: u64) -> ShortRangeWorkload<MomentsKernel<CubicSpline>> {
    geom_workload(
        MomentsKernel {
            kernel: CubicSpline,
        },
        n,
        seed,
    )
}

/// The CRKSPH force kernel over a uniform gas cloud with mixed
/// velocities (so both viscosity branches execute) and uniform `h`.
pub fn crk_force_workload(n: usize, seed: u64) -> ShortRangeWorkload<ForceKernel<CubicSpline>> {
    use hacc_rt::rand::{self, Rng, SeedableRng};
    let (pos, h, cm, pairs) = gas_cloud(n, seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let states = cm
        .order
        .iter()
        .map(|&i| {
            let mut v = [0.0f64; 3];
            for d in &mut v {
                *d = rng.gen_range(-1.0..1.0);
            }
            ForceState {
                pos: pos[i as usize],
                vel: v,
                h,
                p: rng.gen_range(0.5..2.0),
                rho: 1.0,
                cs: rng.gen_range(1.0..3.0),
                vol: 1.0,
                balsara: 1.0,
                corr: CrkCorrections {
                    a: 1.0,
                    b: [0.01, -0.02, 0.005],
                },
            }
        })
        .collect();
    ShortRangeWorkload {
        kernel: ForceKernel {
            kernel: CubicSpline,
            opts: HydroOptions::default(),
        },
        device: DeviceSpec::mi250x_gcd(),
        cm,
        pairs,
        states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "manual timing probe: cargo test --release -p hacc-bench -- --ignored dense"]
    fn dense_in_support_timing_probe() {
        // All-pairs-in-support geometry: isolates the in-support cost
        // ratio of the symmetric vs reference crk_force paths.
        let mut w = crk_force_workload(4_096, 3);
        let extent = 16.0f64;
        let pos = crate::uniform_cloud(4_096, extent, 3);
        let h = extent; // support 2h covers the whole box
        let cm = build_mesh(&pos, extent, 2.0 * h);
        let pairs = cm.interaction_pairs(2.0 * h, None);
        let mut states: Vec<ForceState> = Vec::new();
        for (s, &i) in w.states.iter().zip(cm.order.iter()) {
            let mut st = *s;
            st.pos = pos[i as usize];
            st.h = h;
            states.push(st);
        }
        w.cm = cm;
        w.pairs = pairs;
        w.states = states;
        for arm in [Arm::Tiled, Arm::Dense, Arm::Reference] {
            let t = std::time::Instant::now();
            let c = w.run(arm);
            let el = t.elapsed().as_secs_f64();
            println!(
                "dense {arm:?} pairs={} {:.1} ns/pair",
                c.pairs,
                el / c.pairs as f64 * 1e9
            );
        }
    }

    /// The three arms of one workload sweep one list: the dense and the
    /// reference arm evaluate all of it (the pre-fix bug was doing 2x the
    /// *work* per credited pair, so their throughput ratio is exactly the
    /// symmetric speedup), the production arm evaluates what compaction
    /// leaves and accounts for the rest.
    fn assert_arms_credit_one_list<K: SplitKernel>(w: &ShortRangeWorkload<K>) {
        let tiled = w.run(Arm::Tiled);
        let dense = w.run(Arm::Dense);
        let refr = w.run(Arm::Reference);
        assert!(tiled.pairs > 0 && tiled.culled_pairs > 0);
        assert_eq!(tiled.list_pairs(), refr.pairs);
        assert_eq!((dense.pairs, dense.culled_pairs), (refr.pairs, 0));
        assert_eq!(refr.culled_pairs, 0);
    }

    #[test]
    fn grav_workload_credits_identical_pairs_both_paths() {
        assert_arms_credit_one_list(&grav_workload(2_000, 7));
    }

    #[test]
    fn crk_force_workload_credits_identical_pairs_both_paths() {
        assert_arms_credit_one_list(&crk_force_workload(2_000, 7));
    }

    #[test]
    fn sph_workloads_sweep_one_list() {
        let force = crk_force_workload(2_000, 7).run(Arm::Tiled);
        let density = sph_density_workload(2_000, 7).run(Arm::Tiled);
        let moments = crk_moments_workload(2_000, 7).run(Arm::Tiled);
        assert!(force.pairs > 0);
        assert_eq!(density.pairs, force.pairs);
        assert_eq!(moments.pairs, force.pairs);
        assert_eq!(density.culled_pairs, force.culled_pairs);
    }
}
