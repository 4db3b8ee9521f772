//! Minimum image through a wrapped chaining mesh: the interaction list of
//! a mesh that wraps some of its axes, swept with each wrapped pair's
//! image shift, against the brute-force minimum-image sum over every
//! particle pair — for the SPH density kernel and the short-range gravity
//! kernel.

use hacc_gpusim::{sweep, DeviceSpec, ExecMode, KernelCounters, SplitKernel};
use hacc_grav::{ForceSplitTable, GravState, GravityKernel};
use hacc_rt::prop::prelude::*;
use hacc_rt::rand::{self, Rng, SeedableRng};
use hacc_sph::hydro::{DensityKernel, GeomState};
use hacc_sph::CubicSpline;
use hacc_tree::{ChainingMesh, CmConfig};

/// Largest deviation from the brute-force sum allowed, relative to the
/// largest brute-force value of the field: the two differ only in
/// summation order.
const REL_BOUND: f64 = 1e-12;

/// Every pair `i != j` through the one-sided `interact`, `j` moved to the
/// image nearest `i` along the wrapped axes of `extent`.
fn brute_force<K: SplitKernel>(
    kernel: &K,
    states: &[K::State],
    pos: &[[f64; 3]],
    wrap: [bool; 3],
    extent: [f64; 3],
) -> Vec<K::Accum> {
    let mut out = vec![K::Accum::default(); states.len()];
    for i in 0..states.len() {
        let pi = kernel.partial(&states[i]);
        for j in (0..states.len()).filter(|&j| j != i) {
            let by = [0, 1, 2].map(|d| {
                let x = pos[j][d] - pos[i][d];
                if wrap[d] {
                    -extent[d] * (x / extent[d]).round()
                } else {
                    0.0
                }
            });
            let sj = kernel.translated(&states[j], by);
            kernel.interact(&states[i], &pi, &sj, &kernel.partial(&sj), &mut out[i]);
        }
    }
    out
}

/// The production sweep over the mesh's list, in original order.
fn swept<K: SplitKernel>(
    kernel: &K,
    cm: &ChainingMesh,
    cutoff: f64,
    states: &[K::State],
) -> Vec<K::Accum> {
    let slots: Vec<K::State> = cm.order.iter().map(|&i| states[i as usize]).collect();
    let mut accums = vec![K::Accum::default(); slots.len()];
    sweep(
        kernel,
        &DeviceSpec::mi250x_gcd(),
        ExecMode::WarpSplit,
        |leaf| cm.leaves[leaf as usize].range(),
        |a, b| cm.image_shift(a, b),
        &cm.interaction_pairs(cutoff, None),
        &slots,
        &mut accums,
        &mut KernelCounters::default(),
    );
    let mut out = vec![K::Accum::default(); slots.len()];
    for (slot, &i) in cm.order.iter().enumerate() {
        out[i as usize] = accums[slot];
    }
    out
}

/// `max |got - want| <= REL_BOUND * max |want|` over every component.
fn assert_close(what: &str, got: &[Vec<f64>], want: &[Vec<f64>]) {
    let scale = want.iter().flatten().fold(0.0f64, |m, x| m.max(x.abs()));
    let worst = got
        .iter()
        .flatten()
        .zip(want.iter().flatten())
        .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
    assert!(
        worst <= REL_BOUND * scale,
        "{what}: off by {worst:e} of {scale:e}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // 3–7 unit bins per axis, any mix of wrapped and open axes, cutoffs
    // of half a bin to nearly a whole one, and positions straying past
    // both ends of each axis by up to the margin `1 - cutoff` inside
    // which the list is exact.
    #[test]
    fn wrapped_list_swept_reproduces_the_minimum_image_sum(
        seed in 0u64..u64::MAX,
        n in 2usize..1000,
        bins in 0usize..125,
        wrap_mask in 0usize..8,
        cutoff in 0.5f64..0.95,
        stray in 0.0f64..1.0,
        max_leaf in 1usize..80,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let [nx, ny, nz] = [1, 5, 25].map(|k| 3 + bins / k % 5);
        let extent = [nx as f64, ny as f64, nz as f64];
        let wrap = [0, 1, 2].map(|d| wrap_mask >> d & 1 == 1);
        let slack = stray * (1.0 - cutoff);
        let pos: Vec<[f64; 3]> = (0..n)
            .map(|_| [0, 1, 2].map(|d| rng.gen_range(-slack..extent[d] + slack)))
            .collect();
        let cm = ChainingMesh::build_wrapped(
            &pos,
            [0.0; 3],
            extent,
            wrap,
            &CmConfig { bin_width: 1.0, max_leaf },
        );
        assert_eq!(cm.nbins(), [nx, ny, nz]);

        let pairs = cm.interaction_pairs(cutoff, None);
        let unordered: std::collections::HashSet<(u32, u32)> =
            pairs.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        assert_eq!(unordered.len(), pairs.len(), "a leaf pair listed twice");

        // Density: supports 2h between a third of the cutoff and all of it.
        let density = DensityKernel { kernel: CubicSpline };
        let geom: Vec<GeomState> = pos
            .iter()
            .map(|&p| GeomState {
                pos: p,
                h: rng.gen_range(cutoff / 6.0..cutoff / 2.0),
                m_or_v: rng.gen_range(0.5..2.0),
            })
            .collect();
        let as_vec = |v: Vec<f64>| v.into_iter().map(|x| vec![x]).collect::<Vec<_>>();
        assert_close(
            "density",
            &as_vec(swept(&density, &cm, cutoff, &geom)),
            &as_vec(brute_force(&density, &geom, &pos, wrap, extent)),
        );

        // Gravity: r_cut = 7 r_s is the cutoff.
        let gravity = GravityKernel { table: ForceSplitTable::new(cutoff / 7.0, 0.02, 8192) };
        let grav: Vec<GravState> =
            pos.iter().map(|&p| GravState { pos: p, mass: rng.gen_range(0.5..2.0) }).collect();
        let acc = |v: Vec<hacc_grav::GravAccum>| v.iter().map(|a| a.acc.to_vec()).collect::<Vec<_>>();
        assert_close(
            "gravity",
            &acc(swept(&gravity, &cm, cutoff, &grav)),
            &acc(brute_force(&gravity, &grav, &pos, wrap, extent)),
        );
    }
}
