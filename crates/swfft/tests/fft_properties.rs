//! Property tests for the distributed FFT: forward→inverse round-trip
//! and Parseval's theorem across grid sizes {16, 32, 64} and world
//! sizes {1, 2, 4}, for the complex transforms and the real ones (half
//! spectrum, each stored mode with an unstored conjugate counted twice).
//!
//! The field at every global grid point is a pure function of (seed,
//! global index), so the same physical field is laid out across any
//! rank count — a failure on one decomposition but not another points
//! straight at the transpose.

use hacc_ranks::World;
use hacc_rt::prop::prelude::*;
use hacc_rt::rng::{Rng, StdRng};
use hacc_swfft::dist::half_width;
use hacc_swfft::{Complex64, DistFft3d};

const SIZES: [usize; 3] = [16, 32, 64];
const WORLDS: [usize; 3] = [1, 2, 4];

/// The deterministic test field at global grid point index `gid`.
fn field(seed: u64, gid: u64) -> Complex64 {
    let mut rng = StdRng::stream(seed, gid);
    Complex64::new(rng.gen_range(-1.0f64..1.0), rng.gen_range(-1.0f64..1.0))
}

/// Run one forward+inverse on `ranks` ranks; panics if the round-trip
/// or Parseval's theorem fails.
fn check(n: usize, ranks: usize, seed: u64) {
    let stats = World::run(ranks, move |comm| {
        let plan = DistFft3d::new(comm, n);
        let original: Vec<Complex64> = (0..plan.local_len())
            .map(|i| {
                let lx = i / (n * n);
                let gid = ((plan.x0 + lx) * n * n + i % (n * n)) as u64;
                field(seed, gid)
            })
            .collect();
        let mut data = original.clone();

        plan.forward(comm, &mut data);
        let sum_k2: f64 = data.iter().map(|c| c.norm_sqr()).sum();

        plan.inverse(comm, &mut data);
        let max_err = original
            .iter()
            .zip(&data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        let sum_x2: f64 = original.iter().map(|c| c.norm_sqr()).sum();
        (sum_x2, sum_k2, max_err)
    });

    let sum_x2: f64 = stats.iter().map(|s| s.0).sum();
    let sum_k2: f64 = stats.iter().map(|s| s.1).sum();
    let max_err = stats.iter().map(|s| s.2).fold(0.0f64, f64::max);

    // Round-trip: inverse(forward(x)) == x to FFT roundoff.
    prop_assert!(
        max_err < 1e-10,
        "round-trip error {max_err:.2e} at n={n} ranks={ranks}"
    );
    // Parseval (forward unnormalized): sum|X|^2 = N * sum|x|^2.
    let n_total = (n * n * n) as f64;
    let rel = (sum_k2 / n_total - sum_x2).abs() / sum_x2;
    prop_assert!(
        rel < 1e-12,
        "Parseval violated by rel {rel:.2e} at n={n} ranks={ranks}"
    );
}

/// [`check`] for the real transforms: the field's real part through
/// `forward_real` and `inverse_real`.
fn check_real(n: usize, ranks: usize, seed: u64) {
    let stats = World::run(ranks, move |comm| {
        let plan = DistFft3d::new(comm, n);
        let w = half_width(n);
        let original: Vec<f64> = (0..plan.local_len())
            .map(|i| field(seed, (plan.x0 * n * n + i) as u64).re)
            .collect();
        let half = plan.forward_real(comm, original.clone());
        // Bins 0 < z < n/2 stand for their unstored conjugates too.
        let sum_k2: f64 = half
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let z = i % w;
                let weight = if z == 0 || 2 * z == n { 1.0 } else { 2.0 };
                weight * c.norm_sqr()
            })
            .sum();
        let back = plan.inverse_real::<1>(comm, half);
        let max_err = original
            .iter()
            .zip(back.field(0).values())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let sum_x2: f64 = original.iter().map(|x| x * x).sum();
        (sum_x2, sum_k2, max_err)
    });

    let sum_x2: f64 = stats.iter().map(|s| s.0).sum();
    let sum_k2: f64 = stats.iter().map(|s| s.1).sum();
    let max_err = stats.iter().map(|s| s.2).fold(0.0f64, f64::max);
    prop_assert!(
        max_err < 1e-12,
        "real round-trip error {max_err:.2e} at n={n} ranks={ranks}"
    );
    let rel = (sum_k2 / (n * n * n) as f64 - sum_x2).abs() / sum_x2;
    prop_assert!(
        rel < 1e-12,
        "real Parseval violated by rel {rel:.2e} at n={n} ranks={ranks}"
    );
}

/// Deterministic full coverage of the size × world-size matrix.
#[test]
fn roundtrip_and_parseval_all_combinations() {
    for n in SIZES {
        for ranks in WORLDS {
            check(n, ranks, 0x5EED_F00D);
            check_real(n, ranks, 0x5EED_F00D);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn roundtrip_and_parseval_random_fields(
        seed in 0u64..u64::MAX,
        combo in 0usize..9,
    ) {
        check(SIZES[combo % 3], WORLDS[combo / 3], seed);
        check_real(SIZES[combo % 3], WORLDS[combo / 3], seed);
    }

    #[test]
    fn spectrum_is_decomposition_invariant(seed in 0u64..u64::MAX) {
        // The k-space power at every mode must not depend on how many
        // ranks computed it: gather |X|^2 by global (y, x, z) index and
        // compare 1-rank vs 4-rank layouts exactly to roundoff.
        let n = 16;
        let spectrum = |ranks: usize| -> Vec<f64> {
            let mut global = vec![0.0f64; n * n * n];
            for part in World::run(ranks, move |comm| {
                let plan = DistFft3d::new(comm, n);
                let mut data: Vec<Complex64> = (0..plan.local_len())
                    .map(|i| {
                        let lx = i / (n * n);
                        let gid = ((plan.x0 + lx) * n * n + i % (n * n)) as u64;
                        field(seed, gid)
                    })
                    .collect();
                plan.forward(comm, &mut data);
                data.iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let (ly, rest) = (i / (n * n), i % (n * n));
                        let (kx, ky, kz) = plan.k_index(ly, rest / n, rest % n);
                        ((ky * n + kx) * n + kz, c.norm_sqr())
                    })
                    .collect::<Vec<_>>()
            }) {
                for (k, p) in part {
                    global[k] = p;
                }
            }
            global
        };
        let one = spectrum(1);
        let four = spectrum(4);
        for (k, (a, b)) in one.iter().zip(&four).enumerate() {
            let scale = a.abs().max(1.0);
            prop_assert!(
                (a - b).abs() < 1e-9 * scale,
                "mode {k} differs between 1 and 4 ranks: {a} vs {b}"
            );
        }
    }
}
