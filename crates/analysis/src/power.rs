//! Matter power spectrum measurement from the distributed FFT.
//!
//! `P(k) = V <|delta_k|^2>` with the unnormalized-forward-FFT convention
//! `delta_k = sum_cells delta(x) e^{-ikx}` divided by the cell count, i.e.
//! `P(k) = V |delta_k / N^3|^2`, binned in shells of `|k|`. The overdensity
//! is real, so its spectrum is Hermitian and only the half with `z <= n/2`
//! is transformed and read: a stored mode whose conjugate is not stored
//! (`0 < z < n/2`) counts for both, so bins, mean wavenumbers and mode
//! counts are those of all `n³` modes.

use hacc_ranks::Comm;
use hacc_swfft::dist::half_width;
use hacc_swfft::Complex64;

/// One P(k) bin.
#[derive(Debug, Clone, Copy)]
pub struct PowerBin {
    /// Mean wavenumber of contributing modes, h/Mpc.
    pub k: f64,
    /// Measured power, (Mpc/h)³.
    pub power: f64,
    /// Number of modes in the bin.
    pub modes: u64,
}

/// Measure P(k) from this rank's half-spectrum overdensity slab (layout B
/// of `hacc_swfft::DistFft3d::forward_real`: `delta_k[(ly*n + x)*w + z]`
/// with `w = n/2 + 1`, y-planes `[y0, y0+ny)`), reducing across all ranks.
/// Every rank returns the full binned spectrum.
///
/// Bins are linear in k with width `2 pi / box_size` (the fundamental
/// mode), up to the Nyquist frequency.
pub fn measure_power(
    comm: &mut Comm,
    delta_k: &[Complex64],
    n: usize,
    y0: usize,
    ny: usize,
    box_size: f64,
) -> Vec<PowerBin> {
    let w = half_width(n);
    assert_eq!(delta_k.len(), ny * n * w);
    let kf = 2.0 * std::f64::consts::PI / box_size;
    let n_bins = n / 2;
    let norm = 1.0 / (n as f64).powi(3);
    let volume = box_size * box_size * box_size;

    let signed = |i: usize| -> f64 {
        if i <= n / 2 {
            i as f64
        } else {
            i as f64 - n as f64
        }
    };

    let mut psum = vec![0.0f64; n_bins];
    let mut ksum = vec![0.0f64; n_bins];
    let mut count = vec![0u64; n_bins];
    for ly in 0..ny {
        let my = signed(y0 + ly);
        for x in 0..n {
            let mx = signed(x);
            let row = (ly * n + x) * w;
            for z in 0..w {
                let mz = z as f64;
                let m2 = mx * mx + my * my + mz * mz;
                if m2 == 0.0 {
                    continue;
                }
                let m = m2.sqrt();
                let bin = (m - 0.5).round() as usize;
                if bin >= n_bins {
                    continue;
                }
                // Bins z = 0 and z = n/2 hold their own conjugates.
                let modes = if z == 0 || 2 * z == n { 1 } else { 2 };
                let dk = delta_k[row + z].scale(norm);
                psum[bin] += modes as f64 * volume * dk.norm_sqr();
                ksum[bin] += modes as f64 * m * kf;
                count[bin] += modes;
            }
        }
    }

    // Reduce across ranks (element-wise sums).
    let reduce = |comm: &mut Comm, v: Vec<f64>| -> Vec<f64> {
        comm.all_reduce(v, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect())
    };
    let psum = reduce(comm, psum);
    let ksum = reduce(comm, ksum);
    let count = comm.all_reduce(count, |a, b| {
        a.iter().zip(&b).map(|(x, y)| x + y).collect()
    });

    (0..n_bins)
        .filter(|&b| count[b] > 0)
        .map(|b| PowerBin {
            k: ksum[b] / count[b] as f64,
            power: psum[b] / count[b] as f64,
            modes: count[b],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_ranks::World;
    use hacc_rt::rand::{self, Rng, SeedableRng};
    use hacc_swfft::serial::fft3;
    use hacc_swfft::{DistFft3d, FftPlan};

    /// Build delta(x) on the full grid, run the distributed FFT, measure.
    fn measure_field<F: Fn(usize, usize, usize) -> f64 + Sync>(
        n: usize,
        ranks: usize,
        box_size: f64,
        f: F,
    ) -> Vec<PowerBin> {
        World::run(ranks, |comm| {
            let fft = DistFft3d::new(comm, n);
            let local: Vec<f64> = (0..fft.local_len())
                .map(|i| f(fft.x0 + i / (n * n), i / n % n, i % n))
                .collect();
            let delta_k = fft.forward_real(comm, local);
            measure_power(comm, &delta_k, n, fft.y0, fft.ny, box_size)
        })
        .pop()
        .unwrap()
    }

    /// P(k) of the same field from all `n³` modes of the serial complex
    /// transform, each counted once: what the half spectrum must equal.
    fn full_spectrum_power<F: Fn(usize, usize, usize) -> f64>(
        n: usize,
        box_size: f64,
        f: F,
    ) -> Vec<PowerBin> {
        let mut cube: Vec<Complex64> = (0..n * n * n)
            .map(|i| Complex64::new(f(i / (n * n), i / n % n, i % n), 0.0))
            .collect();
        fft3(&FftPlan::new(n), &mut cube, false);
        let kf = 2.0 * std::f64::consts::PI / box_size;
        let signed = |i: usize| {
            if i <= n / 2 {
                i as f64
            } else {
                i as f64 - n as f64
            }
        };
        let mut bins = vec![(0.0, 0.0, 0u64); n / 2];
        for (i, v) in cube.iter().enumerate() {
            let m = [i / (n * n), i / n % n, i % n].map(signed);
            let m = (m[0] * m[0] + m[1] * m[1] + m[2] * m[2]).sqrt();
            let bin = (m - 0.5).round() as usize;
            if m > 0.0 && bin < bins.len() {
                let p = box_size.powi(3) * v.scale(1.0 / (n * n * n) as f64).norm_sqr();
                bins[bin].0 += m * kf;
                bins[bin].1 += p;
                bins[bin].2 += 1;
            }
        }
        bins.into_iter()
            .filter(|b| b.2 > 0)
            .map(|(k, p, modes)| PowerBin {
                k: k / modes as f64,
                power: p / modes as f64,
                modes,
            })
            .collect()
    }

    #[test]
    fn half_spectrum_equals_full_spectrum() {
        // Even grids (a self-conjugate z = n/2 plane) and an odd one
        // (none); one rank, uneven slabs, and zero-plane ranks (6 on 4).
        let field = |x: usize, y: usize, z: usize| {
            ((x * 31 + y * 17 + z * 7) % 13) as f64 / 13.0 - 0.5 + (x as f64 * 0.9).sin() * 0.2
        };
        for (n, ranks) in [(16usize, 1usize), (12, 3), (17, 2), (4, 6)] {
            let l = 40.0;
            let want = full_spectrum_power(n, l, field);
            let got = measure_field(n, ranks, l, field);
            assert_eq!(got.len(), want.len(), "n={n} ranks={ranks}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.modes, w.modes, "n={n} ranks={ranks}");
                assert!(
                    (g.k - w.k).abs() <= 1e-12 * w.k,
                    "n={n}: k {} vs {}",
                    g.k,
                    w.k
                );
                assert!(
                    (g.power - w.power).abs() <= 1e-12 * w.power,
                    "n={n} ranks={ranks}: power {} vs {}",
                    g.power,
                    w.power
                );
            }
        }
    }

    #[test]
    fn single_mode_lands_in_right_bin() {
        let n = 16;
        let l = 100.0;
        let kf = 2.0 * std::f64::consts::PI / l;
        // delta(x) = A cos(3 * kf * x): power only at |m| = 3.
        let a = 0.02;
        let bins = measure_field(n, 2, l, |x, _, _| {
            a * (3.0 * 2.0 * std::f64::consts::PI * x as f64 / n as f64).cos()
        });
        for b in &bins {
            let m = (b.k / kf).round() as usize;
            if m == 3 {
                // P = V A^2 / 4 spread over the 2 modes in the bin...
                // each of the +-3 modes carries |delta_k|^2 = A^2/4.
                let expect = l * l * l * a * a / 4.0;
                // The m=3 shell holds many modes; only 2 carry power.
                let total = b.power * b.modes as f64;
                assert!(
                    (total / (2.0 * expect) - 1.0).abs() < 1e-6,
                    "total {total} vs {expect}"
                );
            } else {
                assert!(b.power < 1e-12, "leakage at m={m}: {}", b.power);
            }
        }
    }

    #[test]
    fn white_noise_is_flat() {
        let n = 16;
        let l = 50.0;
        // Uncorrelated Gaussian field: P(k) = V sigma^2 / N^3, flat.
        let sigma = 0.1;
        let vals: Vec<f64> = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            (0..n * n * n).map(|_| rng.gen_range(-1.0..1.0) * sigma).collect()
        };
        let bins = measure_field(n, 4, l, |x, y, z| vals[(x * n + y) * n + z]);
        let var = vals.iter().map(|v| v * v).sum::<f64>() / vals.len() as f64
            - (vals.iter().sum::<f64>() / vals.len() as f64).powi(2);
        let expect = l * l * l * var / (n * n * n) as f64;
        // All bins with decent mode counts sit near the expectation.
        for b in bins.iter().filter(|b| b.modes > 100) {
            assert!(
                (b.power / expect - 1.0).abs() < 0.35,
                "bin k={} power {} expect {expect}",
                b.k,
                b.power
            );
        }
    }

    #[test]
    fn rank_count_does_not_change_answer() {
        let n = 12;
        let l = 30.0;
        let field = |x: usize, y: usize, z: usize| {
            (x as f64 * 0.7).sin() + (y as f64 * 1.3).cos() * 0.5 + z as f64 * 0.01
        };
        let b1 = measure_field(n, 1, l, field);
        let b3 = measure_field(n, 3, l, field);
        assert_eq!(b1.len(), b3.len());
        for (a, b) in b1.iter().zip(&b3) {
            assert!((a.power - b.power).abs() < 1e-9 * a.power.abs().max(1.0));
            assert_eq!(a.modes, b.modes);
        }
    }

    #[test]
    fn mode_count_totals() {
        let n = 8;
        let bins = measure_field(n, 2, 10.0, |_, _, _| 0.0);
        let total: u64 = bins.iter().map(|b| b.modes).sum();
        // All nonzero modes within Nyquist shells are counted once.
        assert!(total > 0 && total < (n * n * n) as u64);
    }
}
