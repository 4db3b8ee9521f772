//! Matter power spectrum measurement from the distributed FFT.
//!
//! `P(k) = V <|delta_k|^2>` with the unnormalized-forward-FFT convention
//! `delta_k = sum_cells delta(x) e^{-ikx}` divided by the cell count, i.e.
//! `P(k) = V |delta_k / N^3|^2`, binned in shells of `|k|`. The overdensity
//! is real, so its spectrum is Hermitian and only the half with `z <= n/2`
//! is transformed and read: a stored mode whose conjugate is not stored
//! (`0 < z < n/2`) counts for both, so bins, mean wavenumbers and mode
//! counts are those of all `n³` modes.
//!
//! Each cell's shell and `|m|` come from a table indexed by the integer
//! `m² = mx² + my² + mz²`; the bins reduce in one `all_reduce`.
//! [`density_power`] bins a PM solve's density spectrum `rho(k)` as it
//! stands: the driver's final P(k) needs no deposit or transform of its own.

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
    binned_power(comm, delta_k, n, y0, ny, box_size, None)
}

/// P(k) of the overdensity from this rank's half spectrum of the
/// *density* `rho(k)` (mass per cell volume, the layout of
/// [`measure_power`]), as a PM solve transforms it: for `k != 0`,
/// `delta(k) = rho(k) V / M_total`, so the bins are those of `rho(k)`
/// times `(V / M_total)²`, applied once per bin after the reduction.
/// `local_mass` is this rank's share of the deposited mass; `M_total`, its
/// sum over ranks, rides in the one reduction of the bins.
pub fn density_power(
    comm: &mut Comm,
    rho_k: &[Complex64],
    n: usize,
    y0: usize,
    ny: usize,
    box_size: f64,
    local_mass: f64,
) -> Vec<PowerBin> {
    binned_power(comm, rho_k, n, y0, ny, box_size, Some(local_mass))
}

/// Bin one rank's half spectrum and reduce the bins — power, wavenumber
/// and mode sums, and `local_mass` when given, packed in one vector and
/// folded in rank order by one `all_reduce`. With a mass, the spectrum is
/// `rho(k)` and each bin's power is scaled by `(V / M_total)²`.
fn binned_power(
    comm: &mut Comm,
    spectrum: &[Complex64],
    n: usize,
    y0: usize,
    ny: usize,
    box_size: f64,
    local_mass: Option<f64>,
) -> Vec<PowerBin> {
    let w = half_width(n);
    assert_eq!(spectrum.len(), ny * n * w);
    let kf = 2.0 * std::f64::consts::PI / box_size;
    let n_bins = n / 2;
    let norm = 1.0 / (n as f64).powi(3);
    let volume = box_size * box_size * box_size;
    // |signed wavenumber| of index i along x or y.
    let fold = |i: usize| if i <= n / 2 { i } else { n - i };
    // Per integer m² = mx² + my² + mz² <= 3(n/2)²: its shell and |m|, the
    // bits a per-cell sqrt and round give. The zero mode is in no shell.
    let mut shells: Vec<(usize, f64)> = (0..=3 * (n / 2) * (n / 2))
        .map(|m2| {
            let m = (m2 as f64).sqrt();
            ((m - 0.5).round() as usize, m)
        })
        .collect();
    shells[0].0 = n_bins;

    // [psum | ksum | count | mass]; counts are exact in f64 below 2⁵³.
    let mut sums = vec![0.0f64; 3 * n_bins + 1];
    let (psum, rest) = sums.split_at_mut(n_bins);
    let (ksum, rest) = rest.split_at_mut(n_bins);
    let (count, mass) = rest.split_at_mut(n_bins);
    for ly in 0..ny {
        let my = fold(y0 + ly);
        for x in 0..n {
            let mx = fold(x);
            let mxy2 = mx * mx + my * my;
            let row = &spectrum[(ly * n + x) * w..][..w];
            for (z, c) in row.iter().enumerate() {
                let (bin, m) = shells[mxy2 + z * z];
                if bin >= n_bins {
                    continue;
                }
                // Bins z = 0 and z = n/2 hold their own conjugates.
                let modes = if z == 0 || 2 * z == n { 1.0 } else { 2.0 };
                psum[bin] += modes * volume * c.scale(norm).norm_sqr();
                ksum[bin] += modes * m * kf;
                count[bin] += modes;
            }
        }
    }
    mass[0] = local_mass.unwrap_or(0.0);

    let sums = comm.all_reduce(sums, |mut a, b| {
        for (x, y) in a.iter_mut().zip(&b) {
            *x += y;
        }
        a
    });
    let (psum, rest) = sums.split_at(n_bins);
    let (ksum, rest) = rest.split_at(n_bins);
    let (count, mass) = rest.split_at(n_bins);
    let scale = local_mass.map_or(1.0, |_| (volume / mass[0]).powi(2));
    (0..n_bins)
        .filter(|&b| count[b] > 0.0)
        .map(|b| PowerBin {
            k: ksum[b] / count[b],
            power: psum[b] * scale / count[b],
            modes: count[b] as u64,
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
    use hacc_telem::CollectiveKind;

    /// The binning as it was written before the shell table: a `sqrt` and
    /// a `round` per cell, three reductions. [`measure_power`] must match
    /// it bit for bit.
    fn per_cell_power(
        comm: &mut Comm,
        delta_k: &[Complex64],
        n: usize,
        y0: usize,
        ny: usize,
        box_size: f64,
    ) -> Vec<PowerBin> {
        let w = half_width(n);
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
                    let modes = if z == 0 || 2 * z == n { 1 } else { 2 };
                    let dk = delta_k[row + z].scale(norm);
                    psum[bin] += modes as f64 * volume * dk.norm_sqr();
                    ksum[bin] += modes as f64 * m * kf;
                    count[bin] += modes;
                }
            }
        }
        let reduce = |comm: &mut Comm, v: Vec<f64>| -> Vec<f64> {
            comm.all_reduce(v, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect())
        };
        let psum = reduce(comm, psum);
        let ksum = reduce(comm, ksum);
        let count = comm.all_reduce(count, |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect());
        (0..n_bins)
            .filter(|&b| count[b] > 0)
            .map(|b| PowerBin {
                k: ksum[b] / count[b] as f64,
                power: psum[b] / count[b] as f64,
                modes: count[b],
            })
            .collect()
    }

    #[test]
    fn table_binning_matches_per_cell_sqrt() {
        // Even and odd grids, one rank, uneven slabs, zero-plane ranks.
        let field = |x: usize, y: usize, z: usize| {
            ((x * 29 + y * 13 + z * 5) % 11) as f64 / 11.0 - 0.5 + (z as f64 * 0.7).cos() * 0.3
        };
        for (n, ranks) in [(16usize, 1usize), (12, 3), (17, 2), (9, 4), (4, 6)] {
            let l = 25.0;
            let (got, want) = World::run(ranks, |comm| {
                let fft = DistFft3d::new(comm, n);
                let local: Vec<f64> = (0..fft.local_len())
                    .map(|i| field(fft.x0 + i / (n * n), i / n % n, i % n))
                    .collect();
                let delta_k = fft.forward_real(comm, local);
                let got = measure_power(comm, &delta_k, n, fft.y0, fft.ny, l);
                (got, per_cell_power(comm, &delta_k, n, fft.y0, fft.ny, l))
            })
            .pop()
            .unwrap();
            assert_eq!(got.len(), want.len(), "n={n} ranks={ranks}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.modes, w.modes, "n={n} ranks={ranks}");
                assert_eq!(g.k.to_bits(), w.k.to_bits(), "n={n} ranks={ranks}");
                assert_eq!(g.power.to_bits(), w.power.to_bits(), "n={n} ranks={ranks}");
            }
        }
    }

    #[test]
    fn one_reduction_per_measurement() {
        let counts = World::run(3, |comm| {
            let fft = DistFft3d::new(comm, 12);
            let delta_k = fft.forward_real(comm, vec![0.5; fft.local_len()]);
            let before = comm.telemetry().collective(CollectiveKind::AllReduce);
            measure_power(comm, &delta_k, 12, fft.y0, fft.ny, 10.0);
            density_power(comm, &delta_k, 12, fft.y0, fft.ny, 10.0, 1.0);
            comm.telemetry().collective(CollectiveKind::AllReduce) - before
        });
        assert_eq!(counts, [2; 3]);
    }

    #[test]
    fn density_power_is_the_overdensity_power() {
        // delta = rho V / M - 1, so binning rho(k) with the scale folded in
        // must agree with binning delta(k).
        let (n, l) = (12usize, 30.0);
        let rho = |x: usize, y: usize, z: usize| {
            1.0 + 0.3 * (x as f64 * 0.9).sin() + 0.1 * ((y * 7 + z * 3) % 5) as f64
        };
        let (from_rho, from_delta) = World::run(3, |comm| {
            let fft = DistFft3d::new(comm, n);
            let cell_vol = (l / n as f64).powi(3);
            let local: Vec<f64> = (0..fft.local_len())
                .map(|i| rho(fft.x0 + i / (n * n), i / n % n, i % n))
                .collect();
            let local_mass = local.iter().sum::<f64>() * cell_vol;
            let total = comm.all_reduce_f64(local_mass, |a, b| a + b);
            let delta = local.iter().map(|r| r * l * l * l / total - 1.0).collect();
            let delta_k = fft.forward_real(comm, delta);
            let rho_k = fft.forward_real(comm, local);
            (
                density_power(comm, &rho_k, n, fft.y0, fft.ny, l, local_mass),
                measure_power(comm, &delta_k, n, fft.y0, fft.ny, l),
            )
        })
        .pop()
        .unwrap();
        assert_eq!(from_rho.len(), from_delta.len());
        for (a, b) in from_rho.iter().zip(&from_delta) {
            assert_eq!(a.modes, b.modes);
            assert_eq!(a.k.to_bits(), b.k.to_bits());
            assert!(
                (a.power - b.power).abs() <= 1e-12 * b.power,
                "k={}: {} vs {}",
                b.k,
                a.power,
                b.power
            );
        }
    }

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
