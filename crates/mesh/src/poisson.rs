//! K-space Poisson solve with spectral filtering, CIC deconvolution, and
//! spectral force gradients — HACC's "spectrally filtered PM" in miniature.
//!
//! Given the Fourier-space mass grid `rho(k)`, the long-range potential is
//!
//! ```text
//! phi(k) = -prefactor * rho(k) / k^2 * S(k) / W_cic(k)^2
//! ```
//!
//! where `S(k) = exp(-k^2 r_s^2)` is the Gaussian long-range filter (the
//! complementary short-range kernel lives in `hacc-grav`) and `W_cic` is
//! the CIC assignment window, deconvolved twice (deposit + interpolation).
//! Force components come from the spectral gradient `F_d = -i g_d phi(k)`,
//! where the gradient wavenumber `g_d` is `k_d` except on the Nyquist
//! plane of an even grid (`m_d = n/2`), where it is zero: `+n/2` and
//! `-n/2` are the same bin, so an odd factor there is anti-Hermitian and
//! would give the real force field an imaginary part. `k^2` in the
//! Green's function keeps the Nyquist wavenumber.
//!
//! Both `S` and `W_cic^2` are products over the axes, so the whole factor
//! is `c_x c_y c_z / k^2` with `c_i = exp(-k_i^2 r_s^2) / w_i^2` read from
//! one table of `n` entries ([`AxisTable`]): no transcendental per cell.
//!
//! The per-mode physics has two output forms: the solver's, over the half
//! spectrum of the real transforms (bins `z <= n/2` of each z-row), and the
//! full-spectrum [`apply_greens_gradient`] with one grid per component,
//! the reference the tests and the benchmark census call.

use hacc_swfft::dist::half_width;
use hacc_swfft::Complex64;

/// Signed wavenumber index for FFT bin `i` of an `n`-grid.
#[inline]
pub fn signed_index(n: usize, i: usize) -> i64 {
    let i = i as i64;
    let n = n as i64;
    if i <= n / 2 {
        i
    } else {
        i - n
    }
}

/// The one-dimensional CIC window `sinc^2(k_d Delta / 2)` for FFT bin `i`.
#[inline]
pub fn cic_window_1d(n: usize, i: usize) -> f64 {
    let m = signed_index(n, i);
    if m == 0 {
        return 1.0;
    }
    let x = std::f64::consts::PI * m as f64 / n as f64;
    let s = x.sin() / x;
    s * s
}

/// Options controlling the spectral solve.
#[derive(Debug, Clone, Copy)]
pub struct GreensOptions {
    /// `4 pi G` or the cosmological Poisson prefactor; the potential is
    /// `phi(k) = -prefactor rho(k)/k^2 ...`.
    pub prefactor: f64,
    /// Gaussian split scale `r_s` in the same length units as the box.
    /// Zero disables filtering (plain PM; used by ablations).
    pub split_scale: f64,
    /// Deconvolve the CIC window twice (deposit and interpolation).
    pub deconvolve_cic: bool,
}

/// The per-axis factors of the Green's function and gradient (the grid is
/// a cube, so one table serves all three axes), built once per solve.
struct AxisTable {
    /// `k_i = 2 pi m_i / L`.
    k: Vec<f64>,
    /// The gradient wavenumber: `k_i`, but zero at `i = n/2` for even `n`.
    k_grad: Vec<f64>,
    /// `exp(-k_i^2 r_s^2) / w_i^2`, each factor only if its option is on.
    c: Vec<f64>,
    prefactor: f64,
}

/// What one z-row of layout B shares: the x/y parts of the per-mode
/// factors.
struct Row {
    gx: f64,
    gy: f64,
    kxy2: f64,
    /// `-prefactor * c_x * c_y`.
    cxy: f64,
}

impl AxisTable {
    fn new(n: usize, box_size: f64, opts: &GreensOptions) -> Self {
        let two_pi_l = 2.0 * std::f64::consts::PI / box_size;
        let k: Vec<f64> = (0..n)
            .map(|i| two_pi_l * signed_index(n, i) as f64)
            .collect();
        let mut k_grad = k.clone();
        if n % 2 == 0 {
            k_grad[n / 2] = 0.0;
        }
        let c = (0..n)
            .map(|i| {
                let mut c = 1.0;
                if opts.split_scale > 0.0 {
                    c *= (-k[i] * k[i] * opts.split_scale * opts.split_scale).exp();
                }
                if opts.deconvolve_cic {
                    let w = cic_window_1d(n, i);
                    c /= w * w;
                }
                c
            })
            .collect();
        Self {
            k,
            k_grad,
            c,
            prefactor: opts.prefactor,
        }
    }

    /// The z-rows of the y-planes `[y0, y0 + ny)` in layout B order.
    fn rows(&self, y0: usize, ny: usize) -> impl Iterator<Item = Row> + '_ {
        let n = self.k.len();
        (0..ny * n).map(move |r| {
            let (y, x) = (y0 + r / n, r % n);
            Row {
                gx: self.k_grad[x],
                gy: self.k_grad[y],
                kxy2: self.k[x] * self.k[x] + self.k[y] * self.k[y],
                cxy: -self.prefactor * self.c[x] * self.c[y],
            }
        })
    }

    /// The physics of one mode: the three force components
    /// `F_d = -i g_d phi(k)` of bin `z` of `row`. The zero mode sources no
    /// force (Jeans swindle / periodic background subtraction).
    #[inline]
    fn force(&self, rho: Complex64, row: &Row, z: usize) -> [Complex64; 3] {
        let k2 = row.kxy2 + self.k[z] * self.k[z];
        if k2 == 0.0 {
            return [Complex64::zero(); 3];
        }
        let phi = rho.scale(row.cxy * self.c[z] / k2);
        let m_i_phi = Complex64::new(phi.im, -phi.re); // -i * phi
        [
            m_i_phi.scale(row.gx),
            m_i_phi.scale(row.gy),
            m_i_phi.scale(self.k_grad[z]),
        ]
    }
}

/// Apply the Green's function and spectral gradient to the k-space mass
/// grid (slab layout B of [`hacc_swfft::DistFft3d`]): produces the three
/// force-component grids `F_d(k) = -i g_d phi(k)`, each Hermitian (the
/// inverse transform of each is a real field).
///
/// `rho_k` is indexed `[(ly * n + x) * n + z]` with `ly` spanning this
/// rank's `ny` y-planes starting at `y0`. `box_size` sets the physical
/// wavenumbers `k_d = 2 pi m_d / L`.
pub fn apply_greens_gradient(
    rho_k: &[Complex64],
    n: usize,
    y0: usize,
    ny: usize,
    box_size: f64,
    opts: &GreensOptions,
) -> [Vec<Complex64>; 3] {
    assert_eq!(rho_k.len(), ny * n * n);
    let table = AxisTable::new(n, box_size, opts);
    let mut grids = [(); 3].map(|()| Vec::with_capacity(rho_k.len()));
    for (row, cells) in table.rows(y0, ny).zip(rho_k.chunks_exact(n)) {
        for (z, &rho) in cells.iter().enumerate() {
            let force = table.force(rho, &row, z);
            for (grid, f) in grids.iter_mut().zip(force) {
                grid.push(f);
            }
        }
    }
    grids
}

/// [`apply_greens_gradient`] over the half spectrum the solver transforms:
/// `rho_k` holds z-rows of the `w = n/2 + 1` bins `z <= n/2`
/// ([`hacc_swfft::DistFft3d::forward_real`]) and becomes `F_z(k)` in place;
/// the returned grid holds `[F_x | F_y]` rows of `2w`, two half spectra
/// side by side, as `DistFft3d::inverse_real::<2>` reads them.
pub(crate) fn apply_greens_gradient_half(
    rho_k: &mut [Complex64],
    n: usize,
    y0: usize,
    ny: usize,
    box_size: f64,
    opts: &GreensOptions,
) -> Vec<Complex64> {
    let w = half_width(n);
    assert_eq!(rho_k.len(), ny * n * w);
    let table = AxisTable::new(n, box_size, opts);
    let mut fxy = vec![Complex64::zero(); 2 * rho_k.len()];
    let rows = table.rows(y0, ny).zip(rho_k.chunks_exact_mut(w));
    for ((row, cells), out) in rows.zip(fxy.chunks_exact_mut(2 * w)) {
        let (fx, fy) = out.split_at_mut(w);
        for (z, cell) in cells.iter_mut().enumerate() {
            [fx[z], fy[z], *cell] = table.force(*cell, &row, z);
        }
    }
    fxy
}

/// The isotropic long-range filter in k-space, `S(k) = exp(-k² r_s²)`.
#[inline]
pub fn long_range_filter(k: f64, r_s: f64) -> f64 {
    (-k * k * r_s * r_s).exp()
}

/// The complementary short-range force factor in real space: the fraction
/// of the Newtonian `1/r²` force carried by the short-range side of the
/// Gaussian split,
/// `f_sr(r)/f_newton(r) = erfc(r/(2 r_s)) + r/(r_s sqrt(pi)) exp(-r²/(4 r_s²))`.
#[inline]
pub fn short_range_fraction(r: f64, r_s: f64) -> f64 {
    if r_s <= 0.0 {
        return 0.0;
    }
    let x = r / (2.0 * r_s);
    erfc(x) + (r / (r_s * std::f64::consts::PI.sqrt())) * (-x * x).exp()
}

/// Complementary error function via the Abramowitz–Stegun 7.1.26 rational
/// fit (|error| < 1.5e-7, ample for force splitting).
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    poly * (-x * x).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cic;
    use hacc_ranks::World;
    use hacc_rt::rand::{self, Rng, SeedableRng};
    use hacc_swfft::DistFft3d;

    #[test]
    fn signed_index_symmetry() {
        assert_eq!(signed_index(8, 0), 0);
        assert_eq!(signed_index(8, 4), 4); // Nyquist kept positive
        assert_eq!(signed_index(8, 5), -3);
        assert_eq!(signed_index(8, 7), -1);
    }

    #[test]
    fn cic_window_bounds() {
        for i in 0..16 {
            let w = cic_window_1d(16, i);
            assert!(w > 0.0 && w <= 1.0);
        }
        assert_eq!(cic_window_1d(16, 0), 1.0);
        // Nyquist: sinc^2(pi/2) = (2/pi)^2.
        let nyq = cic_window_1d(16, 8);
        let expect = (2.0 / std::f64::consts::PI).powi(2);
        assert!((nyq - expect).abs() < 1e-12);
    }

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
    }

    #[test]
    fn split_fractions_sum_to_newton() {
        // Long-range + short-range must reconstruct the full force:
        // in real space, 1 - f_sr(r) is the long-range fraction, which for
        // the Gaussian split equals erf(r/2rs) - (r/rs sqrt(pi)) exp(...).
        // Check limits instead: f_sr -> 1 as r -> 0, -> 0 as r -> inf.
        let rs = 1.0;
        assert!((short_range_fraction(1e-6, rs) - 1.0).abs() < 1e-5);
        assert!(short_range_fraction(20.0, rs) < 1e-10);
        // Monotone decreasing.
        let mut prev = 2.0;
        for i in 1..100 {
            let f = short_range_fraction(i as f64 * 0.2, rs);
            assert!(f <= prev + 1e-12);
            prev = f;
        }
    }

    /// Every (grid size, split scale) the contract tests sweep: a radix-2
    /// and a Bluestein even grid, plain PM and the default 1.5-cell split.
    const GRIDS: [usize; 2] = [16, 12];
    const SPLIT_CELLS: [f64; 2] = [0.0, 1.5];

    fn opts(split_scale: f64) -> GreensOptions {
        GreensOptions {
            prefactor: 4.0 * std::f64::consts::PI,
            split_scale,
            deconvolve_cic: true,
        }
    }

    #[test]
    fn force_grids_are_hermitian() {
        // Each force component is a real field, so the inverse transform
        // of its grid must come back with no imaginary part. An odd
        // gradient factor on the Nyquist planes breaks exactly this.
        let box_size = 10.0;
        for n in GRIDS {
            for cells in SPLIT_CELLS {
                World::run(1, |comm| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
                    let pos: Vec<[f64; 3]> = (0..300)
                        .map(|_| [0; 3].map(|_| rng.gen_range(0.0..box_size)))
                        .collect();
                    let mass: Vec<f64> = pos.iter().map(|_| rng.gen_range(0.5..1.5)).collect();
                    let fft = DistFft3d::new(comm, n);
                    let mut rho_k: Vec<Complex64> = cic::deposit(comm, n, box_size, &pos, &mass)
                        .into_iter()
                        .map(|m| Complex64::new(m, 0.0))
                        .collect();
                    fft.forward(comm, &mut rho_k);
                    let split = cells * box_size / n as f64;
                    let grids = apply_greens_gradient(&rho_k, n, 0, n, box_size, &opts(split));
                    for (d, mut grid) in grids.into_iter().enumerate() {
                        fft.inverse(comm, &mut grid);
                        let max_re = grid.iter().map(|c| c.re.abs()).fold(0.0, f64::max);
                        let max_im = grid.iter().map(|c| c.im.abs()).fold(0.0, f64::max);
                        assert!(max_re > 0.0);
                        assert!(
                            max_im <= 1e-12 * max_re,
                            "n={n} split={cells} cells, component {d}: |Im| {max_im:e} vs |Re| {max_re:e}"
                        );
                    }
                });
            }
        }
    }

    #[test]
    fn tables_match_the_per_cell_formula() {
        // The module-doc formula evaluated cell by cell with `exp` and
        // `sin`, on a slab that starts mid-grid; 17 has no Nyquist plane.
        let box_size = 10.0;
        for n in [16usize, 12, 17] {
            let (y0, ny) = (3, 5);
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let rho_k: Vec<Complex64> = (0..ny * n * n)
                .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            for cells in SPLIT_CELLS {
                let o = opts(cells * box_size / n as f64);
                let got = apply_greens_gradient(&rho_k, n, y0, ny, box_size, &o);
                let k =
                    |i: usize| 2.0 * std::f64::consts::PI / box_size * signed_index(n, i) as f64;
                let grad = |i: usize| if 2 * i == n { 0.0 } else { k(i) };
                for ly in 0..ny {
                    for x in 0..n {
                        for z in 0..n {
                            let idx = (ly * n + x) * n + z;
                            let y = y0 + ly;
                            let k2 = k(x) * k(x) + k(y) * k(y) + k(z) * k(z);
                            let mut g = -o.prefactor / k2;
                            if o.split_scale > 0.0 {
                                g *= long_range_filter(k2.sqrt(), o.split_scale);
                            }
                            let w = cic_window_1d(n, x) * cic_window_1d(n, y) * cic_window_1d(n, z);
                            g /= w * w;
                            let phi = rho_k[idx].scale(g);
                            let m_i_phi = Complex64::new(phi.im, -phi.re);
                            for (d, i) in [x, y, z].into_iter().enumerate() {
                                let want = m_i_phi.scale(grad(i));
                                let err = (got[d][idx] - want).abs();
                                assert!(
                                    err <= 1e-13 * want.abs(),
                                    "n={n} mode ({x},{y},{z}) component {d}: {:?} vs {want:?}",
                                    got[d][idx]
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_mode_produces_no_force() {
        let n = 4;
        let rho = vec![Complex64::one(); n * n * n];
        let opts = GreensOptions {
            prefactor: 1.0,
            split_scale: 0.0,
            deconvolve_cic: false,
        };
        let [fx, _, _] = apply_greens_gradient(&rho, n, 0, n, 1.0, &opts);
        assert_eq!(fx[0], Complex64::zero());
    }

    #[test]
    fn gradient_of_plane_wave() {
        // rho(x) = cos(2 pi x / L) along x: rho(k) has power only at
        // kx = +-1. The resulting force must be along x only, and
        // proportional to sin (phase shift by -i k / k^2 * ... ).
        let n = 8;
        let l = 2.0 * std::f64::consts::PI; // so k1 = 1
        // Build rho(k) for rho(x)=cos(k1 x): delta at (1,0,0) and (n-1,0,0)
        // with amplitude n^3/2 (unnormalized forward FFT convention).
        let mut rho = vec![Complex64::zero(); n * n * n];
        let amp = (n * n * n) as f64 / 2.0;
        // Layout B on one rank is [(y * n + x) * n + z].
        rho[(0 * n + 1) * n] = Complex64::new(amp, 0.0);
        rho[(0 * n + (n - 1)) * n] = Complex64::new(amp, 0.0);
        let opts = GreensOptions {
            prefactor: 1.0,
            split_scale: 0.0,
            deconvolve_cic: false,
        };
        let [fx, fy, fz] = apply_greens_gradient(&rho, n, 0, n, l, &opts);
        // phi(k) = -rho(k)/k^2 -> phi(x) = -cos(x); F = -dphi/dx = -sin(x).
        // In k-space F_x(k=+1) should be -i*k*phi = i * amp ... just verify
        // fy, fz vanish and fx is nonzero and purely imaginary.
        assert!(fy.iter().all(|v| v.abs() < 1e-12));
        assert!(fz.iter().all(|v| v.abs() < 1e-12));
        let v = fx[(0 * n + 1) * n];
        assert!(v.re.abs() < 1e-9 && v.im.abs() > 0.1);
    }
}
