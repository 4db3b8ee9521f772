//! Serial 1-D FFTs: iterative radix-2 Cooley–Tukey with cached twiddle
//! tables (two butterfly stages per sweep over the data), and Bluestein's
//! chirp-z algorithm for arbitrary lengths; on top of them the strided
//! multi-line pass ([`column_pass`]) that every 3-D transform's
//! non-contiguous axes go through, and the serial 3-D [`fft3`].
//!
//! Plans are immutable after construction and safe to share across rank
//! threads (`&FftPlan` is `Send + Sync`), mirroring FFTW-style plan reuse.

use crate::complex::Complex64;

/// A reusable plan for length-`n` transforms.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
}

#[derive(Debug, Clone)]
enum PlanKind {
    /// Radix-2: bit-reversal table and per-stage twiddles for forward
    /// (negative exponent) transforms; inverse conjugates on the fly.
    Radix2 {
        twiddles: Vec<Complex64>, // n/2 roots: e^{-2 pi i k / n}
    },
    /// Bluestein: re-expressed as a convolution of length m (power of two
    /// >= 2n-1), executed with an inner radix-2 plan.
    Bluestein {
        inner: Box<FftPlan>,
        /// Chirp a_k = e^{-i pi k^2 / n}.
        chirp: Vec<Complex64>,
        /// FFT of the zero-padded conjugate-chirp filter.
        filter_fft: Vec<Complex64>,
        m: usize,
    },
}

impl FftPlan {
    /// Build a plan for transforms of length `n >= 1`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "FFT length must be positive");
        if n.is_power_of_two() {
            let twiddles = (0..n / 2)
                .map(|k| {
                    Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64)
                })
                .collect();
            Self {
                n,
                kind: PlanKind::Radix2 { twiddles },
            }
        } else {
            let m = (2 * n - 1).next_power_of_two();
            let inner = Box::new(FftPlan::new(m));
            // Chirp: a_k = e^{-i pi k^2 / n}; compute k^2 mod 2n to keep the
            // angle argument small and accurate for large k.
            let chirp: Vec<Complex64> = (0..n)
                .map(|k| {
                    let k2 = (k * k) % (2 * n);
                    Complex64::cis(-std::f64::consts::PI * k2 as f64 / n as f64)
                })
                .collect();
            let mut filter = vec![Complex64::zero(); m];
            for k in 0..n {
                let c = chirp[k].conj();
                filter[k] = c;
                if k > 0 {
                    filter[m - k] = c;
                }
            }
            inner.forward(&mut filter);
            Self {
                n,
                kind: PlanKind::Bluestein {
                    inner,
                    chirp,
                    filter_fft: filter,
                    m,
                },
            }
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the plan length is zero (never; lengths are positive).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Unnormalized forward transform (negative exponent convention):
    /// `X_k = sum_j x_j e^{-2 pi i j k / n}`.
    pub fn forward(&self, data: &mut [Complex64]) {
        self.run(data, false);
    }

    /// Normalized inverse transform: `x_j = (1/n) sum_k X_k e^{+2 pi i jk/n}`.
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.run(data, true);
    }

    /// [`Self::forward`] or [`Self::inverse`], chosen by a flag: what the
    /// multi-line passes call.
    pub(crate) fn run(&self, data: &mut [Complex64], inverse: bool) {
        self.transform(data, inverse);
        if inverse {
            let inv_n = 1.0 / self.n as f64;
            for v in data.iter_mut() {
                *v = v.scale(inv_n);
            }
        }
    }

    fn transform(&self, data: &mut [Complex64], inverse: bool) {
        assert_eq!(data.len(), self.n, "data length does not match plan");
        match &self.kind {
            PlanKind::Radix2 { twiddles } => {
                if inverse {
                    radix2::<true>(data, twiddles)
                } else {
                    radix2::<false>(data, twiddles)
                }
            }
            PlanKind::Bluestein {
                inner,
                chirp,
                filter_fft,
                m,
            } => {
                // Inverse via the conjugation identity:
                // IDFT(x) = conj(DFT(conj(x))) (normalization by caller).
                if inverse {
                    for v in data.iter_mut() {
                        *v = v.conj();
                    }
                }
                let mut buf = vec![Complex64::zero(); *m];
                for k in 0..self.n {
                    buf[k] = data[k] * chirp[k];
                }
                inner.forward(&mut buf);
                for (b, f) in buf.iter_mut().zip(filter_fft.iter()) {
                    *b = *b * *f;
                }
                inner.inverse(&mut buf);
                for k in 0..self.n {
                    data[k] = buf[k] * chirp[k];
                }
                if inverse {
                    for v in data.iter_mut() {
                        *v = v.conj();
                    }
                }
            }
        }
    }
}

/// Iterative radix-2 with bit-reversal reordering. `twiddles[k]` holds
/// `e^{-2 pi i k / n}`; `INVERSE` conjugates them.
///
/// Two butterfly stages run per sweep over the data (one plain stage
/// first when log2 n is odd): the four elements a stage pair couples are
/// loaded once, go through the stage-`len` butterflies and then the
/// stage-`2 len` butterflies, and are stored once. Every butterfly is the
/// one the stage-at-a-time loop performs — same operands, same twiddle,
/// same order of operations — so the output is bit-identical to it; the
/// saving is half the passes over `data`.
fn radix2<const INVERSE: bool>(data: &mut [Complex64], twiddles: &[Complex64]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let levels = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - levels)) as usize;
        if j > i {
            data.swap(i, j);
        }
    }
    let tw = |i: usize| {
        if INVERSE {
            twiddles[i].conj()
        } else {
            twiddles[i]
        }
    };
    let butterfly = |a: Complex64, b: Complex64, w: Complex64| {
        let b = b * w;
        (a + b, a - b)
    };
    let mut len = 2;
    if levels % 2 == 1 {
        let w = tw(0);
        for pair in data.chunks_exact_mut(2) {
            (pair[0], pair[1]) = butterfly(pair[0], pair[1], w);
        }
        len = 4;
    }
    // Stages `len` and `2 len` together, over blocks of `2 len`.
    while len < n {
        let half = len / 2;
        let step = n / (2 * len); // twiddle stride of the outer stage
        for block in data.chunks_exact_mut(2 * len) {
            let (lo, hi) = block.split_at_mut(len);
            let (q0, q1) = lo.split_at_mut(half);
            let (q2, q3) = hi.split_at_mut(half);
            let quads = q0.iter_mut().zip(q1).zip(q2.iter_mut().zip(q3));
            for (k, ((a0, a1), (a2, a3))) in quads.enumerate() {
                let w_inner = tw(2 * k * step);
                let (x0, x1) = butterfly(*a0, *a1, w_inner);
                let (x2, x3) = butterfly(*a2, *a3, w_inner);
                (*a0, *a2) = butterfly(x0, x2, tw(k * step));
                (*a1, *a3) = butterfly(x1, x3, tw((k + half) * step));
            }
        }
        len <<= 2;
    }
}

/// Columns [`column_pass`] transforms together: eight adjacent
/// `Complex64` are two 64-byte cache lines of every row, so the gather
/// and the scatter use each line they touch in full.
pub(crate) const COLS: usize = 8;

/// Transform every column of `data`, a row-major matrix of `plan.len()`
/// rows and `stride` columns, in place: the one way a strided line is
/// transformed. A block of [`COLS`] adjacent columns is gathered into
/// `COLS` contiguous lines of `scratch` (at least `COLS * plan.len()`
/// long), transformed there and scattered back; each line sees exactly
/// what `plan.forward` / `plan.inverse` on that column alone computes.
pub(crate) fn column_pass(
    plan: &FftPlan,
    data: &mut [Complex64],
    stride: usize,
    scratch: &mut [Complex64],
    inverse: bool,
) {
    let n = plan.len();
    assert_eq!(data.len(), n * stride, "data is not n rows of stride");
    for c0 in (0..stride).step_by(COLS) {
        let w = COLS.min(stride - c0);
        let lines = &mut scratch[..w * n];
        for (r, row) in data.chunks_exact(stride).enumerate() {
            for (c, v) in row[c0..c0 + w].iter().enumerate() {
                lines[c * n + r] = *v;
            }
        }
        for line in lines.chunks_exact_mut(n) {
            plan.run(line, inverse);
        }
        for (r, row) in data.chunks_exact_mut(stride).enumerate() {
            for (c, v) in row[c0..c0 + w].iter_mut().enumerate() {
                *v = lines[c * n + r];
            }
        }
    }
}

/// In-place serial 3-D FFT of a full `n^3` cube (`n = plan.len()`,
/// layout `[(x*n + y)*n + z]`), axis order z, y, x. The transform of the
/// serial IC reference, and the reference the distributed FFTs are tested
/// against.
pub fn fft3(plan: &FftPlan, data: &mut [Complex64], inverse: bool) {
    let n = plan.len();
    assert_eq!(data.len(), n * n * n, "data is not an n^3 cube");
    let mut scratch = vec![Complex64::zero(); COLS * n];
    for row in data.chunks_exact_mut(n) {
        plan.run(row, inverse);
    }
    // y: each x-plane is n rows of n; x: the cube is n rows of n².
    for plane in data.chunks_exact_mut(n * n) {
        column_pass(plan, plane, n, &mut scratch, inverse);
    }
    column_pass(plan, data, n * n, &mut scratch, inverse);
}

/// Reference O(n^2) DFT used for validation.
pub fn naive_dft(data: &[Complex64], inverse: bool) -> Vec<Complex64> {
    let n = data.len();
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut out = vec![Complex64::zero(); n];
    for (k, o) in out.iter_mut().enumerate() {
        for (j, &x) in data.iter().enumerate() {
            let theta = sign * 2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64;
            *o += x * Complex64::cis(theta);
        }
        if inverse {
            *o = o.scale(1.0 / n as f64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_rt::prop::prelude::*;
    use hacc_rt::rand::{self, Rng, SeedableRng};

    fn rand_signal(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_naive_dft_pow2() {
        for &n in &[1usize, 2, 4, 8, 16, 64] {
            let plan = FftPlan::new(n);
            let x = rand_signal(n, n as u64);
            let mut y = x.clone();
            plan.forward(&mut y);
            let reference = naive_dft(&x, false);
            assert!(max_err(&y, &reference) < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn matches_naive_dft_bluestein() {
        for &n in &[3usize, 5, 6, 7, 12, 15, 63, 100] {
            let plan = FftPlan::new(n);
            let x = rand_signal(n, 7 + n as u64);
            let mut y = x.clone();
            plan.forward(&mut y);
            let reference = naive_dft(&x, false);
            assert!(max_err(&y, &reference) < 1e-8, "n = {n}: {}", max_err(&y, &reference));
        }
    }

    #[test]
    fn paper_grid_dimension_factor() {
        // 12,600 (the Frontier-E PM grid per dimension) is not a power of
        // two; the Bluestein path must handle a scaled version of it.
        let n = 126; // 12,600 / 100
        let plan = FftPlan::new(n);
        let x = rand_signal(n, 42);
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        assert!(max_err(&y, &x) < 1e-10);
    }

    #[test]
    fn delta_transforms_to_constant() {
        let plan = FftPlan::new(32);
        let mut x = vec![Complex64::zero(); 32];
        x[0] = Complex64::one();
        plan.forward(&mut x);
        for v in &x {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_holds() {
        let n = 128;
        let plan = FftPlan::new(n);
        let x = rand_signal(n, 3);
        let time_energy: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let mut y = x;
        plan.forward(&mut y);
        let freq_energy: f64 = y.iter().map(|v| v.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy / freq_energy - 1.0).abs() < 1e-10);
    }

    #[test]
    fn linearity() {
        let n = 64;
        let plan = FftPlan::new(n);
        let a = rand_signal(n, 1);
        let b = rand_signal(n, 2);
        let mut sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.forward(&mut sum);
        let mut fa = a;
        let mut fb = b;
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let combined: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&sum, &combined) < 1e-10);
    }

    /// The one-stage-per-sweep radix-2 loop `radix2` replaced, kept as
    /// the bit-level reference.
    fn radix2_stage_per_sweep(data: &mut [Complex64], inverse: bool) {
        let n = data.len();
        if n <= 1 {
            return;
        }
        let twiddles: Vec<Complex64> = (0..n / 2)
            .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let levels = n.trailing_zeros();
        for i in 0..n {
            let j = (i.reverse_bits() >> (usize::BITS - levels)) as usize;
            if j > i {
                data.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let step = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let mut w = twiddles[k * step];
                    if inverse {
                        w = w.conj();
                    }
                    let a = data[start + k];
                    let b = data[start + k + half] * w;
                    data[start + k] = a + b;
                    data[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
    }

    /// `FftPlan::forward` / `inverse` spelled out over
    /// `radix2_stage_per_sweep`: the plan's Bluestein construction and its
    /// normalizations, operation for operation.
    fn reference_transform(data: &mut [Complex64], inverse: bool) {
        let n = data.len();
        let scale = |d: &mut [Complex64]| {
            let inv = 1.0 / d.len() as f64;
            d.iter_mut().for_each(|v| *v = v.scale(inv));
        };
        if n.is_power_of_two() {
            radix2_stage_per_sweep(data, inverse);
        } else {
            let m = (2 * n - 1).next_power_of_two();
            let chirp: Vec<Complex64> = (0..n)
                .map(|k| {
                    Complex64::cis(-std::f64::consts::PI * ((k * k) % (2 * n)) as f64 / n as f64)
                })
                .collect();
            let mut filter = vec![Complex64::zero(); m];
            for k in 0..n {
                filter[k] = chirp[k].conj();
                if k > 0 {
                    filter[m - k] = chirp[k].conj();
                }
            }
            radix2_stage_per_sweep(&mut filter, false);
            if inverse {
                data.iter_mut().for_each(|v| *v = v.conj());
            }
            let mut buf = vec![Complex64::zero(); m];
            for k in 0..n {
                buf[k] = data[k] * chirp[k];
            }
            radix2_stage_per_sweep(&mut buf, false);
            for (b, f) in buf.iter_mut().zip(&filter) {
                *b = *b * *f;
            }
            radix2_stage_per_sweep(&mut buf, true);
            scale(&mut buf);
            for k in 0..n {
                data[k] = buf[k] * chirp[k];
            }
            if inverse {
                data.iter_mut().for_each(|v| *v = v.conj());
            }
        }
        if inverse {
            scale(data);
        }
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn two_stages_per_sweep_is_bit_equal_to_one() {
        // Both parities of log2 n, and the Bluestein path (inner lengths
        // 32 and 64) for 12 and 17.
        for n in [2usize, 4, 8, 16, 32, 64, 128, 256, 12, 17] {
            let plan = FftPlan::new(n);
            for inverse in [false, true] {
                let x = rand_signal(n, 1000 + n as u64);
                let mut got = x.clone();
                plan.run(&mut got, inverse);
                let mut want = x;
                reference_transform(&mut want, inverse);
                assert_eq!(bits(&got), bits(&want), "n = {n}, inverse = {inverse}");
            }
        }
    }

    #[test]
    fn column_pass_is_bit_equal_to_each_column_alone() {
        // Widths that are not multiples of COLS; the last row is the
        // stride fft3 uses for its x pass (n rows of n² columns).
        for (n, stride) in [(12usize, 12usize), (17, 17), (4, 16)] {
            let plan = FftPlan::new(n);
            let mut scratch = vec![Complex64::zero(); COLS * n];
            for inverse in [false, true] {
                let x = rand_signal(n * stride, (n * stride) as u64);
                let mut got = x.clone();
                column_pass(&plan, &mut got, stride, &mut scratch, inverse);
                let mut want = x;
                for c in 0..stride {
                    let mut col: Vec<Complex64> = (0..n).map(|r| want[r * stride + c]).collect();
                    plan.run(&mut col, inverse);
                    for (r, v) in col.into_iter().enumerate() {
                        want[r * stride + c] = v;
                    }
                }
                assert_eq!(bits(&got), bits(&want), "n = {n}, stride = {stride}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn roundtrip_any_length(n in 1usize..200, seed in 0u64..u64::MAX) {
            let plan = FftPlan::new(n);
            let x = rand_signal(n, seed);
            let mut y = x.clone();
            plan.forward(&mut y);
            plan.inverse(&mut y);
            prop_assert!(max_err(&y, &x) < 1e-8);
        }
    }
}
