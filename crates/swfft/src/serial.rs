//! Serial 1-D FFTs: iterative radix-2 Cooley–Tukey with cached twiddle
//! tables (two butterfly stages per sweep over the data), and Bluestein's
//! chirp-z algorithm for arbitrary lengths; on top of them the batched
//! multi-line passes every 3-D transform goes through ([`column_pass`] for
//! strided lines, [`row_pass`] for contiguous ones), and the serial 3-D
//! [`fft3`].
//!
//! One butterfly body serves two element types ([`Lanes`]): a
//! [`Complex64`], one line, which [`FftPlan::forward`] / [`FftPlan::inverse`]
//! transform, and a [`Row`] of [`LANES`] lines side by side, which the
//! passes transform. Every lane of a row goes through exactly the
//! operations its line alone would, in the same order, so a batched pass
//! is bit-identical to transforming each line on its own.
//!
//! Plans are immutable after construction and safe to share across rank
//! threads (`&FftPlan` is `Send + Sync`), mirroring FFTW-style plan reuse.

use crate::complex::Complex64;
use std::ops::{Add, Mul, Sub};

/// Lines a batched pass transforms together: a [`Row`]'s `re` and `im`
/// are 64 bytes each, one cache line.
pub(crate) const LANES: usize = 8;

/// What the transforms butterfly: a [`Complex64`] (one line) or a [`Row`]
/// ([`LANES`] lines). `b * w` by a twiddle, `a ± b`, `conj` and `scale`
/// act on every lane as the `Complex64` operations do.
pub(crate) trait Lanes:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Complex64, Output = Self>
{
    /// Every lane zero.
    const ZERO: Self;
    /// Lane-wise complex conjugate.
    fn conj(self) -> Self;
    /// Lane-wise multiplication by a real scalar.
    fn scale(self, s: f64) -> Self;
    /// Lane `l`'s value.
    fn lane(&self, l: usize) -> Complex64;
    /// Set lane `l`'s value.
    fn set_lane(&mut self, l: usize, v: Complex64);
    /// Set lanes `0 .. count` to `src[l * stride]`.
    fn gather(&mut self, src: &[Complex64], stride: usize, count: usize);
    /// Write lanes `0 .. count` to `dst[l * stride]`.
    fn scatter(&self, dst: &mut [Complex64], stride: usize, count: usize);
}

impl Lanes for Complex64 {
    const ZERO: Self = Complex64::zero();
    #[inline]
    fn conj(self) -> Self {
        Complex64::conj(self)
    }
    #[inline]
    fn scale(self, s: f64) -> Self {
        Complex64::scale(self, s)
    }
    #[inline]
    fn lane(&self, _: usize) -> Complex64 {
        *self
    }
    #[inline]
    fn set_lane(&mut self, _: usize, v: Complex64) {
        *self = v;
    }
    #[inline]
    fn gather(&mut self, src: &[Complex64], _: usize, _: usize) {
        *self = src[0];
    }
    #[inline]
    fn scatter(&self, dst: &mut [Complex64], _: usize, _: usize) {
        dst[0] = *self;
    }
}

/// One element index of [`LANES`] lines: lane `l` is `re[l] + i·im[l]`.
/// The arrays are split so that each operation is a plain loop over
/// `f64`s, which the compiler vectorises.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    re: [f64; LANES],
    im: [f64; LANES],
}

impl Row {
    #[inline]
    fn map(f: impl Fn(usize) -> (f64, f64)) -> Self {
        let mut out = Self::ZERO;
        for l in 0..LANES {
            (out.re[l], out.im[l]) = f(l);
        }
        out
    }
}

impl Add for Row {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Row::map(|l| (self.re[l] + o.re[l], self.im[l] + o.im[l]))
    }
}

impl Sub for Row {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Row::map(|l| (self.re[l] - o.re[l], self.im[l] - o.im[l]))
    }
}

impl Mul<Complex64> for Row {
    type Output = Self;
    /// Each lane times `w`, as `Complex64`'s `Mul` forms it.
    #[inline]
    fn mul(self, w: Complex64) -> Self {
        Row::map(|l| {
            (
                self.re[l] * w.re - self.im[l] * w.im,
                self.re[l] * w.im + self.im[l] * w.re,
            )
        })
    }
}

impl Lanes for Row {
    const ZERO: Self = Row {
        re: [0.0; LANES],
        im: [0.0; LANES],
    };
    #[inline]
    fn conj(self) -> Self {
        Row::map(|l| (self.re[l], -self.im[l]))
    }
    #[inline]
    fn scale(self, s: f64) -> Self {
        Row::map(|l| (self.re[l] * s, self.im[l] * s))
    }
    #[inline]
    fn lane(&self, l: usize) -> Complex64 {
        Complex64::new(self.re[l], self.im[l])
    }
    #[inline]
    fn set_lane(&mut self, l: usize, v: Complex64) {
        (self.re[l], self.im[l]) = (v.re, v.im);
    }
    #[inline]
    fn gather(&mut self, src: &[Complex64], stride: usize, count: usize) {
        if count == LANES {
            let lanes: [Complex64; LANES] = std::array::from_fn(|l| src[l * stride]);
            self.re = lanes.map(|c| c.re);
            self.im = lanes.map(|c| c.im);
        } else {
            for l in 0..count {
                self.set_lane(l, src[l * stride]);
            }
        }
    }
    #[inline]
    fn scatter(&self, dst: &mut [Complex64], stride: usize, count: usize) {
        if count == LANES {
            let dst = &mut dst[..(LANES - 1) * stride + 1];
            for l in 0..LANES {
                dst[l * stride] = self.lane(l);
            }
        } else {
            for l in 0..count {
                dst[l * stride] = self.lane(l);
            }
        }
    }
}

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
                .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
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
        let mut scratch = vec![Complex64::zero(); self.scratch_len()];
        self.run(data, &mut scratch, false);
    }

    /// Normalized inverse transform: `x_j = (1/n) sum_k X_k e^{+2 pi i jk/n}`.
    pub fn inverse(&self, data: &mut [Complex64]) {
        let mut scratch = vec![Complex64::zero(); self.scratch_len()];
        self.run(data, &mut scratch, true);
    }

    /// Elements of scratch [`Self::run`] needs beside the data: Bluestein's
    /// convolution length, none for radix-2.
    pub(crate) fn scratch_len(&self) -> usize {
        match self.kind {
            PlanKind::Radix2 { .. } => 0,
            PlanKind::Bluestein { m, .. } => m,
        }
    }

    /// [`Self::forward`] or [`Self::inverse`] of every lane of `data`,
    /// chosen by a flag, with `scratch` (at least [`Self::scratch_len`]
    /// long) for Bluestein's convolution.
    pub(crate) fn run<T: Lanes>(&self, data: &mut [T], scratch: &mut [T], inverse: bool) {
        self.transform(data, scratch, inverse);
        if inverse {
            let inv_n = 1.0 / self.n as f64;
            for v in data.iter_mut() {
                *v = v.scale(inv_n);
            }
        }
    }

    fn transform<T: Lanes>(&self, data: &mut [T], scratch: &mut [T], inverse: bool) {
        assert_eq!(data.len(), self.n, "data length does not match plan");
        match &self.kind {
            PlanKind::Radix2 { twiddles } => {
                if inverse {
                    radix2::<T, true>(data, twiddles)
                } else {
                    radix2::<T, false>(data, twiddles)
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
                let buf = &mut scratch[..*m];
                for ((b, d), c) in buf.iter_mut().zip(&*data).zip(chirp) {
                    *b = *d * *c;
                }
                buf[self.n..].fill(T::ZERO);
                inner.run(buf, &mut [], false);
                for (b, f) in buf.iter_mut().zip(filter_fft) {
                    *b = *b * *f;
                }
                inner.run(buf, &mut [], true);
                for ((d, b), c) in data.iter_mut().zip(&*buf).zip(chirp) {
                    *d = *b * *c;
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

/// Iterative radix-2 with bit-reversal reordering, over one line
/// (`T = Complex64`) or [`LANES`] of them (`T = Row`). `twiddles[k]` holds
/// `e^{-2 pi i k / n}`; `INVERSE` conjugates them.
///
/// Two butterfly stages run per sweep over the data (one plain stage
/// first when log2 n is odd): the four elements a stage pair couples are
/// loaded once, go through the stage-`len` butterflies and then the
/// stage-`2 len` butterflies, and are stored once. Every butterfly is the
/// one the stage-at-a-time loop performs — same operands, same twiddle,
/// same order of operations — so the output is bit-identical to it; the
/// saving is half the passes over `data`.
fn radix2<T: Lanes, const INVERSE: bool>(data: &mut [T], twiddles: &[Complex64]) {
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
    let butterfly = |a: T, b: T, w: Complex64| {
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

/// A set of lines a batched pass transforms, read into and written back
/// from the batch a lane at a time.
pub(crate) trait Pass {
    /// Put lines `first .. first + count` (`count` at most the lanes of
    /// `T`) into lanes `0 .. count` of `batch`, one element index per entry.
    fn load<T: Lanes>(&mut self, first: usize, count: usize, batch: &mut [T]);
    /// Write lanes `0 .. count` of the transformed `batch` back as lines
    /// `first .. first + count`.
    fn store<T: Lanes>(&mut self, first: usize, count: usize, batch: &[T]);
}

/// The per-call buffers of the batched passes: a [`Row`] batch and a
/// one-line batch, each `n` long plus the plan's Bluestein scratch.
pub(crate) struct Scratch {
    rows: Vec<Row>,
    line: Vec<Complex64>,
}

impl Scratch {
    pub(crate) fn new(plan: &FftPlan) -> Self {
        let len = plan.len() + plan.scratch_len();
        Self {
            rows: vec![Row::ZERO; len],
            line: vec![Complex64::zero(); len],
        }
    }

    /// Transform the `lines` lines of `pass`: [`LANES`] at a time through
    /// a [`Row`] batch, and a ragged tail of fewer than `LANES / 2` lines
    /// one at a time, where a row batch would transform mostly empty lanes.
    pub(crate) fn run(
        &mut self,
        plan: &FftPlan,
        lines: usize,
        pass: &mut impl Pass,
        inverse: bool,
    ) {
        let mut first = 0;
        while first < lines {
            let count = LANES.min(lines - first);
            if count >= LANES / 2 {
                batch(plan, pass, first, count, &mut self.rows, inverse);
                first += count;
            } else {
                batch(plan, pass, first, 1, &mut self.line, inverse);
                first += 1;
            }
        }
    }
}

/// One batch of a pass: load, transform, store.
fn batch<T: Lanes>(
    plan: &FftPlan,
    pass: &mut impl Pass,
    first: usize,
    count: usize,
    buf: &mut [T],
    inverse: bool,
) {
    let (lines, scratch) = buf.split_at_mut(plan.len());
    pass.load(first, count, lines);
    plan.run(lines, scratch, inverse);
    pass.store(first, count, lines);
}

/// Lines laid out with strides: element `k` of line `i` is
/// `data[i * line + k * elem]`. The columns of a row-major matrix are
/// `line = 1`, `elem` = its row length; its rows are `line` = the row
/// length, `elem = 1`.
struct Strided<'a> {
    data: &'a mut [Complex64],
    line: usize,
    elem: usize,
}

impl Pass for Strided<'_> {
    fn load<T: Lanes>(&mut self, first: usize, count: usize, batch: &mut [T]) {
        let lines = &self.data[first * self.line..];
        for (k, v) in batch.iter_mut().enumerate() {
            v.gather(&lines[k * self.elem..], self.line, count);
        }
    }

    fn store<T: Lanes>(&mut self, first: usize, count: usize, batch: &[T]) {
        let lines = &mut self.data[first * self.line..];
        for (k, v) in batch.iter().enumerate() {
            v.scatter(&mut lines[k * self.elem..], self.line, count);
        }
    }
}

/// Transform every column of `data`, a row-major matrix of `plan.len()`
/// rows and `stride` columns, in place: the one way a strided line is
/// transformed. Each row's [`LANES`] adjacent columns are one contiguous
/// copy into a batch row; every column sees exactly what `plan.forward` /
/// `plan.inverse` on that column alone computes.
pub(crate) fn column_pass(
    plan: &FftPlan,
    data: &mut [Complex64],
    stride: usize,
    scratch: &mut Scratch,
    inverse: bool,
) {
    assert_eq!(
        data.len(),
        plan.len() * stride,
        "data is not n rows of stride"
    );
    let mut columns = Strided {
        data,
        line: 1,
        elem: stride,
    };
    scratch.run(plan, stride, &mut columns, inverse);
}

/// Transform every contiguous length-`plan.len()` line of `data` in place,
/// [`LANES`] lines per batch.
pub(crate) fn row_pass(
    plan: &FftPlan,
    data: &mut [Complex64],
    scratch: &mut Scratch,
    inverse: bool,
) {
    let n = plan.len();
    assert!(data.len().is_multiple_of(n), "data is not rows of n");
    let lines = data.len() / n;
    let mut rows = Strided {
        data,
        line: n,
        elem: 1,
    };
    scratch.run(plan, lines, &mut rows, inverse);
}

/// In-place serial 3-D FFT of a full `n^3` cube (`n = plan.len()`,
/// layout `[(x*n + y)*n + z]`), axis order z, y, x. The transform of the
/// serial IC reference, and the reference the distributed FFTs are tested
/// against.
pub fn fft3(plan: &FftPlan, data: &mut [Complex64], inverse: bool) {
    let n = plan.len();
    assert_eq!(data.len(), n * n * n, "data is not an n^3 cube");
    let mut scratch = Scratch::new(plan);
    row_pass(plan, data, &mut scratch, inverse);
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
pub(crate) mod tests {
    use super::*;
    use hacc_rt::prop::prelude::*;
    use hacc_rt::rand::{self, Rng, SeedableRng};

    pub(crate) fn rand_signal(n: usize, seed: u64) -> Vec<Complex64> {
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
            assert!(
                max_err(&y, &reference) < 1e-8,
                "n = {n}: {}",
                max_err(&y, &reference)
            );
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
    /// normalizations, operation for operation, one line at a time. The
    /// bit-level reference of every pass: it shares no code with them.
    pub(crate) fn reference_transform(data: &mut [Complex64], inverse: bool) {
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

    pub(crate) fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn two_stages_per_sweep_is_bit_equal_to_one() {
        // Both parities of log2 n, and the Bluestein path (inner lengths
        // 32 and 64) for 12 and 17.
        for n in [2usize, 4, 8, 16, 32, 64, 128, 256, 12, 17] {
            let plan = FftPlan::new(n);
            let mut scratch = vec![Complex64::zero(); plan.scratch_len()];
            for inverse in [false, true] {
                let x = rand_signal(n, 1000 + n as u64);
                let mut got = x.clone();
                plan.run(&mut got, &mut scratch, inverse);
                let mut want = x;
                reference_transform(&mut want, inverse);
                assert_eq!(bits(&got), bits(&want), "n = {n}, inverse = {inverse}");
            }
        }
    }

    /// Every column of a row-major `n × stride` matrix through
    /// [`reference_transform`], one gathered line at a time.
    pub(crate) fn reference_columns(data: &mut [Complex64], stride: usize, inverse: bool) {
        let n = data.len() / stride;
        for c in 0..stride {
            let mut col: Vec<Complex64> = (0..n).map(|r| data[r * stride + c]).collect();
            reference_transform(&mut col, inverse);
            for (r, v) in col.into_iter().enumerate() {
                data[r * stride + c] = v;
            }
        }
    }

    #[test]
    fn column_pass_is_bit_equal_to_each_column_alone() {
        // Widths that are not multiples of LANES; the last row is the
        // stride fft3 uses for its x pass (n rows of n² columns).
        for (n, stride) in [(12usize, 12usize), (17, 17), (4, 16)] {
            let plan = FftPlan::new(n);
            let mut scratch = Scratch::new(&plan);
            for inverse in [false, true] {
                let x = rand_signal(n * stride, (n * stride) as u64);
                let mut got = x.clone();
                column_pass(&plan, &mut got, stride, &mut scratch, inverse);
                let mut want = x;
                reference_columns(&mut want, stride, inverse);
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
