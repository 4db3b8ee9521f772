//! Distributed 3-D FFT over simulated ranks (the SWFFT analog).
//!
//! The global `n³` mesh is slab-decomposed: in real space every rank owns a
//! contiguous block of x-planes (`[x0, x0+nx)`, full y/z extent); after the
//! forward transform the data lands in a y-slab "transposed" k-space layout
//! (`[y0, y0+ny)`, full x/z extent). The transpose in the middle is the
//! all-to-all pattern that dominated SWFFT's communication on Frontier.
//!
//! Every plane is `n` rows of `width` values along z:
//!
//! Real-space layout A: `data[(lx * n + y) * width + z]` for `lx in 0..nx`.
//! K-space layout B: `data[(ly * n + x) * width + z]` for `ly in 0..ny`.
//!
//! The fields the solver transforms are real, so their spectra are
//! Hermitian and [`DistFft3d::forward_real`] / [`DistFft3d::inverse_real`]
//! keep only the bins `z ≤ n/2`: `w = n/2 + 1` complex values per z-row
//! (`F · w` for `F` fields side by side). Their z stage takes two real
//! rows through one complex length-`n` FFT; the y/x column passes and the
//! transpose are the complex ones at that row width. The complex-to-complex
//! [`DistFft3d::forward`] / [`DistFft3d::inverse`] are the width-`n` case:
//! the reference the real transforms are tested against.
//!
//! Both layouts split their slab axis with the same [`slab`], so A -> B
//! and B -> A are one operation — swap the plane and row indices of the
//! global cube — and there is one `transpose`, its own inverse. It works
//! in place: the rows bound for each peer are packed into one send
//! buffer, the square block that stays on the rank is turned by swaps,
//! and each received block lands in the rows its own send vacated. No
//! output slab is built and no buffer is kept between calls.
//!
//! [`DistFft3d::inverse_real`] works in place too: its z stage writes each
//! complex line back into the spectrum's own allocation and returns it as
//! [`RealFields`], a read-only view of the `F` real slabs.

use crate::complex::Complex64;
use crate::serial::{column_pass, row_pass, FftPlan, Lanes, Pass, Scratch};
use hacc_ranks::Comm;

/// Slab bounds for one rank: `(offset, count)` planes.
#[inline]
pub fn slab(n: usize, size: usize, rank: usize) -> (usize, usize) {
    let base = n / size;
    let rem = n % size;
    let count = base + usize::from(rank < rem);
    let offset = rank * base + rank.min(rem);
    (offset, count)
}

/// Complex values per z-row of a half spectrum of an `n³` grid: the bins
/// `z = 0 ..= n/2` of a real field.
#[inline]
pub fn half_width(n: usize) -> usize {
    n / 2 + 1
}

/// A distributed 3-D FFT plan bound to a world size and this rank.
#[derive(Debug)]
pub struct DistFft3d {
    n: usize,
    size: usize,
    rank: usize,
    /// Real-space slab: x-planes `[x0, x0 + nx)`.
    pub x0: usize,
    /// Number of local x-planes.
    pub nx: usize,
    /// K-space slab: y-planes `[y0, y0 + ny)`.
    pub y0: usize,
    /// Number of local y-planes in the transposed layout.
    pub ny: usize,
    plan: FftPlan,
}

impl DistFft3d {
    /// Create a plan for a global `n³` grid on the communicator's world.
    ///
    /// Worlds larger than `n` are allowed: ranks beyond the first `n`
    /// own zero planes in both layouts (`slab` hands them empty
    /// extents). Zero-plane ranks do no butterfly work but still enter
    /// every transpose exchange — the all-to-all-v is a collective, and
    /// plane owners route around them with empty counts.
    pub fn new(comm: &Comm, n: usize) -> Self {
        assert!(n >= 2, "grid too small");
        let (x0, nx) = slab(n, comm.size(), comm.rank());
        let (y0, ny) = slab(n, comm.size(), comm.rank());
        Self {
            n,
            size: comm.size(),
            rank: comm.rank(),
            x0,
            nx,
            y0,
            ny,
            plan: FftPlan::new(n),
        }
    }

    /// Global grid size per dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The rank this plan was built for.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of local values of a full-width slab: the complex elements
    /// of both layouts of [`Self::forward`] / [`Self::inverse`], and the
    /// reals of layout A that [`Self::forward_real`] reads and
    /// [`Self::inverse_real`] writes per field. A half-spectrum slab holds
    /// `ny · n · half_width(n)` complex values.
    pub fn local_len(&self) -> usize {
        self.nx * self.n * self.n
    }

    /// Forward transform: consumes real-space layout A, returns k-space
    /// layout B (unnormalized).
    pub fn forward(&self, comm: &mut Comm, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.local_len());
        let n = self.n;
        let mut scratch = Scratch::new(&self.plan);

        // FFT along z (contiguous) and y (columns) of each local x-plane.
        for plane in data.chunks_exact_mut(n * n) {
            row_pass(&self.plan, plane, &mut scratch, false);
            column_pass(&self.plan, plane, n, &mut scratch, false);
        }

        // x-slabs -> y-slabs, then FFT along x (columns of each y-plane).
        self.transpose(comm, data, n);
        for plane in data.chunks_exact_mut(n * n) {
            column_pass(&self.plan, plane, n, &mut scratch, false);
        }
    }

    /// Inverse transform: consumes k-space layout B, returns real-space
    /// layout A, normalized by `1/n³`.
    pub fn inverse(&self, comm: &mut Comm, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.local_len());
        let n = self.n;
        let mut scratch = Scratch::new(&self.plan);

        for plane in data.chunks_exact_mut(n * n) {
            column_pass(&self.plan, plane, n, &mut scratch, true);
        }
        self.transpose(comm, data, n);
        for plane in data.chunks_exact_mut(n * n) {
            column_pass(&self.plan, plane, n, &mut scratch, true);
            row_pass(&self.plan, plane, &mut scratch, true);
        }
    }

    /// Real-input forward transform: consumes this rank's real slab in
    /// layout A (`local_len()` values) and returns its half spectrum in
    /// layout B, rows of `w = half_width(n)` — the bins `z ≤ n/2` of what
    /// [`Self::forward`] returns for the same field (unnormalized).
    pub fn forward_real(&self, comm: &mut Comm, data: Vec<f64>) -> Vec<Complex64> {
        assert_eq!(data.len(), self.local_len());
        let (n, w) = (self.n, half_width(self.n));
        let mut scratch = Scratch::new(&self.plan);
        let mut out = Vec::with_capacity(self.nx * n * w);
        for plane in data.chunks_exact(n * n) {
            let start = out.len();
            let mut pairs = RealRowPairs {
                plane,
                n,
                out: &mut out,
            };
            scratch.run(&self.plan, n.div_ceil(2), &mut pairs, false);
            column_pass(&self.plan, &mut out[start..], w, &mut scratch, false);
        }
        drop(data);
        self.transpose(comm, &mut out, w);
        for plane in out.chunks_exact_mut(n * w) {
            column_pass(&self.plan, plane, w, &mut scratch, false);
        }
        out
    }

    /// Real-output inverse of `F` half spectra stored side by side:
    /// consumes layout B with rows of `F · w` values (field `f`'s bins
    /// `z ≤ n/2` at `[f·w, (f+1)·w)` of each row) and returns each field's
    /// real slab in layout A, normalized by `1/n³`, as a view of the
    /// consumed allocation ([`RealFields`]). The imaginary parts of the
    /// self-conjugate bins `z = 0` and `z = n/2` are dropped: a real
    /// field's are zero.
    pub fn inverse_real<const F: usize>(
        &self,
        comm: &mut Comm,
        mut data: Vec<Complex64>,
    ) -> RealFields<F> {
        let (n, w) = (self.n, half_width(self.n));
        let width = F * w;
        assert_eq!(data.len(), self.ny * n * width);
        let mut scratch = Scratch::new(&self.plan);
        for plane in data.chunks_exact_mut(n * width) {
            column_pass(&self.plan, plane, width, &mut scratch, true);
        }
        self.transpose(comm, &mut data, width);
        let lines = (n * F).div_ceil(2);
        for l in 0..self.nx {
            let plane = l * n * width;
            column_pass(
                &self.plan,
                &mut data[plane..][..n * width],
                width,
                &mut scratch,
                true,
            );
            let mut pairs = HalfRowPairs {
                data: &mut data,
                plane,
                half_rows: n * F,
                first_line: l * lines,
                n,
            };
            scratch.run(&self.plan, lines, &mut pairs, true);
        }
        data.truncate(self.nx * lines * n);
        RealFields { n, lines, data }
    }

    /// Global wavenumber indices `(kx, ky, kz)` of local k-space element
    /// `(ly, x, z)` in layout B.
    #[inline]
    pub fn k_index(&self, ly: usize, x: usize, z: usize) -> (usize, usize, usize) {
        (x, self.y0 + ly, z)
    }

    /// The slab transpose, A -> B and B -> A alike, for planes of `n`
    /// rows of `width`: with `p = off + l` the global index of local plane
    /// `l`,
    ///
    /// ```text
    /// out[(l * n + r) * width + z] = global[(r * n + p) * width + z]
    /// ```
    ///
    /// i.e. row `r` of this rank's output plane `p` is row `p` of global
    /// plane `r`, read from whichever rank owns plane `r`. In place: no
    /// output slab, only the rows that leave the rank are copied out.
    fn transpose(&self, comm: &mut Comm, data: &mut [Complex64], width: usize) {
        let n = self.n;
        let (off, cnt) = (self.x0, self.nx);
        assert_eq!(data.len(), cnt * n * width, "transpose of a foreign slab");
        let row = |l: usize, r: usize| (l * n + r) * width;
        // To peer d: rows [off_d, off_d + cnt_d) of every local plane, one
        // contiguous run per plane. The block that stays here is not packed.
        let sends: Vec<Vec<Complex64>> = (0..self.size)
            .map(|d| {
                if d == self.rank {
                    return Vec::new();
                }
                let (od, cd) = slab(n, self.size, d);
                let mut buf = Vec::with_capacity(cnt * cd * width);
                for l in 0..cnt {
                    buf.extend_from_slice(&data[row(l, od)..row(l, od + cd)]);
                }
                buf
            })
            .collect();
        // The block that stays is square: row (l, off + j) trades places
        // with row (j, off + l), the later of the two.
        for l in 0..cnt {
            for j in l + 1..cnt {
                let (head, tail) = data.split_at_mut(row(j, off + l));
                head[row(l, off + j)..][..width].swap_with_slice(&mut tail[..width]);
            }
        }
        // Source s sent, plane j then row l, row (off + l) of its plane
        // o_s + j: it fills the rows (l, o_s + j) that this rank's own send
        // to s vacated.
        for (s, buf) in comm.all_to_allv(sends).into_iter().enumerate() {
            if s == self.rank {
                continue;
            }
            let (os, cs) = slab(n, self.size, s);
            assert_eq!(
                buf.len(),
                cs * cnt * width,
                "transpose blocks do not tile the slab"
            );
            for (k, rows) in buf.chunks_exact(width).enumerate() {
                let (j, l) = (k / cnt, k % cnt);
                data[row(l, os + j)..][..width].copy_from_slice(rows);
            }
        }
    }
}

/// The `F` real slabs [`DistFft3d::inverse_real`] returns, in layout A,
/// left in the allocation of the spectrum it consumed: a read-only view.
///
/// A plane holds `n · F` real rows, half-row `j = y·F + f` being row `y`
/// of field `f`. The z stage takes them two at a time through one complex
/// FFT and stores that line, `a + i·b`, as `n` complex values: plane `lx`
/// keeps its `⌈n·F/2⌉` lines from line `lx · ⌈n·F/2⌉`, and half-row `j` is
/// the `re` (even `j`) or `im` (odd `j`) of line `j / 2` — the last line's
/// `im` is unused when `n·F` is odd.
#[derive(Debug)]
pub struct RealFields<const F: usize> {
    n: usize,
    /// Lines per plane, `⌈n·F/2⌉`.
    lines: usize,
    data: Vec<Complex64>,
}

impl<const F: usize> RealFields<F> {
    /// Field `f`, below `F`.
    pub fn field(&self, f: usize) -> RealField<'_, F> {
        assert!(f < F, "field {f} of {F}");
        RealField { fields: self, f }
    }
}

/// One field of a [`RealFields`]: a real slab in layout A.
#[derive(Debug, Clone, Copy)]
pub struct RealField<'a, const F: usize> {
    fields: &'a RealFields<F>,
    f: usize,
}

impl<'a, const F: usize> RealField<'a, F> {
    /// The value at column `z` of row `y` of local plane `lx`.
    #[inline]
    pub fn at(&self, lx: usize, y: usize, z: usize) -> f64 {
        let RealFields { n, lines, ref data } = *self.fields;
        let j = y * F + self.f;
        let c = data[(lx * lines + j / 2) * n + z];
        if j.is_multiple_of(2) {
            c.re
        } else {
            c.im
        }
    }

    /// Every value, in layout A order `(lx · n + y) · n + z`.
    pub fn values(self) -> impl Iterator<Item = f64> + 'a {
        let RealFields { n, lines, ref data } = *self.fields;
        let planes = data.len() / (lines * n);
        (0..planes * n * n).map(move |i| self.at(i / (n * n), i / n % n, i % n))
    }
}

/// The z stage of [`DistFft3d::forward_real`] over one plane of `n` real
/// rows: line `p` is the complex row `a + i·b` of rows `a = 2p` and
/// `b = 2p + 1` (`b = 0` for a lone last row). Its transform `C` is
/// stored as the half spectra `A_k = (C_k + C*_{n−k}) / 2` and
/// `B_k = (C_k − C*_{n−k}) / 2i`, appended to `out` in row order.
struct RealRowPairs<'a> {
    plane: &'a [f64],
    n: usize,
    out: &'a mut Vec<Complex64>,
}

impl Pass for RealRowPairs<'_> {
    fn load<T: Lanes>(&mut self, first: usize, count: usize, batch: &mut [T]) {
        let n = self.n;
        for (c, rows) in self.plane[2 * first * n..]
            .chunks(2 * n)
            .take(count)
            .enumerate()
        {
            let (a, b) = rows.split_at(n);
            for (k, v) in batch.iter_mut().enumerate() {
                v.set_lane(c, Complex64::new(a[k], b.get(k).copied().unwrap_or(0.0)));
            }
        }
    }

    fn store<T: Lanes>(&mut self, first: usize, count: usize, batch: &[T]) {
        let (n, w) = (self.n, half_width(self.n));
        for c in 0..count {
            let line = |k: usize| batch[k].lane(c);
            // (n − k) mod n: bin 0 is its own mirror.
            let mirror = |k: usize| line(if k == 0 { 0 } else { n - k }).conj();
            self.out
                .extend((0..w).map(|k| (line(k) + mirror(k)).scale(0.5)));
            if 2 * (first + c) + 1 < n {
                self.out.extend((0..w).map(|k| {
                    let d = line(k) - mirror(k);
                    Complex64::new(0.5 * d.im, -0.5 * d.re)
                }));
            }
        }
    }
}

/// The z stage of [`DistFft3d::inverse_real`] over the plane of `half_rows`
/// half-rows of `w = half_width(n)` starting at `data[plane]`, the inverse
/// of [`RealRowPairs`]: line `p` is the complex inverse FFT of
/// `A_k + i·B_k` (`A_k = A*_{n−k}` above `n/2`) for half-rows `a = 2p` and
/// `b = 2p + 1` (`B = 0` for a lone last half-row), the rows `a + i·b`. It
/// is stored at line `first_line + p` of `data`, at or below the half-rows
/// it was made from: lines take `n` values, half-row pairs `2w > n`, and a
/// batch is read whole before any of it is written.
struct HalfRowPairs<'a> {
    data: &'a mut [Complex64],
    plane: usize,
    half_rows: usize,
    first_line: usize,
    n: usize,
}

impl Pass for HalfRowPairs<'_> {
    fn load<T: Lanes>(&mut self, first: usize, count: usize, batch: &mut [T]) {
        let (n, w) = (self.n, half_width(self.n));
        // Bins 0 and n/2 (even n) of a real row are real.
        let nyquist = if n.is_multiple_of(2) { n / 2 } else { 0 };
        for c in 0..count {
            let p = first + c;
            let a = &self.data[self.plane + 2 * p * w..][..w];
            let b = if 2 * p + 1 < self.half_rows {
                &self.data[self.plane + (2 * p + 1) * w..][..w]
            } else {
                &[]
            };
            let b_at = |k: usize| b.get(k).copied().unwrap_or_default();
            let pair = |ak: Complex64, bk: Complex64| Complex64::new(ak.re - bk.im, ak.im + bk.re);
            let (lo, hi) = batch.split_at_mut(w);
            for (k, v) in lo.iter_mut().enumerate() {
                v.set_lane(c, pair(a[k], b_at(k)));
            }
            // Above n/2, A_k = A*_{n−k}: k = w .. n reads n − w down to 1.
            for (v, k) in hi.iter_mut().zip((1..=n - w).rev()) {
                v.set_lane(c, pair(a[k].conj(), b_at(k).conj()));
            }
            for k in [0, nyquist] {
                batch[k].set_lane(c, Complex64::new(a[k].re, b_at(k).re));
            }
        }
    }

    fn store<T: Lanes>(&mut self, first: usize, count: usize, batch: &[T]) {
        let n = self.n;
        let lines = self.data[(self.first_line + first) * n..].chunks_exact_mut(n);
        for (c, line) in lines.take(count).enumerate() {
            for (z, v) in line.iter_mut().zip(batch) {
                *z = v.lane(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::fft3;
    use crate::serial::tests::{bits, rand_signal, reference_columns, reference_transform};
    use hacc_ranks::World;
    use hacc_rt::rand::{self, Rng, SeedableRng};

    fn rand_grid(n: usize, seed: u64) -> Vec<Complex64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n * n * n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect()
    }

    #[test]
    fn slab_partitions_cover() {
        for n in [8usize, 12, 17] {
            for size in 1..=n {
                let mut total = 0;
                let mut expect_off = 0;
                for r in 0..size {
                    let (off, cnt) = slab(n, size, r);
                    assert_eq!(off, expect_off);
                    expect_off += cnt;
                    total += cnt;
                }
                assert_eq!(total, n);
            }
        }
    }

    fn check_matches_serial(n: usize, ranks: usize) {
        let grid = rand_grid(n, 99);
        let mut reference = grid.clone();
        fft3(&FftPlan::new(n), &mut reference, false);
        let results = World::run(ranks, |comm| {
            let fft = DistFft3d::new(comm, n);
            let mut local = grid[fft.x0 * n * n..(fft.x0 + fft.nx) * n * n].to_vec();
            fft.forward(comm, &mut local);
            (fft.y0, fft.ny, local)
        });
        for (y0, ny, local) in results {
            for ly in 0..ny {
                for x in 0..n {
                    for z in 0..n {
                        let got = local[(ly * n + x) * n + z];
                        let want = reference[(x * n + (y0 + ly)) * n + z];
                        assert!(
                            (got - want).abs() < 1e-8,
                            "mismatch at x={x} y={} z={z}",
                            y0 + ly
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn distributed_matches_serial_1_rank() {
        check_matches_serial(8, 1);
    }

    #[test]
    fn distributed_matches_serial_2_ranks() {
        check_matches_serial(8, 2);
    }

    #[test]
    fn distributed_matches_serial_4_ranks() {
        check_matches_serial(16, 4);
    }

    #[test]
    fn distributed_matches_serial_uneven_ranks() {
        // 3 ranks on a 16-grid: slabs of 6/5/5.
        check_matches_serial(16, 3);
    }

    #[test]
    fn forward_inverse_roundtrip_multirank() {
        let n = 16;
        let grid = rand_grid(n, 5);
        let results = World::run(4, |comm| {
            let fft = DistFft3d::new(comm, n);
            let orig = grid[fft.x0 * n * n..(fft.x0 + fft.nx) * n * n].to_vec();
            let mut local = orig.clone();
            fft.forward(comm, &mut local);
            fft.inverse(comm, &mut local);
            let err = local
                .iter()
                .zip(&orig)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            err
        });
        for err in results {
            assert!(err < 1e-10, "roundtrip error {err}");
        }
    }

    #[test]
    fn non_power_of_two_grid() {
        // Exercises the Bluestein path inside the distributed transform.
        check_matches_serial(12, 3);
    }

    #[test]
    fn world_larger_than_grid_leaves_extra_ranks_empty() {
        // 6 ranks on a 4-grid: ranks 4 and 5 own zero planes in both
        // layouts but must still participate in every transpose.
        check_matches_serial(4, 6);
    }

    /// Each field of a [`RealFields`] as its own slab.
    fn slabs<const F: usize>(fields: &RealFields<F>) -> [Vec<f64>; F] {
        std::array::from_fn(|f| fields.field(f).values().collect())
    }

    #[test]
    fn real_transforms_are_the_half_of_the_complex_ones() {
        // Radix-2, even and odd Bluestein grids; even, uneven and (6 ranks
        // on n = 4) zero-plane slabs. Two and three fields side by side
        // through one inverse must each come back as its single-field
        // inverse does — three on odd n = 17 leave each plane's 51
        // half-rows a lone last row.
        for n in [4usize, 12, 16, 17] {
            for ranks in [1usize, 2, 3, 6] {
                let fields = [rand_grid(n, 7), rand_grid(n, 8), rand_grid(n, 9)];
                World::run(ranks, |comm| {
                    let fft = DistFft3d::new(comm, n);
                    let w = half_width(n);
                    let slab = |g: &[Complex64]| g[fft.x0 * n * n..][..fft.local_len()].to_vec();
                    let reals = fields
                        .each_ref()
                        .map(|g| slab(g).iter().map(|c| c.re).collect::<Vec<f64>>());
                    let halves = reals.each_ref().map(|r| fft.forward_real(comm, r.clone()));
                    for (g, half) in fields.iter().zip(&halves) {
                        let mut full = slab(g);
                        fft.forward(comm, &mut full);
                        let scale = full.iter().map(|c| c.abs()).fold(0.0, f64::max);
                        assert_eq!(half.len(), fft.ny * n * w);
                        for (row, half_row) in full.chunks_exact(n).zip(half.chunks_exact(w)) {
                            for (got, want) in half_row.iter().zip(row) {
                                assert!(
                                    (*got - *want).abs() <= 1e-12 * scale,
                                    "n={n} ranks={ranks}: {got:?} vs {want:?}"
                                );
                            }
                        }
                    }
                    // The first `f` fields' half-rows side by side.
                    let side_by_side = |f: usize| {
                        let mut rows = Vec::with_capacity(f * halves[0].len());
                        for r in 0..halves[0].len() / w {
                            for half in &halves[..f] {
                                rows.extend_from_slice(&half[r * w..][..w]);
                            }
                        }
                        rows
                    };
                    let ones = halves.each_ref().map(|h| {
                        let [one] = slabs(&fft.inverse_real(comm, h.clone()));
                        one
                    });
                    let two = slabs(&fft.inverse_real::<2>(comm, side_by_side(2)));
                    let three = slabs(&fft.inverse_real::<3>(comm, side_by_side(3)));
                    let close = |got: &[f64], want: &[f64], what: &str| {
                        assert_eq!(got.len(), want.len());
                        for (g, w) in got.iter().zip(want) {
                            assert!(
                                (g - w).abs() <= 1e-12,
                                "n={n} ranks={ranks} {what}: {g} vs {w}"
                            );
                        }
                    };
                    for (f, one) in ones.iter().enumerate() {
                        close(one, &reals[f], "round trip");
                        close(&three[f], one, "3 side by side");
                    }
                    close(&two[0], &ones[0], "2 side by side");
                    close(&two[1], &ones[1], "2 side by side");
                });
            }
        }
    }

    #[test]
    fn transpose_is_the_documented_map_and_its_own_inverse() {
        // Even and uneven slabs, a world with zero-plane ranks, and the
        // row widths of the complex and the half-spectrum transforms.
        for (n, ranks) in [(8usize, 1usize), (8, 3), (12, 5), (17, 4), (4, 6)] {
            for width in [n, half_width(n), 2 * half_width(n)] {
                let global: Vec<Complex64> = (0..n * n * width)
                    .map(|i| Complex64::new(i as f64, -(i as f64)))
                    .collect();
                World::run(ranks, |comm| {
                    let fft = DistFft3d::new(comm, n);
                    let orig = global[fft.x0 * n * width..(fft.x0 + fft.nx) * n * width].to_vec();
                    let mut local = orig.clone();
                    fft.transpose(comm, &mut local, width);
                    assert_eq!(local.len(), orig.len());
                    for l in 0..fft.nx {
                        let p = fft.x0 + l;
                        for r in 0..n {
                            for z in 0..width {
                                assert_eq!(
                                    local[(l * n + r) * width + z],
                                    global[(r * n + p) * width + z],
                                    "n={n} ranks={ranks} width={width} plane {p} row {r} z {z}"
                                );
                            }
                        }
                    }
                    fft.transpose(comm, &mut local, width);
                    assert_eq!(
                        local, orig,
                        "n={n} ranks={ranks} width={width}: not an involution"
                    );
                });
            }
        }
    }

    /// The z stage of the real forward transform for rows `a` and `b`
    /// (`b` empty for a lone last row), one line through
    /// [`reference_transform`]: the half spectra of `a`, then of `b`.
    fn z_forward_pair_reference(a: &[f64], b: &[f64]) -> Vec<Complex64> {
        let n = a.len();
        let w = half_width(n);
        let mut line: Vec<Complex64> = a.iter().map(|&re| Complex64::new(re, 0.0)).collect();
        for (c, &im) in line.iter_mut().zip(b) {
            c.im = im;
        }
        reference_transform(&mut line, false);
        let mirror = |k: usize| line[(n - k) % n].conj();
        let mut out: Vec<Complex64> = (0..w).map(|k| (line[k] + mirror(k)).scale(0.5)).collect();
        if !b.is_empty() {
            out.extend((0..w).map(|k| {
                let d = line[k] - mirror(k);
                Complex64::new(0.5 * d.im, -0.5 * d.re)
            }));
        }
        out
    }

    /// The z stage of the real inverse for half-rows `a` and `b` (`b`
    /// empty for a lone last half-row), one line through
    /// [`reference_transform`]: the rows `a + i·b`.
    fn z_inverse_pair_reference(n: usize, a: &[Complex64], b: &[Complex64]) -> Vec<Complex64> {
        let w = a.len();
        let b_at = |k: usize| b.get(k).copied().unwrap_or_default();
        let mut line: Vec<Complex64> = (0..n)
            .map(|k| {
                let (ak, bk) = if k < w {
                    (a[k], b_at(k))
                } else {
                    (a[n - k].conj(), b_at(n - k).conj())
                };
                Complex64::new(ak.re - bk.im, ak.im + bk.re)
            })
            .collect();
        let nyquist = if n.is_multiple_of(2) { n / 2 } else { 0 };
        for k in [0, nyquist] {
            line[k] = Complex64::new(a[k].re, b_at(k).re);
        }
        reference_transform(&mut line, true);
        line
    }

    /// [`DistFft3d::forward_real`] line by line: the reference its
    /// batches must match bitwise.
    fn forward_real_reference(fft: &DistFft3d, comm: &mut Comm, data: &[f64]) -> Vec<Complex64> {
        let (n, w) = (fft.n, half_width(fft.n));
        let mut out = Vec::with_capacity(fft.nx * n * w);
        for plane in data.chunks_exact(n * n) {
            let start = out.len();
            for rows in plane.chunks(2 * n) {
                let (a, b) = rows.split_at(n);
                out.extend(z_forward_pair_reference(a, b));
            }
            reference_columns(&mut out[start..], w, false);
        }
        fft.transpose(comm, &mut out, w);
        for plane in out.chunks_exact_mut(n * w) {
            reference_columns(plane, w, false);
        }
        out
    }

    /// The real inverse as a copy, line by line through
    /// [`reference_transform`]: each line's `re` and `im` appended to
    /// fresh per-field slabs, the reference [`RealFields`] must read.
    fn inverse_real_copied<const F: usize>(
        fft: &DistFft3d,
        comm: &mut Comm,
        mut data: Vec<Complex64>,
    ) -> [Vec<f64>; F] {
        let (n, w) = (fft.n, half_width(fft.n));
        let width = F * w;
        for plane in data.chunks_exact_mut(n * width) {
            reference_columns(plane, width, true);
        }
        fft.transpose(comm, &mut data, width);
        let mut out = [(); F].map(|()| Vec::with_capacity(fft.local_len()));
        for plane in data.chunks_exact_mut(n * width) {
            reference_columns(plane, width, true);
            for (p, pair) in plane.chunks(2 * w).enumerate() {
                let (a, b) = pair.split_at(w);
                let line = z_inverse_pair_reference(n, a, b);
                out[2 * p % F].extend(line.iter().map(|c| c.re));
                if !b.is_empty() {
                    out[(2 * p + 1) % F].extend(line.iter().map(|c| c.im));
                }
            }
        }
        out
    }

    /// `F` random half spectra side by side on this rank, in layout B.
    fn rand_half_spectra<const F: usize>(fft: &DistFft3d, seed: u64) -> Vec<Complex64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed + fft.rank as u64);
        (0..fft.ny * fft.n * F * half_width(fft.n))
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    fn check_in_place<const F: usize>(n: usize, ranks: usize) {
        World::run(ranks, |comm| {
            let fft = DistFft3d::new(comm, n);
            let spectra = rand_half_spectra::<F>(&fft, 11 * F as u64);
            let want = inverse_real_copied::<F>(&fft, comm, spectra.clone());
            let ptr = spectra.as_ptr();
            let got = fft.inverse_real::<F>(comm, spectra);
            assert_eq!(
                got.data.as_ptr(),
                ptr,
                "F={F} n={n} ranks={ranks}: a new allocation"
            );
            for (f, want) in want.iter().enumerate() {
                let got: Vec<u64> = got.field(f).values().map(f64::to_bits).collect();
                let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "F={F} n={n} ranks={ranks} field {f}");
            }
            let mut slab = rand_half_spectra::<F>(&fft, 3);
            let ptr = slab.as_ptr();
            fft.transpose(comm, &mut slab, F * half_width(n));
            assert_eq!(
                slab.as_ptr(),
                ptr,
                "F={F} n={n} ranks={ranks}: transpose moved"
            );
        });
    }

    #[test]
    fn real_inverse_works_in_place_and_reads_the_copied_lines_bitwise() {
        // Odd n·F (9 and 17 with one or three fields) leaves each plane a
        // lone last half-row; six ranks on n = 4 own no plane past rank 3.
        for n in [4usize, 9, 12, 16, 17] {
            for ranks in [1usize, 2, 3, 6] {
                check_in_place::<1>(n, ranks);
                check_in_place::<2>(n, ranks);
                check_in_place::<3>(n, ranks);
            }
        }
    }

    #[test]
    fn batched_passes_are_bit_equal_to_the_per_line_reference() {
        // Widths below, at and past LANES: tails of one to seven lines
        // (the one-line path and part-filled rows) behind zero to sixteen
        // full rows; radix-2 lengths of both log2 parities and Bluestein
        // lengths, the paper-grid factor 126 among them.
        for n in [2usize, 4, 8, 9, 12, 16, 17, 32, 64, 126, 128] {
            let plan = FftPlan::new(n);
            let mut scratch = Scratch::new(&plan);
            for width in [1usize, 3, 7, 8, 9, 17, 33, 65, 130] {
                for inverse in [false, true] {
                    let x = rand_signal(n * width, (n * width) as u64 + u64::from(inverse));
                    let mut got = x.clone();
                    column_pass(&plan, &mut got, width, &mut scratch, inverse);
                    let mut want = x.clone();
                    reference_columns(&mut want, width, inverse);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "columns: n={n} width={width} inverse={inverse}"
                    );
                    // The same values as `width` contiguous lines.
                    let mut got = x.clone();
                    row_pass(&plan, &mut got, &mut scratch, inverse);
                    let mut want = x;
                    for line in want.chunks_exact_mut(n) {
                        reference_transform(line, inverse);
                    }
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "rows: n={n} lines={width} inverse={inverse}"
                    );
                }
            }
        }
        // The real transforms' z stages: odd n (a lone last row per plane
        // forward, and a lone last half-row for odd n·F inverse), whole
        // batches of row pairs (16, 128) and a one-pair tail (17).
        for n in [9usize, 16, 17, 128] {
            for ranks in [1usize, 2, 3] {
                World::run(ranks, |comm| {
                    let fft = DistFft3d::new(comm, n);
                    let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 + comm.rank() as u64);
                    let real: Vec<f64> = (0..fft.local_len())
                        .map(|_| rng.gen_range(-1.0..1.0))
                        .collect();
                    let want = forward_real_reference(&fft, comm, &real);
                    let got = fft.forward_real(comm, real);
                    assert_eq!(bits(&got), bits(&want), "forward_real: n={n} ranks={ranks}");
                });
                check_in_place::<1>(n, ranks);
                check_in_place::<2>(n, ranks);
                check_in_place::<3>(n, ranks);
            }
        }
    }

    #[test]
    fn k_index_reports_transposed_coords() {
        World::run(2, |comm| {
            let fft = DistFft3d::new(comm, 8);
            let (kx, ky, kz) = fft.k_index(1, 3, 5);
            assert_eq!(kx, 3);
            assert_eq!(ky, fft.y0 + 1);
            assert_eq!(kz, 5);
        });
    }
}
