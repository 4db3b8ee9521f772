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
//! global cube — and there is one `transpose`, its own inverse. It keeps
//! no buffers between calls: a retained spare slab measured no faster and
//! raised the resident set by a grid per rank.

use crate::complex::Complex64;
use crate::serial::{column_pass, FftPlan, COLS};
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
    pub fn forward(&self, comm: &mut Comm, data: &mut Vec<Complex64>) {
        assert_eq!(data.len(), self.local_len());
        let n = self.n;
        let mut scratch = vec![Complex64::zero(); COLS * n];

        // FFT along z (contiguous) and y (columns) of each local x-plane.
        for plane in data.chunks_exact_mut(n * n) {
            for row in plane.chunks_exact_mut(n) {
                self.plan.forward(row);
            }
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
    pub fn inverse(&self, comm: &mut Comm, data: &mut Vec<Complex64>) {
        assert_eq!(data.len(), self.local_len());
        let n = self.n;
        let mut scratch = vec![Complex64::zero(); COLS * n];

        for plane in data.chunks_exact_mut(n * n) {
            column_pass(&self.plan, plane, n, &mut scratch, true);
        }
        self.transpose(comm, data, n);
        for plane in data.chunks_exact_mut(n * n) {
            column_pass(&self.plan, plane, n, &mut scratch, true);
            for row in plane.chunks_exact_mut(n) {
                self.plan.inverse(row);
            }
        }
    }

    /// Real-input forward transform: consumes this rank's real slab in
    /// layout A (`local_len()` values) and returns its half spectrum in
    /// layout B, rows of `w = half_width(n)` — the bins `z ≤ n/2` of what
    /// [`Self::forward`] returns for the same field (unnormalized).
    pub fn forward_real(&self, comm: &mut Comm, data: Vec<f64>) -> Vec<Complex64> {
        assert_eq!(data.len(), self.local_len());
        let (n, w) = (self.n, half_width(self.n));
        let mut line = vec![Complex64::zero(); n];
        let mut scratch = vec![Complex64::zero(); COLS * n];
        let mut out = Vec::with_capacity(self.nx * n * w);
        for plane in data.chunks_exact(n * n) {
            let start = out.len();
            for rows in plane.chunks(2 * n) {
                let (a, b) = rows.split_at(n);
                z_forward_pair(&self.plan, a, b, &mut line, &mut out);
            }
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
    /// real slab in layout A, normalized by `1/n³`. The imaginary parts of
    /// the self-conjugate bins `z = 0` and `z = n/2` are dropped: a real
    /// field's are zero.
    pub fn inverse_real<const F: usize>(
        &self,
        comm: &mut Comm,
        mut data: Vec<Complex64>,
    ) -> [Vec<f64>; F] {
        let (n, w) = (self.n, half_width(self.n));
        let width = F * w;
        assert_eq!(data.len(), self.ny * n * width);
        let mut scratch = vec![Complex64::zero(); COLS * n];
        for plane in data.chunks_exact_mut(n * width) {
            column_pass(&self.plan, plane, width, &mut scratch, true);
        }
        self.transpose(comm, &mut data, width);
        let mut line = vec![Complex64::zero(); n];
        let mut out = [(); F].map(|()| Vec::with_capacity(self.local_len()));
        for plane in data.chunks_exact_mut(n * width) {
            column_pass(&self.plan, plane, width, &mut scratch, true);
            // Half-row `j` of a plane is row `j / F` of field `j % F`;
            // consecutive half-rows share one complex FFT.
            for (p, pair) in plane.chunks(2 * w).enumerate() {
                let (a, b) = pair.split_at(w);
                z_inverse_pair(&self.plan, a, b, &mut line);
                out[2 * p % F].extend(line.iter().map(|c| c.re));
                if !b.is_empty() {
                    out[(2 * p + 1) % F].extend(line.iter().map(|c| c.im));
                }
            }
        }
        out
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
    /// plane `r`, read from whichever rank owns plane `r`.
    fn transpose(&self, comm: &mut Comm, data: &mut Vec<Complex64>, width: usize) {
        let n = self.n;
        let (off, cnt) = (self.x0, self.nx);
        // To peer d: rows [off_d, off_d + cnt_d) of every local plane, one
        // contiguous run per plane. The block that stays here is not packed.
        let sends: Vec<Vec<Complex64>> = (0..self.size)
            .map(|d| {
                if d == self.rank {
                    return Vec::new();
                }
                let (od, cd) = slab(n, self.size, d);
                let mut buf = Vec::with_capacity(cnt * cd * width);
                for plane in data.chunks_exact(n * width) {
                    buf.extend_from_slice(&plane[od * width..(od + cd) * width]);
                }
                buf
            })
            .collect();
        let recvd = comm.all_to_allv(sends);
        // Build the output in order — plane l, then source s, then s's
        // planes, each of which contributes row l of its block (the own
        // block is read in place) — so each row is copied once and nothing
        // is zeroed.
        let mut out = Vec::with_capacity(data.len());
        for l in 0..cnt {
            for (s, buf) in recvd.iter().enumerate() {
                let (src, block, first) = if s == self.rank {
                    (data.as_slice(), n * width, off * width)
                } else {
                    (buf.as_slice(), cnt * width, 0)
                };
                for rows in src.chunks_exact(block) {
                    out.extend_from_slice(&rows[first + l * width..][..width]);
                }
            }
        }
        assert_eq!(out.len(), data.len(), "transpose blocks do not tile the slab");
        *data = out;
    }
}

/// The z stage of [`DistFft3d::forward_real`]: appends to `out` the half
/// spectra of the real rows `a` and then `b` (`b` empty for a lone last
/// row), both from one complex FFT `C` of `a + i·b`:
/// `A_k = (C_k + C*_{n−k}) / 2`, `B_k = (C_k − C*_{n−k}) / 2i`.
fn z_forward_pair(
    plan: &FftPlan,
    a: &[f64],
    b: &[f64],
    line: &mut [Complex64],
    out: &mut Vec<Complex64>,
) {
    let n = line.len();
    let w = half_width(n);
    for (c, &re) in line.iter_mut().zip(a) {
        *c = Complex64::new(re, 0.0);
    }
    for (c, &im) in line.iter_mut().zip(b) {
        c.im = im;
    }
    plan.forward(line);
    let mirror = |k: usize| line[(n - k) % n].conj();
    out.extend((0..w).map(|k| (line[k] + mirror(k)).scale(0.5)));
    if !b.is_empty() {
        out.extend((0..w).map(|k| {
            let d = line[k] - mirror(k);
            Complex64::new(0.5 * d.im, -0.5 * d.re)
        }));
    }
}

/// The z stage of [`DistFft3d::inverse_real`], the inverse of
/// [`z_forward_pair`]: leaves in `line` the rows `a + i·b` whose half
/// spectra are `a` and `b` (`b` empty for a lone last row), by one complex
/// inverse FFT of `A_k + i·B_k` with `A_k = A*_{n−k}` above `n/2`.
fn z_inverse_pair(plan: &FftPlan, a: &[Complex64], b: &[Complex64], line: &mut [Complex64]) {
    let n = line.len();
    let w = a.len();
    let b_at = |k: usize| b.get(k).copied().unwrap_or_default();
    for (k, c) in line.iter_mut().enumerate() {
        let (ak, bk) = if k < w {
            (a[k], b_at(k))
        } else {
            (a[n - k].conj(), b_at(n - k).conj())
        };
        *c = Complex64::new(ak.re - bk.im, ak.im + bk.re);
    }
    // Bins 0 and n/2 (even n) of a real row are real.
    let nyquist = if n.is_multiple_of(2) { n / 2 } else { 0 };
    for k in [0, nyquist] {
        line[k] = Complex64::new(a[k].re, b_at(k).re);
    }
    plan.inverse(line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::fft3;
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
            let mut local =
                grid[fft.x0 * n * n..(fft.x0 + fft.nx) * n * n].to_vec();
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
            let orig =
                grid[fft.x0 * n * n..(fft.x0 + fft.nx) * n * n].to_vec();
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
                        let [one] = fft.inverse_real(comm, h.clone());
                        one
                    });
                    let two = fft.inverse_real::<2>(comm, side_by_side(2));
                    let three = fft.inverse_real::<3>(comm, side_by_side(3));
                    let close = |got: &[f64], want: &[f64], what: &str| {
                        assert_eq!(got.len(), want.len());
                        for (g, w) in got.iter().zip(want) {
                            assert!((g - w).abs() <= 1e-12, "n={n} ranks={ranks} {what}: {g} vs {w}");
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
