//! Pencil-decomposed distributed 3-D FFT — the full SWFFT scheme.
//!
//! The slab decomposition of [`crate::dist`] caps the rank count at `n`
//! (one plane per rank). SWFFT's pencil decomposition factors the ranks
//! into a 2-D grid `P = P1 × P2`; each rank owns an `(n/P1) × (n/P2) × n`
//! pencil, so up to `n²` ranks participate — the property that let HACC
//! run 12,600³ grids across 72,000 ranks.
//!
//! Stages (forward):
//!
//! 1. z-pencils: FFT along z (contiguous), then all-to-all within each
//!    P2 row to turn z-pencils into y-pencils;
//! 2. y-pencils: FFT along y, then all-to-all within each P1 column to
//!    turn y-pencils into x-pencils;
//! 3. x-pencils: FFT along x. K-space data stays in x-pencil layout.
//!
//! The inverse runs the stages backwards. Each all-to-all involves only
//! `P1` (or `P2`) ranks — the sub-communicator pattern of SWFFT — but is
//! expressed over the world communicator with explicit send maps, exactly
//! like the library's `redistribute` phase.

use crate::complex::Complex64;
use crate::dist::slab;
use crate::serial::FftPlan;
use hacc_ranks::Comm;

/// Pencil grid: factor `size` into `p1 × p2` as square as possible.
pub fn pencil_dims(size: usize) -> (usize, usize) {
    let mut best = (1, size);
    let mut i = 1;
    while i * i <= size {
        if size % i == 0 {
            best = (i, size / i);
        }
        i += 1;
    }
    (best.0, best.1) // p1 <= p2
}

/// A pencil-decomposed FFT plan bound to one rank.
///
/// Layouts (all row-major with the pencil's long axis contiguous):
/// * **Z layout** (real space input): rank `(r1, r2)` owns
///   `x ∈ [x0, x0+nx)`, `y ∈ [y0, y0+ny)`, all z;
///   index `[(lx * ny + ly) * n + z]`.
/// * **Y layout**: owns `x` block (from p1) × `z` block (from p2), all y;
///   index `[(lx * nz + lz) * n + y]`.
/// * **X layout** (k space): owns `y` block (from p1) × `z` block
///   (from p2), all x; index `[(ly * nz + lz) * n + x]`.
#[derive(Debug)]
pub struct PencilFft3d {
    n: usize,
    p1: usize,
    p2: usize,
    r1: usize,
    r2: usize,
    /// Real-space x block.
    pub x0: usize,
    /// Real-space x count.
    pub nx: usize,
    /// Real-space y block.
    pub y0: usize,
    /// Real-space y count.
    pub ny: usize,
    /// z block (y layout) / k-space z block.
    pub z0: usize,
    /// z count.
    pub nz: usize,
    /// K-space y block.
    pub ky0: usize,
    /// K-space y count.
    pub kny: usize,
    plan: FftPlan,
}

impl PencilFft3d {
    /// Create a plan on the communicator's world for a global `n³` grid.
    /// Requires `p1 <= n` and `p2 <= n`.
    pub fn new(comm: &Comm, n: usize) -> Self {
        let (p1, p2) = pencil_dims(comm.size());
        assert!(
            p1 <= n && p2 <= n,
            "pencil dims ({p1},{p2}) exceed grid {n}"
        );
        let r1 = comm.rank() / p2;
        let r2 = comm.rank() % p2;
        let (x0, nx) = slab(n, p1, r1);
        let (y0, ny) = slab(n, p2, r2);
        let (z0, nz) = slab(n, p2, r2);
        let (ky0, kny) = slab(n, p1, r1);
        Self {
            n,
            p1,
            p2,
            r1,
            r2,
            x0,
            nx,
            y0,
            ny,
            z0,
            nz,
            ky0,
            kny,
            plan: FftPlan::new(n),
        }
    }

    /// Global grid size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The pencil process grid `(p1, p2)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.p1, self.p2)
    }

    /// Local element count in the real-space (Z) layout.
    pub fn local_len(&self) -> usize {
        self.nx * self.ny * self.n
    }

    /// Rank id of pencil coordinates.
    fn rank_of(&self, r1: usize, r2: usize) -> usize {
        r1 * self.p2 + r2
    }

    /// Forward transform: Z layout in, X (k-space) layout out,
    /// unnormalized.
    pub fn forward(&self, comm: &mut Comm, data: &mut Vec<Complex64>) {
        assert_eq!(data.len(), self.local_len());
        let n = self.n;
        // FFT along z (contiguous rows).
        for row in data.chunks_mut(n) {
            self.plan.forward(row);
        }
        // Transpose within the P2 row: z-pencils -> y-pencils.
        let mut ybuf = self.z_to_y(comm, data);
        for row in ybuf.chunks_mut(n) {
            self.plan.forward(row);
        }
        // Transpose within the P1 column: y-pencils -> x-pencils.
        let mut xbuf = self.y_to_x(comm, &ybuf);
        for row in xbuf.chunks_mut(n) {
            self.plan.forward(row);
        }
        *data = xbuf;
    }

    /// Inverse transform: X layout in, Z layout out, normalized by 1/n³.
    pub fn inverse(&self, comm: &mut Comm, data: &mut Vec<Complex64>) {
        assert_eq!(data.len(), self.kny * self.nz * self.n);
        let n = self.n;
        for row in data.chunks_mut(n) {
            self.plan.inverse(row);
        }
        let mut ybuf = self.y_to_x_inverse(comm, data);
        for row in ybuf.chunks_mut(n) {
            self.plan.inverse(row);
        }
        let mut zbuf = self.z_to_y_inverse(comm, &ybuf);
        for row in zbuf.chunks_mut(n) {
            self.plan.inverse(row);
        }
        *data = zbuf;
    }

    /// K-space indices of X-layout element `(ly, lz, x)`.
    #[inline]
    pub fn k_index(&self, ly: usize, lz: usize, x: usize) -> (usize, usize, usize) {
        (x, self.ky0 + ly, self.z0 + lz)
    }

    /// Z→Y transpose: redistribute z among the P2 row so each rank gets
    /// its z block with full y extent.
    fn z_to_y(&self, comm: &mut Comm, data: &[Complex64]) -> Vec<Complex64> {
        let n = self.n;
        let mut sends: Vec<Vec<Complex64>> = vec![Vec::new(); comm.size()];
        for d2 in 0..self.p2 {
            let (zd0, nzd) = slab(n, self.p2, d2);
            let dst = self.rank_of(self.r1, d2);
            let buf = &mut sends[dst];
            buf.reserve(self.nx * self.ny * nzd);
            // Order: (lx, ly, lz_d) — matches the receiver's unpack.
            for lx in 0..self.nx {
                for ly in 0..self.ny {
                    let row = (lx * self.ny + ly) * n;
                    for lz in 0..nzd {
                        buf.push(data[row + zd0 + lz]);
                    }
                }
            }
        }
        let recvd = comm.all_to_allv(sends);
        // Y layout: [(lx * nz + lz) * n + y]; sources are the P2 row,
        // each carrying a y block.
        let mut out = vec![Complex64::zero(); self.nx * self.nz * n];
        for s2 in 0..self.p2 {
            let (ys0, nys) = slab(n, self.p2, s2);
            let src = self.rank_of(self.r1, s2);
            let buf = &recvd[src];
            assert_eq!(buf.len(), self.nx * nys * self.nz);
            let mut idx = 0;
            for lx in 0..self.nx {
                for lys in 0..nys {
                    let y = ys0 + lys;
                    for lz in 0..self.nz {
                        out[(lx * self.nz + lz) * n + y] = buf[idx];
                        idx += 1;
                    }
                }
            }
        }
        out
    }

    /// Inverse of [`Self::z_to_y`].
    fn z_to_y_inverse(&self, comm: &mut Comm, data: &[Complex64]) -> Vec<Complex64> {
        let n = self.n;
        let mut sends: Vec<Vec<Complex64>> = vec![Vec::new(); comm.size()];
        for d2 in 0..self.p2 {
            let (yd0, nyd) = slab(n, self.p2, d2);
            let dst = self.rank_of(self.r1, d2);
            let buf = &mut sends[dst];
            buf.reserve(self.nx * nyd * self.nz);
            // Mirror of the forward unpack order: (lx, ly_d, lz).
            for lx in 0..self.nx {
                for lyd in 0..nyd {
                    let y = yd0 + lyd;
                    for lz in 0..self.nz {
                        buf.push(data[(lx * self.nz + lz) * n + y]);
                    }
                }
            }
        }
        let recvd = comm.all_to_allv(sends);
        let mut out = vec![Complex64::zero(); self.nx * self.ny * n];
        for s2 in 0..self.p2 {
            let (zs0, nzs) = slab(n, self.p2, s2);
            let src = self.rank_of(self.r1, s2);
            let buf = &recvd[src];
            assert_eq!(buf.len(), self.nx * self.ny * nzs);
            let mut idx = 0;
            for lx in 0..self.nx {
                for ly in 0..self.ny {
                    let row = (lx * self.ny + ly) * n;
                    for lzs in 0..nzs {
                        out[row + zs0 + lzs] = buf[idx];
                        idx += 1;
                    }
                }
            }
        }
        out
    }

    /// Y→X transpose: redistribute x among the P1 column so each rank
    /// gets full x extent for its (ky, z) block.
    fn y_to_x(&self, comm: &mut Comm, data: &[Complex64]) -> Vec<Complex64> {
        let n = self.n;
        let mut sends: Vec<Vec<Complex64>> = vec![Vec::new(); comm.size()];
        for d1 in 0..self.p1 {
            let (yd0, nyd) = slab(n, self.p1, d1);
            let dst = self.rank_of(d1, self.r2);
            let buf = &mut sends[dst];
            buf.reserve(self.nx * nyd * self.nz);
            // Order: (lx, ly_d, lz).
            for lx in 0..self.nx {
                for lyd in 0..nyd {
                    let y = yd0 + lyd;
                    for lz in 0..self.nz {
                        buf.push(data[(lx * self.nz + lz) * n + y]);
                    }
                }
            }
        }
        let recvd = comm.all_to_allv(sends);
        // X layout: [(ly * nz + lz) * n + x].
        let mut out = vec![Complex64::zero(); self.kny * self.nz * n];
        for s1 in 0..self.p1 {
            let (xs0, nxs) = slab(n, self.p1, s1);
            let src = self.rank_of(s1, self.r2);
            let buf = &recvd[src];
            assert_eq!(buf.len(), nxs * self.kny * self.nz);
            let mut idx = 0;
            for lxs in 0..nxs {
                let x = xs0 + lxs;
                for ly in 0..self.kny {
                    for lz in 0..self.nz {
                        out[(ly * self.nz + lz) * n + x] = buf[idx];
                        idx += 1;
                    }
                }
            }
        }
        out
    }

    /// Inverse of [`Self::y_to_x`].
    fn y_to_x_inverse(&self, comm: &mut Comm, data: &[Complex64]) -> Vec<Complex64> {
        let n = self.n;
        let mut sends: Vec<Vec<Complex64>> = vec![Vec::new(); comm.size()];
        for d1 in 0..self.p1 {
            let (xd0, nxd) = slab(n, self.p1, d1);
            let dst = self.rank_of(d1, self.r2);
            let buf = &mut sends[dst];
            buf.reserve(nxd * self.kny * self.nz);
            for lxd in 0..nxd {
                let x = xd0 + lxd;
                for ly in 0..self.kny {
                    for lz in 0..self.nz {
                        buf.push(data[(ly * self.nz + lz) * n + x]);
                    }
                }
            }
        }
        let recvd = comm.all_to_allv(sends);
        let mut out = vec![Complex64::zero(); self.nx * self.nz * n];
        for s1 in 0..self.p1 {
            let (ys0, nys) = slab(n, self.p1, s1);
            let src = self.rank_of(s1, self.r2);
            let buf = &recvd[src];
            assert_eq!(buf.len(), self.nx * nys * self.nz);
            let mut idx = 0;
            for lx in 0..self.nx {
                for lys in 0..nys {
                    let y = ys0 + lys;
                    for lz in 0..self.nz {
                        out[(lx * self.nz + lz) * n + y] = buf[idx];
                        idx += 1;
                    }
                }
            }
        }
        out
    }
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
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-0.5..0.5)))
            .collect()
    }

    #[test]
    fn pencil_dims_factorization() {
        assert_eq!(pencil_dims(1), (1, 1));
        assert_eq!(pencil_dims(4), (2, 2));
        assert_eq!(pencil_dims(6), (2, 3));
        assert_eq!(pencil_dims(7), (1, 7));
        assert_eq!(pencil_dims(12), (3, 4));
    }

    fn check(n: usize, ranks: usize) {
        let grid = rand_grid(n, 7 + ranks as u64);
        let mut reference = grid.clone();
        fft3(&FftPlan::new(n), &mut reference, false);
        let results = World::run(ranks, |comm| {
            let fft = PencilFft3d::new(comm, n);
            // Load this rank's Z-layout pencil from the global grid.
            let mut local = vec![Complex64::zero(); fft.local_len()];
            for lx in 0..fft.nx {
                for ly in 0..fft.ny {
                    for z in 0..n {
                        local[(lx * fft.ny + ly) * n + z] =
                            grid[((fft.x0 + lx) * n + (fft.y0 + ly)) * n + z];
                    }
                }
            }
            fft.forward(comm, &mut local);
            (fft.ky0, fft.kny, fft.z0, fft.nz, local)
        });
        for (ky0, kny, z0, nz, local) in results {
            for ly in 0..kny {
                for lz in 0..nz {
                    for x in 0..n {
                        let got = local[(ly * nz + lz) * n + x];
                        let want = reference[(x * n + (ky0 + ly)) * n + (z0 + lz)];
                        assert!(
                            (got - want).abs() < 1e-8,
                            "mismatch at x={x} ky={} kz={}",
                            ky0 + ly,
                            z0 + lz
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matches_serial_1_rank() {
        check(8, 1);
    }

    #[test]
    fn matches_serial_4_ranks_2x2() {
        check(8, 4);
    }

    #[test]
    fn matches_serial_6_ranks_2x3() {
        check(12, 6);
    }

    #[test]
    fn matches_serial_prime_ranks() {
        check(8, 3); // degenerates to 1x3
    }

    #[test]
    fn roundtrip_multirank() {
        let n = 8;
        let errs = World::run(4, |comm| {
            let fft = PencilFft3d::new(comm, n);
            let mut rng =
                rand::rngs::StdRng::seed_from_u64(comm.rank() as u64 + 50);
            let orig: Vec<Complex64> = (0..fft.local_len())
                .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), 0.0))
                .collect();
            let mut data = orig.clone();
            fft.forward(comm, &mut data);
            fft.inverse(comm, &mut data);
            data.iter()
                .zip(&orig)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max)
        });
        for e in errs {
            assert!(e < 1e-10, "roundtrip error {e}");
        }
    }

    #[test]
    fn more_ranks_than_slab_allows() {
        // The whole point of pencils: a 4³ grid across 16 ranks (slab
        // would cap at 4 ranks).
        check(4, 16);
    }

    #[test]
    fn k_index_transposed_coords() {
        World::run(4, |comm| {
            let fft = PencilFft3d::new(comm, 8);
            let (kx, ky, kz) = fft.k_index(1, 0, 5);
            assert_eq!(kx, 5);
            assert_eq!(ky, fft.ky0 + 1);
            assert_eq!(kz, fft.z0);
        });
    }
}
