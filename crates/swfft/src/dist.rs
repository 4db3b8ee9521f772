//! Distributed 3-D FFT over simulated ranks (the SWFFT analog).
//!
//! The global `n³` mesh is slab-decomposed: in real space every rank owns a
//! contiguous block of x-planes (`[x0, x0+nx)`, full y/z extent); after the
//! forward transform the data lands in a y-slab "transposed" k-space layout
//! (`[y0, y0+ny)`, full x/z extent). The transpose in the middle is the
//! all-to-all pattern that dominated SWFFT's communication on Frontier.
//!
//! Real-space layout A: `data[(lx * n + y) * n + z]` for `lx in 0..nx`.
//! K-space layout B: `data[(ly * n + x) * n + z]` for `ly in 0..ny`.

use crate::complex::Complex64;
use crate::serial::FftPlan;
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

    /// Number of local complex elements (identical in both layouts).
    pub fn local_len(&self) -> usize {
        self.nx * self.n * self.n
    }

    /// Forward transform: consumes real-space layout A, returns k-space
    /// layout B (unnormalized).
    pub fn forward(&self, comm: &mut Comm, data: &mut Vec<Complex64>) {
        assert_eq!(data.len(), self.local_len());
        let n = self.n;
        let mut scratch = vec![Complex64::zero(); n];

        // FFT along z (contiguous) and y (strided) for each local x-plane.
        for lx in 0..self.nx {
            let plane = &mut data[lx * n * n..(lx + 1) * n * n];
            for y in 0..n {
                self.plan.forward(&mut plane[y * n..(y + 1) * n]);
            }
            for z in 0..n {
                for y in 0..n {
                    scratch[y] = plane[y * n + z];
                }
                self.plan.forward(&mut scratch);
                for y in 0..n {
                    plane[y * n + z] = scratch[y];
                }
            }
        }

        // Transpose x-slabs -> y-slabs.
        let mut recv = self.transpose_forward(comm, data);
        std::mem::swap(data, &mut recv);

        // FFT along x in the transposed layout (stride n).
        for ly in 0..self.ny {
            let plane = &mut data[ly * n * n..(ly + 1) * n * n];
            for z in 0..n {
                for x in 0..n {
                    scratch[x] = plane[x * n + z];
                }
                self.plan.forward(&mut scratch);
                for x in 0..n {
                    plane[x * n + z] = scratch[x];
                }
            }
        }
    }

    /// Inverse transform: consumes k-space layout B, returns real-space
    /// layout A, normalized by `1/n³`.
    pub fn inverse(&self, comm: &mut Comm, data: &mut Vec<Complex64>) {
        assert_eq!(data.len(), self.ny * self.n * self.n);
        let n = self.n;
        let mut scratch = vec![Complex64::zero(); n];

        for ly in 0..self.ny {
            let plane = &mut data[ly * n * n..(ly + 1) * n * n];
            for z in 0..n {
                for x in 0..n {
                    scratch[x] = plane[x * n + z];
                }
                self.plan.inverse(&mut scratch);
                for x in 0..n {
                    plane[x * n + z] = scratch[x];
                }
            }
        }

        let mut recv = self.transpose_backward(comm, data);
        std::mem::swap(data, &mut recv);

        for lx in 0..self.nx {
            let plane = &mut data[lx * n * n..(lx + 1) * n * n];
            for z in 0..n {
                for y in 0..n {
                    scratch[y] = plane[y * n + z];
                }
                self.plan.inverse(&mut scratch);
                for y in 0..n {
                    plane[y * n + z] = scratch[y];
                }
            }
            for y in 0..n {
                self.plan.inverse(&mut plane[y * n..(y + 1) * n]);
            }
        }
    }

    /// Global wavenumber indices `(kx, ky, kz)` of local k-space element
    /// `(ly, x, z)` in layout B.
    #[inline]
    pub fn k_index(&self, ly: usize, x: usize, z: usize) -> (usize, usize, usize) {
        (x, self.y0 + ly, z)
    }

    /// Pack per-destination sub-blocks and run the all-to-all.
    fn transpose_forward(&self, comm: &mut Comm, data: &[Complex64]) -> Vec<Complex64> {
        let n = self.n;
        let mut sends: Vec<Vec<Complex64>> = Vec::with_capacity(self.size);
        for d in 0..self.size {
            let (yd0, nyd) = slab(n, self.size, d);
            let mut buf = Vec::with_capacity(self.nx * nyd * n);
            for lx in 0..self.nx {
                for ly in 0..nyd {
                    let y = yd0 + ly;
                    let row = (lx * n + y) * n;
                    buf.extend_from_slice(&data[row..row + n]);
                }
            }
            sends.push(buf);
        }
        let recvd = comm.all_to_allv(sends);
        // Unpack into layout B.
        let mut out = vec![Complex64::zero(); self.ny * n * n];
        for (s, buf) in recvd.into_iter().enumerate() {
            let (xs0, nxs) = slab(n, self.size, s);
            assert_eq!(buf.len(), nxs * self.ny * n);
            let mut idx = 0;
            for lxs in 0..nxs {
                let x = xs0 + lxs;
                for ly in 0..self.ny {
                    let row = (ly * n + x) * n;
                    out[row..row + n].copy_from_slice(&buf[idx..idx + n]);
                    idx += n;
                }
            }
        }
        out
    }

    /// Inverse of [`Self::transpose_forward`].
    fn transpose_backward(&self, comm: &mut Comm, data: &[Complex64]) -> Vec<Complex64> {
        let n = self.n;
        let mut sends: Vec<Vec<Complex64>> = Vec::with_capacity(self.size);
        for d in 0..self.size {
            let (xd0, nxd) = slab(n, self.size, d);
            let mut buf = Vec::with_capacity(nxd * self.ny * n);
            // Pack in the order the destination's unpack expects:
            // (lx_d, ly, z).
            for lxd in 0..nxd {
                let x = xd0 + lxd;
                for ly in 0..self.ny {
                    let row = (ly * n + x) * n;
                    buf.extend_from_slice(&data[row..row + n]);
                }
            }
            sends.push(buf);
        }
        let recvd = comm.all_to_allv(sends);
        let mut out = vec![Complex64::zero(); self.nx * n * n];
        for (s, buf) in recvd.into_iter().enumerate() {
            let (ys0, nys) = slab(n, self.size, s);
            assert_eq!(buf.len(), self.nx * nys * n);
            let mut idx = 0;
            for lx in 0..self.nx {
                for lys in 0..nys {
                    let y = ys0 + lys;
                    let row = (lx * n + y) * n;
                    out[row..row + n].copy_from_slice(&buf[idx..idx + n]);
                    idx += n;
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
