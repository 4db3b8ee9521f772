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
        let mut scratch = vec![Complex64::zero(); COLS * n];

        // FFT along z (contiguous) and y (columns) of each local x-plane.
        for plane in data.chunks_exact_mut(n * n) {
            for row in plane.chunks_exact_mut(n) {
                self.plan.forward(row);
            }
            column_pass(&self.plan, plane, n, &mut scratch, false);
        }

        // x-slabs -> y-slabs, then FFT along x (columns of each y-plane).
        self.transpose(comm, data);
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
        self.transpose(comm, data);
        for plane in data.chunks_exact_mut(n * n) {
            column_pass(&self.plan, plane, n, &mut scratch, true);
            for row in plane.chunks_exact_mut(n) {
                self.plan.inverse(row);
            }
        }
    }

    /// Global wavenumber indices `(kx, ky, kz)` of local k-space element
    /// `(ly, x, z)` in layout B.
    #[inline]
    pub fn k_index(&self, ly: usize, x: usize, z: usize) -> (usize, usize, usize) {
        (x, self.y0 + ly, z)
    }

    /// The slab transpose, A -> B and B -> A alike: with `p = off + l`
    /// the global index of local plane `l`,
    ///
    /// ```text
    /// out[(l * n + r) * n + z] = global[(r * n + p) * n + z]
    /// ```
    ///
    /// i.e. row `r` of this rank's output plane `p` is row `p` of global
    /// plane `r`, read from whichever rank owns plane `r`.
    fn transpose(&self, comm: &mut Comm, data: &mut Vec<Complex64>) {
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
                let mut buf = Vec::with_capacity(cnt * cd * n);
                for plane in data.chunks_exact(n * n) {
                    buf.extend_from_slice(&plane[od * n..(od + cd) * n]);
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
                    (data.as_slice(), n * n, off * n)
                } else {
                    (buf.as_slice(), cnt * n, 0)
                };
                for rows in src.chunks_exact(block) {
                    out.extend_from_slice(&rows[first + l * n..][..n]);
                }
            }
        }
        assert_eq!(out.len(), data.len(), "transpose blocks do not tile the slab");
        *data = out;
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
    fn transpose_is_the_documented_map_and_its_own_inverse() {
        // Even and uneven slabs, and a world with zero-plane ranks.
        for (n, ranks) in [(8usize, 1usize), (8, 3), (12, 5), (17, 4), (4, 6)] {
            let global: Vec<Complex64> = (0..n * n * n)
                .map(|i| Complex64::new(i as f64, -(i as f64)))
                .collect();
            World::run(ranks, |comm| {
                let fft = DistFft3d::new(comm, n);
                let orig = global[fft.x0 * n * n..(fft.x0 + fft.nx) * n * n].to_vec();
                let mut local = orig.clone();
                fft.transpose(comm, &mut local);
                assert_eq!(local.len(), orig.len());
                for l in 0..fft.nx {
                    let p = fft.x0 + l;
                    for r in 0..n {
                        for z in 0..n {
                            assert_eq!(
                                local[(l * n + r) * n + z],
                                global[(r * n + p) * n + z],
                                "n={n} ranks={ranks} plane {p} row {r} z {z}"
                            );
                        }
                    }
                }
                fft.transpose(comm, &mut local);
                assert_eq!(local, orig, "n={n} ranks={ranks}: not an involution");
            });
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
