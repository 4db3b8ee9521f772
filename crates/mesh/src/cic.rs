//! Cloud-in-cell (CIC) deposit and interpolation on the distributed slab
//! mesh.
//!
//! Particles live on arbitrary ranks (CRK-HACC's 3-D cuboid decomposition);
//! the FFT mesh is x-slab decomposed. Deposit therefore buckets per-cell
//! mass contributions by destination slab owner and exchanges them with an
//! all-to-all; interpolation gathers the (few) x-planes a rank's particles
//! touch from their owners — the request list once per solve, the planes
//! once per force component.

use hacc_ranks::Comm;
use hacc_swfft::dist::slab;

/// Which rank owns global x-plane `ix` under the slab decomposition.
#[inline]
pub fn plane_owner(n: usize, size: usize, ix: usize) -> usize {
    debug_assert!(ix < n);
    let base = n / size;
    let rem = n % size;
    let big = rem * (base + 1);
    if ix < big {
        ix / (base + 1)
    } else {
        rem + (ix - big) / base
    }
}

/// The 8 CIC stencil cells and weights for a position, as
/// `(ix, iy, iz, w)` with periodic wrapping on an `n³` mesh.
#[inline]
pub fn cic_stencil(n: usize, box_size: f64, pos: &[f64; 3]) -> [(usize, usize, usize, f64); 8] {
    let scale = n as f64 / box_size;
    let mut i0 = [0usize; 3];
    let mut frac = [0f64; 3];
    for d in 0..3 {
        // Cell-centered CIC: the deposit point in grid coordinates.
        let g = (pos[d] * scale).rem_euclid(n as f64);
        let f = g.floor();
        i0[d] = (f as usize) % n;
        frac[d] = g - f;
    }
    let i1 = [(i0[0] + 1) % n, (i0[1] + 1) % n, (i0[2] + 1) % n];
    let w0 = [1.0 - frac[0], 1.0 - frac[1], 1.0 - frac[2]];
    let w1 = frac;
    [
        (i0[0], i0[1], i0[2], w0[0] * w0[1] * w0[2]),
        (i1[0], i0[1], i0[2], w1[0] * w0[1] * w0[2]),
        (i0[0], i1[1], i0[2], w0[0] * w1[1] * w0[2]),
        (i1[0], i1[1], i0[2], w1[0] * w1[1] * w0[2]),
        (i0[0], i0[1], i1[2], w0[0] * w0[1] * w1[2]),
        (i1[0], i0[1], i1[2], w1[0] * w0[1] * w1[2]),
        (i0[0], i1[1], i1[2], w0[0] * w1[1] * w1[2]),
        (i1[0], i1[1], i1[2], w1[0] * w1[1] * w1[2]),
    ]
}

/// Deposit particle masses onto the distributed mesh. Returns this rank's
/// x-slab of the *mass* grid (convert to density/overdensity downstream).
///
/// `positions` are global coordinates in `[0, box_size)³`; any rank may
/// hold particles anywhere (contributions are routed to slab owners).
pub fn deposit(
    comm: &mut Comm,
    n: usize,
    box_size: f64,
    positions: &[[f64; 3]],
    masses: &[f64],
) -> Vec<f64> {
    assert_eq!(positions.len(), masses.len());
    let size = comm.size();
    let mut sends: Vec<Vec<(u64, f64)>> = vec![Vec::new(); size];
    for (p, &m) in positions.iter().zip(masses) {
        for (ix, iy, iz, w) in cic_stencil(n, box_size, p) {
            let owner = plane_owner(n, size, ix);
            let idx = ((ix * n + iy) * n + iz) as u64;
            sends[owner].push((idx, m * w));
        }
    }
    let recvd = comm.all_to_allv(sends);
    let (x0, nx) = slab(n, size, comm.rank());
    let mut grid = vec![0.0f64; nx * n * n];
    let base = (x0 * n * n) as u64;
    for buf in recvd {
        for (idx, v) in buf {
            grid[(idx - base) as usize] += v;
        }
    }
    grid
}

/// One solve's plane requests, exchanged once and answered once per field
/// gathered: the x-planes this rank asked of each owner, and the ones each
/// peer asked of this rank.
#[derive(Debug)]
pub struct PlaneRequests {
    n: usize,
    /// `asked[owner]`: the global planes asked of `owner`, in request order.
    asked: Vec<Vec<usize>>,
    /// `incoming[peer]`: the global planes `peer` asked of this rank.
    incoming: Vec<Vec<usize>>,
}

impl PlaneRequests {
    /// Send the x-planes listed in `needed` (global plane indices) to
    /// their owning ranks: one all-to-all.
    pub fn exchange(comm: &mut Comm, n: usize, needed: &[usize]) -> Self {
        let size = comm.size();
        let mut asked: Vec<Vec<usize>> = vec![Vec::new(); size];
        for &ix in needed {
            assert!(ix < n, "plane index out of range");
            asked[plane_owner(n, size, ix)].push(ix);
        }
        let incoming = comm.all_to_allv(asked.clone());
        Self { n, asked, incoming }
    }

    /// Answer the requests from this rank's x-slab of one field and
    /// collect the answers to its own: one all-to-all. Returns
    /// `(plane_index, plane_data)` pairs; each plane is `n²` values.
    pub fn gather(&self, comm: &mut Comm, local_slab: &[f64]) -> Vec<(usize, Vec<f64>)> {
        let n = self.n;
        let (x0, _nx) = slab(n, comm.size(), comm.rank());
        // The plane data, concatenated in request order.
        let responses: Vec<Vec<f64>> = self
            .incoming
            .iter()
            .map(|reqs| {
                let mut buf = Vec::with_capacity(reqs.len() * n * n);
                for &ix in reqs {
                    let lx = ix - x0;
                    buf.extend_from_slice(&local_slab[lx * n * n..(lx + 1) * n * n]);
                }
                buf
            })
            .collect();
        let answers = comm.all_to_allv(responses);

        // Reassemble in the order we asked each owner.
        let mut out = Vec::with_capacity(self.asked.iter().map(Vec::len).sum());
        for (reqs, buf) in self.asked.iter().zip(&answers) {
            for (i, &ix) in reqs.iter().enumerate() {
                out.push((ix, buf[i * n * n..(i + 1) * n * n].to_vec()));
            }
        }
        out
    }
}

/// Gather the x-planes listed in `needed` (global plane indices) from their
/// owning ranks: [`PlaneRequests::exchange`] then one
/// [`PlaneRequests::gather`]. Returns `(plane_index, plane_data)` pairs;
/// each plane is `n²` values.
pub fn gather_planes(
    comm: &mut Comm,
    n: usize,
    local_slab: &[f64],
    needed: &[usize],
) -> Vec<(usize, Vec<f64>)> {
    PlaneRequests::exchange(comm, n, needed).gather(comm, local_slab)
}

/// The set of global x-planes the CIC stencils of `positions` touch.
pub fn needed_planes(n: usize, box_size: f64, positions: &[[f64; 3]]) -> Vec<usize> {
    let mut mask = vec![false; n];
    let scale = n as f64 / box_size;
    for p in positions {
        let g = (p[0] * scale).rem_euclid(n as f64);
        let i0 = (g.floor() as usize) % n;
        mask[i0] = true;
        mask[(i0 + 1) % n] = true;
    }
    mask.iter()
        .enumerate()
        .filter_map(|(i, &m)| m.then_some(i))
        .collect()
}

/// Interpolate a grid quantity at particle positions using planes gathered
/// by [`PlaneRequests::gather`]. `planes` maps global plane index → `n²` data.
pub fn interpolate(
    n: usize,
    box_size: f64,
    positions: &[[f64; 3]],
    planes: &[(usize, Vec<f64>)],
) -> Vec<f64> {
    // Dense lookup: plane index -> slot.
    let mut lut: Vec<Option<&Vec<f64>>> = vec![None; n];
    for (ix, data) in planes {
        lut[*ix] = Some(data);
    }
    positions
        .iter()
        .map(|p| {
            let mut v = 0.0;
            for (ix, iy, iz, w) in cic_stencil(n, box_size, p) {
                // e1: allow: cic_stencil yields wrapped in-range plane indices; the lut covers 0..n by construction
                let plane = lut[ix].unwrap_or_else(|| panic!("missing plane {ix}"));
                v += w * plane[iy * n + iz];
            }
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_ranks::World;
    use hacc_rt::rand::{self, Rng, SeedableRng};

    #[test]
    fn plane_owner_matches_slab() {
        for n in [8usize, 13, 16] {
            for size in 1..=n.min(6) {
                for r in 0..size {
                    let (off, cnt) = slab(n, size, r);
                    for ix in off..off + cnt {
                        assert_eq!(plane_owner(n, size, ix), r, "n={n} size={size}");
                    }
                }
            }
        }
    }

    #[test]
    fn stencil_weights_sum_to_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let p = [
                rng.gen_range(0.0..100.0),
                rng.gen_range(0.0..100.0),
                rng.gen_range(0.0..100.0),
            ];
            let s = cic_stencil(16, 100.0, &p);
            let total: f64 = s.iter().map(|e| e.3).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn deposit_conserves_mass() {
        let n = 8;
        let total: f64 = World::run(3, |comm| {
            let mut rng =
                rand::rngs::StdRng::seed_from_u64(comm.rank() as u64);
            let pos: Vec<[f64; 3]> = (0..50)
                .map(|_| {
                    [
                        rng.gen_range(0.0..50.0),
                        rng.gen_range(0.0..50.0),
                        rng.gen_range(0.0..50.0),
                    ]
                })
                .collect();
            let mass = vec![2.0; 50];
            let grid = deposit(comm, n, 50.0, &pos, &mass);
            let local: f64 = grid.iter().sum();
            comm.all_reduce_f64(local, |a, b| a + b)
        })
        .into_iter()
        .next()
        .unwrap();
        assert!((total - 3.0 * 50.0 * 2.0).abs() < 1e-9);
    }

    #[test]
    fn grid_point_particle_deposits_to_single_cell() {
        let n = 8;
        let grids = World::run(2, |comm| {
            let pos = if comm.rank() == 0 {
                vec![[2.0 * 10.0 / 8.0, 3.0 * 10.0 / 8.0, 4.0 * 10.0 / 8.0]]
            } else {
                vec![]
            };
            let mass = vec![5.0; pos.len()];
            deposit(comm, n, 10.0, &pos, &mass)
        });
        // Particle sits exactly on grid point (2,3,4).
        let mut found = 0;
        for (r, g) in grids.iter().enumerate() {
            let (x0, nx) = slab(n, 2, r);
            for lx in 0..nx {
                for y in 0..n {
                    for z in 0..n {
                        let v = g[(lx * n + y) * n + z];
                        if v != 0.0 {
                            assert_eq!((x0 + lx, y, z), (2, 3, 4));
                            assert!((v - 5.0).abs() < 1e-12);
                            found += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(found, 1);
    }

    #[test]
    fn interpolate_recovers_linear_field() {
        // CIC interpolation is exact for fields linear in each coordinate.
        let n = 8;
        let box_size = 8.0; // unit cells
        World::run(2, |comm| {
            let size = comm.size();
            let (x0, nx) = slab(n, size, comm.rank());
            // f(x,y,z) = y (periodic linearity holds away from the wrap).
            let mut local = vec![0.0; nx * n * n];
            for lx in 0..nx {
                for y in 0..n {
                    for z in 0..n {
                        local[(lx * n + y) * n + z] = y as f64;
                    }
                }
            }
            let pos = vec![[2.3, 3.25, 1.7], [5.9, 0.5, 6.1]];
            let planes = {
                let needed = needed_planes(n, box_size, &pos);
                gather_planes(comm, n, &local, &needed)
            };
            let vals = interpolate(n, box_size, &pos, &planes);
            assert!((vals[0] - 3.25).abs() < 1e-12, "got {}", vals[0]);
            assert!((vals[1] - 0.5).abs() < 1e-12, "got {}", vals[1]);
            let _ = x0;
        });
    }

    #[test]
    fn gather_planes_wrapping_range() {
        let n = 8;
        World::run(4, |comm| {
            let (x0, nx) = slab(n, comm.size(), comm.rank());
            let mut local = vec![0.0; nx * n * n];
            for lx in 0..nx {
                for i in 0..n * n {
                    local[lx * n * n + i] = (x0 + lx) as f64;
                }
            }
            // Every rank asks for the wrap pair {n-1, 0}, and one exchange
            // of that request answers for a second field too.
            let planes = gather_planes(comm, n, &local, &[n - 1, 0]);
            assert_eq!(planes.len(), 2);
            for (ix, data) in planes {
                assert!(data.iter().all(|&v| v == ix as f64));
            }
            let requests = PlaneRequests::exchange(comm, n, &[n - 1, 0]);
            for sign in [1.0, -1.0] {
                let field: Vec<f64> = local.iter().map(|v| sign * v).collect();
                let planes = requests.gather(comm, &field);
                assert_eq!(planes.len(), 2);
                for (ix, data) in planes {
                    assert!(data.iter().all(|&v| v == sign * ix as f64));
                }
            }
        });
    }
}
