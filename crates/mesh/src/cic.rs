//! Cloud-in-cell (CIC) deposit and interpolation on the distributed slab
//! mesh.
//!
//! Particles live on arbitrary ranks (CRK-HACC's 3-D cuboid decomposition);
//! the FFT mesh is x-slab decomposed. A rank's particles touch only a
//! cuboid of the mesh, its *footprint*: per axis, the smallest periodic
//! interval covering the CIC stencil cells of its positions
//! ([`needed_planes`]). A solve shares the footprints once, with one
//! `all_gather` ([`PlaneRequests::exchange`]); from them every rank works
//! out locally which plane owners it asks and which ranks ask it. The data
//! rounds are then sparse [`Comm::exchange`]s between exactly those pairs:
//! the deposit sends each stencil contribution to its plane's owner
//! ([`PlaneRequests::deposit`]), and each gather answer carries only the
//! asker's `y × z` patch of each plane ([`PlaneRequests::gather`]).
//! [`interpolate`] reads the answers in place, and a rank's own planes
//! straight from its slab.

use std::ops::Range;

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

/// The CIC cell of coordinate `x` on an `n`-cell axis of `scale` cells per
/// length unit, and the fraction of the way across it: cell-centered, the
/// deposit point in grid coordinates, wrapped periodically.
#[inline]
fn axis_cell(n: usize, scale: f64, x: f64) -> (usize, f64) {
    let g = (x * scale).rem_euclid(n as f64);
    let f = g.floor();
    ((f as usize) % n, g - f)
}

/// The 8 CIC stencil cells and weights for a position, as
/// `(ix, iy, iz, w)` with periodic wrapping on an `n³` mesh.
#[inline]
pub fn cic_stencil(n: usize, box_size: f64, pos: &[f64; 3]) -> [(usize, usize, usize, f64); 8] {
    let scale = n as f64 / box_size;
    let mut i0 = [0usize; 3];
    let mut frac = [0f64; 3];
    for d in 0..3 {
        (i0[d], frac[d]) = axis_cell(n, scale, pos[d]);
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

/// A periodic run of cells on one axis of an `n`-cell mesh: `len` cells
/// from `start`, wrapping past `n - 1` to 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// The first cell, below `n`.
    pub start: usize,
    /// How many cells, at most `n`.
    pub len: usize,
}

impl Span {
    /// How far cell `i` lies past `start`, counting up and wrapping: below
    /// `len` exactly when the span holds `i`.
    #[inline]
    fn offset(self, n: usize, i: usize) -> usize {
        let d = i + n - self.start;
        if d >= n {
            d - n
        } else {
            d
        }
    }

    /// The cells, in order from `start`.
    fn cells(self, n: usize) -> impl Iterator<Item = usize> + Clone {
        (self.start..self.start + self.len).map(move |i| if i >= n { i - n } else { i })
    }

    /// The cells as at most two plain ranges, in order from `start`.
    fn runs(self, n: usize) -> [Range<usize>; 2] {
        let end = self.start + self.len;
        if end <= n {
            [self.start..end, 0..0]
        } else {
            [self.start..n, 0..end - n]
        }
    }

    /// Whether the span holds any of the cells `lo..lo + cnt`, a range
    /// that does not wrap (`lo + cnt <= n`).
    fn meets(self, n: usize, lo: usize, cnt: usize) -> bool {
        // Two non-empty arcs of a circle meet when one starts inside the
        // other.
        self.len > 0
            && cnt > 0
            && (self.offset(n, lo) < self.len || (lo..lo + cnt).contains(&self.start))
    }
}

/// The smallest periodic interval holding every marked cell of `mask`:
/// the complement of the longest circular run of unmarked cells (the first
/// such run from the first marked cell, on a tie). Empty when nothing is
/// marked; `(0, n)` when everything is.
fn cover(mask: &[bool]) -> Span {
    let n = mask.len();
    let Some(first) = mask.iter().position(|&m| m) else {
        return Span::default();
    };
    // Walk once round the ring from the first marked cell, so no gap
    // straddles the walk's start; a gap ends at the marked cell after it.
    let (mut gap, mut gap_end, mut run) = (0, first, 0);
    for k in 1..=n {
        let i = (first + k) % n;
        if !mask[i] {
            run += 1;
        } else {
            if run > gap {
                (gap, gap_end) = (run, i);
            }
            run = 0;
        }
    }
    Span {
        start: gap_end,
        len: n - gap,
    }
}

/// The cuboid of mesh cells a rank's particles touch: one [`Span`] per
/// axis, x first. All three are empty for a rank without particles.
pub type Footprint = [Span; 3];

/// A rank's footprint: per axis, the smallest periodic interval covering
/// the CIC stencil cells of `positions`. Its x-span is the planes the rank
/// needs.
pub fn needed_planes(n: usize, box_size: f64, positions: &[[f64; 3]]) -> Footprint {
    let scale = n as f64 / box_size;
    let mut masks = [vec![false; n], vec![false; n], vec![false; n]];
    for p in positions {
        for (mask, &x) in masks.iter_mut().zip(p) {
            let (i0, _) = axis_cell(n, scale, x);
            mask[i0] = true;
            mask[(i0 + 1) % n] = true;
        }
    }
    masks.map(|m| cover(&m))
}

/// One solve's footprints, shared once and used by its deposit and by
/// every field it gathers: the plane owners this rank asks, the ranks that
/// ask it, and where each plane of its footprint lands in the answers.
#[derive(Debug)]
pub struct PlaneRequests {
    n: usize,
    /// Every rank's footprint, in rank order.
    footprints: Vec<Footprint>,
    /// This rank's footprint.
    footprint: Footprint,
    /// The owners of this rank's footprint planes, ascending.
    owners: Vec<usize>,
    /// The ranks whose footprints hold planes of this rank's slab,
    /// ascending.
    askers: Vec<usize>,
    /// Per plane of this rank's footprint, in footprint order: the index
    /// into `owners` of the plane's owner, and where the plane starts — its
    /// patch in that owner's answer, or, for a plane this rank owns, the
    /// plane in its own slab.
    planes: Vec<(usize, usize)>,
    /// This rank's index in `owners`, when it owns a plane of its
    /// footprint.
    own: Option<usize>,
}

impl PlaneRequests {
    /// Share every rank's footprint (one `all_gather`) and work out, from
    /// them alone, whom this rank asks and who asks it.
    pub fn exchange(comm: &mut Comm, n: usize, footprint: &Footprint) -> Self {
        let (rank, size) = (comm.rank(), comm.size());
        let footprints = comm.all_gather(*footprint);
        let [x, y, z] = *footprint;
        let plane_owners: Vec<usize> = x.cells(n).map(|ix| plane_owner(n, size, ix)).collect();
        let mut owners = plane_owners.clone();
        owners.sort_unstable();
        owners.dedup();
        let own = owners.iter().position(|&o| o == rank);
        let (x0, nx) = slab(n, size, rank);
        // A plane's patch follows the owner's earlier planes in its answer.
        let mut answered = vec![0; owners.len()];
        let planes = x
            .cells(n)
            .zip(&plane_owners)
            .map(|(ix, o)| {
                let slot = owners.partition_point(|p| p < o);
                let earlier = answered[slot];
                answered[slot] += 1;
                let start = if Some(slot) == own {
                    (ix - x0) * n * n
                } else {
                    earlier * y.len * z.len
                };
                (slot, start)
            })
            .collect();
        let askers = (0..size)
            .filter(|&a| footprints[a][0].meets(n, x0, nx))
            .collect();
        Self {
            n,
            footprints,
            footprint: *footprint,
            owners,
            askers,
            planes,
            own,
        }
    }

    /// Deposit particle masses onto the distributed mesh in one sparse
    /// round, each stencil contribution to its plane's owner. `positions`
    /// must be the ones this rank's footprint was made from. Returns this
    /// rank's x-slab of the *mass* grid (convert to density/overdensity
    /// downstream); a cell sums its contributions by ascending source rank,
    /// then in each source's particle and stencil order.
    pub fn deposit(
        &self,
        comm: &mut Comm,
        box_size: f64,
        positions: &[[f64; 3]],
        masses: &[f64],
    ) -> Vec<f64> {
        assert_eq!(positions.len(), masses.len());
        let n = self.n;
        let x = self.footprint[0];
        let mut sends: Vec<Vec<(u64, f64)>> = vec![Vec::new(); self.owners.len()];
        for (p, &m) in positions.iter().zip(masses) {
            for (ix, iy, iz, w) in cic_stencil(n, box_size, p) {
                let idx = ((ix * n + iy) * n + iz) as u64;
                sends[self.planes[x.offset(n, ix)].0].push((idx, m * w));
            }
        }
        let recvd = comm.exchange(
            self.owners.iter().copied().zip(sends).collect(),
            &self.askers,
        );
        let (x0, nx) = slab(n, comm.size(), comm.rank());
        let mut grid = vec![0.0f64; nx * n * n];
        let base = (x0 * n * n) as u64;
        for buf in recvd {
            for (idx, v) in buf {
                grid[(idx - base) as usize] += v;
            }
        }
        grid
    }

    /// Answer the askers from this rank's x-slab of one field and collect
    /// the answers to its own requests: one sparse round. An answer holds,
    /// for each plane of the asker's footprint this rank owns (in footprint
    /// order), the asker's `y × z` patch row by row — at most two
    /// contiguous z-runs per row. The rank's answer to itself is empty: its
    /// own planes are read from `local_slab`, which the patches borrow.
    pub fn gather<'a>(&self, comm: &mut Comm, local_slab: &'a [f64]) -> Patches<'a> {
        let n = self.n;
        let (rank, size) = (comm.rank(), comm.size());
        let (x0, nx) = slab(n, size, rank);
        let answers = self
            .askers
            .iter()
            .map(|&a| {
                if a == rank {
                    return (a, Vec::new());
                }
                let [x, y, z] = self.footprints[a];
                let mine = x.cells(n).filter(|ix| (x0..x0 + nx).contains(ix));
                let mut buf = Vec::with_capacity(mine.clone().count() * y.len * z.len);
                for ix in mine {
                    let plane = &local_slab[(ix - x0) * n * n..][..n * n];
                    for iy in y.cells(n) {
                        let row = &plane[iy * n..][..n];
                        for run in z.runs(n) {
                            buf.extend_from_slice(&row[run]);
                        }
                    }
                }
                (a, buf)
            })
            .collect();
        Patches {
            n,
            footprint: self.footprint,
            planes: self.planes.clone(),
            own: self.own,
            local: local_slab,
            bufs: comm.exchange(answers, &self.owners),
        }
    }
}

/// Gather one field's patches for `needed` (this rank's footprint, from
/// [`needed_planes`]): [`PlaneRequests::exchange`] then one
/// [`PlaneRequests::gather`].
pub fn gather_planes<'a>(
    comm: &mut Comm,
    n: usize,
    local_slab: &'a [f64],
    needed: &Footprint,
) -> Patches<'a> {
    PlaneRequests::exchange(comm, n, needed).gather(comm, local_slab)
}

/// Deposit particle masses onto the distributed mesh: the footprint
/// exchange, then [`PlaneRequests::deposit`]. Returns this rank's x-slab of
/// the *mass* grid. `positions` are global coordinates, on any rank.
pub fn deposit(
    comm: &mut Comm,
    n: usize,
    box_size: f64,
    positions: &[[f64; 3]],
    masses: &[f64],
) -> Vec<f64> {
    PlaneRequests::exchange(comm, n, &needed_planes(n, box_size, positions))
        .deposit(comm, box_size, positions, masses)
}

/// One field over a rank's footprint, as its plane owners answered it and
/// as its own slab holds it, both read in place by [`interpolate`].
#[derive(Debug)]
pub struct Patches<'a> {
    n: usize,
    footprint: Footprint,
    /// Per footprint plane, the answer and where the plane starts in it, or
    /// in `local` (the requests' own table).
    planes: Vec<(usize, usize)>,
    /// The answer standing for this rank's own planes, if it owns any.
    own: Option<usize>,
    /// This rank's slab of the field.
    local: &'a [f64],
    /// One answer per owner asked, ascending owner.
    bufs: Vec<Vec<f64>>,
}

impl Patches<'_> {
    /// The field at mesh cell `(ix, iy, iz)`, which must lie in the
    /// footprint.
    #[inline]
    fn at(&self, ix: usize, iy: usize, iz: usize) -> f64 {
        let [x, y, z] = self.footprint;
        let n = self.n;
        let (dy, dz) = (y.offset(n, iy), z.offset(n, iz));
        assert!(
            dy < y.len && dz < z.len,
            "cell ({ix}, {iy}, {iz}) outside the footprint"
        );
        let (answer, start) = self.planes[x.offset(n, ix)];
        if Some(answer) == self.own {
            self.local[start + iy * n + iz]
        } else {
            self.bufs[answer][start + dy * z.len + dz]
        }
    }
}

/// Interpolate a grid quantity at particle positions from the patches
/// [`PlaneRequests::gather`] collected for the footprint of these
/// positions.
pub fn interpolate(n: usize, box_size: f64, positions: &[[f64; 3]], patches: &Patches) -> Vec<f64> {
    assert_eq!(n, patches.n, "patches of another mesh");
    positions
        .iter()
        .map(|p| {
            let mut v = 0.0;
            for (ix, iy, iz, w) in cic_stencil(n, box_size, p) {
                v += w * patches.at(ix, iy, iz);
            }
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_ranks::{CartDecomp, World};
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

    fn marked(n: usize, cells: &[usize]) -> Vec<bool> {
        (0..n).map(|i| cells.contains(&i)).collect()
    }

    #[test]
    fn cover_is_the_smallest_periodic_interval() {
        let span = |start, len| Span { start, len };
        assert_eq!(cover(&marked(8, &[])), span(0, 0), "empty");
        assert_eq!(cover(&[true; 8]), span(0, 8), "full");
        assert_eq!(cover(&marked(8, &[5])), span(5, 1), "single cell");
        assert_eq!(cover(&marked(8, &[0])), span(0, 1), "single cell at 0");
        assert_eq!(cover(&marked(8, &[2, 3, 4])), span(2, 3), "plain run");
        assert_eq!(cover(&marked(8, &[7, 0, 1])), span(7, 3), "wrapped run");
        assert_eq!(cover(&marked(8, &[2, 5])), span(2, 4), "two cells, gap inside");
        // Two clusters: the plain cover 1..=14 takes 14 cells, the one
        // wrapping through 0 takes 7.
        assert_eq!(cover(&marked(16, &[1, 2, 12, 13, 14])), span(12, 7), "two clusters");
        // Equal gaps either way: the first from the first marked cell.
        assert_eq!(cover(&marked(8, &[0, 4])), span(4, 5), "tie");
        // Every marked cell is covered, and nothing shorter covers them.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let n = rng.gen_range(1..20);
            let mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
            let c = cover(&mask);
            let holds = |s: Span| (0..n).all(|i| !mask[i] || s.offset(n, i) < s.len);
            assert!(holds(c), "{mask:?} -> {c:?}");
            let shorter = (0..n).any(|start| c.len > 0 && holds(span(start, c.len - 1)));
            assert!(!shorter, "{mask:?} -> {c:?}");
        }
    }

    #[test]
    fn span_meets_plain_ranges_across_the_wrap() {
        let n = 10;
        let wrapped = Span { start: 8, len: 4 }; // 8 9 0 1
        assert!(wrapped.meets(n, 0, 1));
        assert!(wrapped.meets(n, 9, 1));
        assert!(wrapped.meets(n, 5, 4)); // 5..9 holds 8
        assert!(!wrapped.meets(n, 2, 6));
        assert!(!wrapped.meets(n, 3, 0));
        assert!(!Span::default().meets(n, 0, n));
        assert!(Span { start: 3, len: n }.meets(n, 2, 1));
        let cells: Vec<usize> = wrapped.cells(n).collect();
        assert_eq!(cells, [8, 9, 0, 1]);
        assert_eq!(wrapped.runs(n), [8..10, 0..2]);
    }

    /// A field whose every cell has its own value, with no exact ties.
    fn field(n: usize, ix: usize, iy: usize, iz: usize) -> f64 {
        let i = ((ix * n + iy) * n + iz) as f64;
        (i * 0.618_033_988_7).sin() * 1e3 + i
    }

    /// This rank's slab of [`field`].
    fn field_slab(comm: &Comm, n: usize, sign: f64) -> Vec<f64> {
        let (x0, nx) = slab(n, comm.size(), comm.rank());
        let mut local = Vec::with_capacity(nx * n * n);
        for ix in x0..x0 + nx {
            for iy in 0..n {
                for iz in 0..n {
                    local.push(sign * field(n, ix, iy, iz));
                }
            }
        }
        local
    }

    /// Particles in this rank's cuboid subdomain of `CartDecomp`, some
    /// drifted up to a cell past its faces (so the footprints of boundary
    /// subdomains wrap the box), and none on the last rank of a world
    /// larger than one.
    fn cuboid_positions(comm: &Comm, n: usize, box_size: f64) -> Vec<[f64; 3]> {
        let (rank, size) = (comm.rank(), comm.size());
        if size > 1 && rank == size - 1 {
            return Vec::new();
        }
        let (lo, hi) = CartDecomp::new(size).subdomain(rank);
        let cell = box_size / n as f64;
        let mut rng = rand::rngs::StdRng::seed_from_u64(40 + rank as u64);
        (0..60)
            .map(|_| {
                [0, 1, 2].map(|d| {
                    let x = rng.gen_range(lo[d]..hi[d]) * box_size;
                    x + if rng.gen_bool(0.2) { rng.gen_range(-cell..cell) } else { 0.0 }
                })
            })
            .collect()
    }

    /// `(ranks, n)`: 1 to 27 ranks, even and uneven slabs, and worlds
    /// larger than the mesh (ranks owning no plane).
    const WORLDS: [(usize, usize); 8] = [
        (1, 8),
        (2, 12),
        (3, 10),
        (4, 10),
        (6, 16),
        (8, 12),
        (27, 8),
        (27, 16),
    ];

    #[test]
    fn patch_gather_interpolates_bitwise_like_whole_planes() {
        for (size, n) in WORLDS {
            let box_size = 1.25 * n as f64;
            let per_rank = World::run(size, |comm| {
                let pos = cuboid_positions(comm, n, box_size);
                let footprint = needed_planes(n, box_size, &pos);
                let requests = PlaneRequests::exchange(comm, n, &footprint);
                // Two fields through one exchange of the requests.
                for sign in [1.0, -1.0] {
                    let local = field_slab(comm, n, sign);
                    let patches = requests.gather(comm, &local);
                    let got = interpolate(n, box_size, &pos, &patches);
                    // Whole planes: every stencil cell read off the full
                    // grid, in the same order.
                    for (p, g) in pos.iter().zip(got) {
                        let mut want = 0.0;
                        for (ix, iy, iz, w) in cic_stencil(n, box_size, p) {
                            want += w * (sign * field(n, ix, iy, iz));
                        }
                        assert_eq!(g.to_bits(), want.to_bits(), "{size} ranks, n={n}, at {p:?}");
                    }
                }
                // The one-shot form agrees.
                let local = field_slab(comm, n, 1.0);
                let once = gather_planes(comm, n, &local, &footprint);
                let again = requests.gather(comm, &local);
                assert_eq!(once.bufs, again.bufs);
                footprint
            });
            let cells = |f: &Footprint| f.iter().map(|s| s.len).product::<usize>();
            if size > 1 {
                assert_eq!(cells(&per_rank[size - 1]), 0, "the last rank holds nothing");
            }
            if size == 27 {
                // The test covers what it claims: patches smaller than a
                // plane, and footprints wrapping the box in y and in z.
                assert!(per_rank.iter().all(|f| f[1].len < n && f[2].len < n));
                for d in [1, 2] {
                    assert!(per_rank.iter().any(|f| f[d].start + f[d].len > n), "axis {d}");
                }
            }
        }
    }

    /// The dense deposit, the reference the routed one must reproduce bit
    /// for bit: one all-to-all-v with a buffer for every rank, summed in
    /// rank order.
    fn dense_deposit(
        comm: &mut Comm,
        n: usize,
        box_size: f64,
        pos: &[[f64; 3]],
        mass: &[f64],
    ) -> Vec<f64> {
        let size = comm.size();
        let mut sends: Vec<Vec<(u64, f64)>> = vec![Vec::new(); size];
        for (p, &m) in pos.iter().zip(mass) {
            for (ix, iy, iz, w) in cic_stencil(n, box_size, p) {
                sends[plane_owner(n, size, ix)].push((((ix * n + iy) * n + iz) as u64, m * w));
            }
        }
        let (x0, nx) = slab(n, size, comm.rank());
        let mut grid = vec![0.0f64; nx * n * n];
        for buf in comm.all_to_allv(sends) {
            for (idx, v) in buf {
                grid[idx as usize - x0 * n * n] += v;
            }
        }
        grid
    }

    #[test]
    fn routed_deposit_is_bitwise_the_dense_one() {
        for (size, n) in WORLDS {
            let box_size = 1.25 * n as f64;
            World::run(size, |comm| {
                let pos = cuboid_positions(comm, n, box_size);
                let mass: Vec<f64> = (0..pos.len()).map(|i| 0.5 + (i % 7) as f64 * 0.3).collect();
                let routed = deposit(comm, n, box_size, &pos, &mass);
                let dense = dense_deposit(comm, n, box_size, &pos, &mass);
                let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&routed), bits(&dense), "{size} ranks, n={n}");
            });
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
            let (_, nx) = slab(n, size, comm.rank());
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
        });
    }

    #[test]
    fn gather_wrapping_footprint() {
        // Every rank asks for the wrap pair of planes {n-1, 0} and a patch
        // wrapping in y and z; each cell comes back with its value.
        let n = 8;
        World::run(4, |comm| {
            let footprint = [
                Span { start: n - 1, len: 2 },
                Span { start: 6, len: 3 },
                Span { start: 5, len: 5 },
            ];
            let local = field_slab(comm, n, 1.0);
            let patches = gather_planes(comm, n, &local, &footprint);
            assert_eq!(patches.bufs.len(), 2, "two owners answer");
            let [x, y, z] = footprint;
            for ix in x.cells(n) {
                for iy in y.cells(n) {
                    for iz in z.cells(n) {
                        assert_eq!(patches.at(ix, iy, iz), field(n, ix, iy, iz));
                    }
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "outside the footprint")]
    fn a_cell_outside_the_footprint_is_refused() {
        // A 2×2×2 patch of one plane pair: the row past the patch's last y
        // lies in its buffer, but not in its footprint.
        let patches = Patches {
            n: 4,
            footprint: [Span { start: 0, len: 2 }; 3],
            planes: vec![(0, 0), (0, 4)],
            own: None,
            local: &[],
            bufs: vec![vec![0.0; 8]],
        };
        patches.at(0, 2, 0);
    }
}
