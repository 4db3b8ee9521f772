//! The chaining mesh: fixed-size spatial bins, each holding a coarse-leaf
//! k-d tree, with leaf-pair interaction list generation.

use crate::kdtree::{build_leaves, Leaf};

/// Identifier of a leaf within a [`ChainingMesh`].
pub type LeafId = u32;

/// Particles per base leaf: the one leaf size the driver, the default
/// [`CmConfig`] and the bench workloads build with.
///
/// Sized by measurement on the `hydro-highz` benchmark workload
/// (`step_wall_s`, 2 ranks, seeds 1–3, two interleaved runs each): with
/// the lane compaction of `hacc_gpusim::sweep` in front of the tiles, 64
/// reads −1…+6% against 128 and 32 reads 0…+12% (more leaf pairs to list,
/// box and scan than the smaller tiles save). 32 was only ever ahead, by
/// about a tenth, while 128-wide leaves were swept dense.
pub const MAX_LEAF: usize = 128;

/// Chaining-mesh build parameters.
#[derive(Debug, Clone, Copy)]
pub struct CmConfig {
    /// Target bin width (the paper uses ~4 PM grid cells). Actual widths
    /// are rounded so bins exactly tile the domain.
    pub bin_width: f64,
    /// Maximum particles per base leaf (paper: a few hundred).
    pub max_leaf: usize,
}

impl Default for CmConfig {
    fn default() -> Self {
        Self {
            bin_width: 4.0,
            max_leaf: MAX_LEAF,
        }
    }
}

/// A chaining mesh over one rank's (overloaded) subdomain.
///
/// Built once per PM step from the particle positions; bounding boxes are
/// then grown (never shrunk) during subcycles via [`Self::grow_aabbs`].
///
/// Along a *wrapped* axis ([`Self::build_wrapped`]) the domain is one
/// period of a periodic box: the first and last bins are neighbours, and
/// a leaf pair that meets across that seam sees its second leaf through
/// the periodic image [`Self::image_shift`] names — minimum-image
/// distances without replicated particles.
#[derive(Debug)]
pub struct ChainingMesh {
    nbins: [usize; 3],
    widths: [f64; 3],
    origin: [f64; 3],
    /// Period of each wrapped axis (`None`: open, bins clamp at the ends).
    period: [Option<f64>; 3],
    /// All base leaves, grouped by bin.
    pub leaves: Vec<Leaf>,
    /// `(first_leaf, leaf_count)` per bin.
    bin_leaves: Vec<(u32, u32)>,
    /// Bin of each leaf.
    leaf_bin: Vec<u32>,
    /// Per leaf, the seams its bin touches: bit `2d` set in the first bin
    /// along a wrapped axis `d`, bit `2d + 1` in the last.
    seam: Vec<u8>,
    /// Tree ordering: `order[slot]` is the original particle index.
    pub order: Vec<u32>,
}

impl ChainingMesh {
    /// Build the mesh for `positions` within the axis-aligned domain
    /// `[lo, hi]` (the overloaded rank volume; positions outside are
    /// clamped into the boundary bins). No axis wraps.
    pub fn build(positions: &[[f64; 3]], lo: [f64; 3], hi: [f64; 3], cfg: &CmConfig) -> Self {
        Self::build_wrapped(positions, lo, hi, [false; 3], cfg)
    }

    /// [`Self::build`] with the axes flagged in `wrap` periodic, of period
    /// `hi - lo`: their end bins are neighbours, and positions drifted
    /// past either end still clamp into the end bins. A wrapped axis needs
    /// at least three bins (asserted) so that a bin's two neighbours
    /// along it are distinct and no leaf pair meets twice. As between
    /// interior bins, the list misses no pair within the cutoff while no
    /// position strays past its bin by more than the bin width less the
    /// cutoff.
    pub fn build_wrapped(
        positions: &[[f64; 3]],
        lo: [f64; 3],
        hi: [f64; 3],
        wrap: [bool; 3],
        cfg: &CmConfig,
    ) -> Self {
        assert!(cfg.bin_width > 0.0 && cfg.max_leaf > 0);
        let mut nbins = [1usize; 3];
        let mut widths = [0f64; 3];
        for d in 0..3 {
            let extent = (hi[d] - lo[d]).max(f64::MIN_POSITIVE);
            // Floor, so widths never fall below the requested bin width:
            // the chaining-mesh locality guarantee (cutoff <= width) is
            // preserved. Domains narrower than one bin get a single bin,
            // where locality holds trivially.
            nbins[d] = ((extent / cfg.bin_width).floor() as usize).max(1);
            widths[d] = extent / nbins[d] as f64;
        }
        for d in (0..3).filter(|&d| wrap[d]) {
            assert!(
                nbins[d] >= 3,
                "wrapped axis {d} holds {} chaining-mesh bins of {}; minimum image needs 3",
                nbins[d],
                cfg.bin_width
            );
        }
        let period = [0, 1, 2].map(|d| wrap[d].then(|| hi[d] - lo[d]));
        let total_bins = nbins[0] * nbins[1] * nbins[2];

        // Bin each particle (counting sort).
        let bin_of = |p: &[f64; 3]| -> usize {
            let mut b = [0usize; 3];
            for d in 0..3 {
                let x = ((p[d] - lo[d]) / widths[d]).floor() as isize;
                b[d] = x.clamp(0, nbins[d] as isize - 1) as usize;
            }
            (b[0] * nbins[1] + b[1]) * nbins[2] + b[2]
        };
        let mut counts = vec![0u32; total_bins + 1];
        let bins: Vec<usize> = positions.iter().map(bin_of).collect();
        for &b in &bins {
            counts[b + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut order = vec![0u32; positions.len()];
        let mut cursor = counts;
        for (i, &b) in bins.iter().enumerate() {
            order[cursor[b] as usize] = i as u32;
            cursor[b] += 1;
        }

        // Build the per-bin coarse k-d leaves; each bin owns a disjoint
        // slice of the ordering array.
        let mut leaves = Vec::new();
        let mut bin_leaves = Vec::with_capacity(total_bins);
        let mut leaf_bin = Vec::new();
        for b in 0..total_bins {
            let (start, end) = (offsets[b] as usize, offsets[b + 1] as usize);
            let first = leaves.len();
            build_leaves(
                positions,
                &mut order[start..end],
                start as u32,
                cfg.max_leaf,
                &mut leaves,
            );
            let count = leaves.len() - first;
            bin_leaves.push((first as u32, count as u32));
            leaf_bin.extend(std::iter::repeat(b as u32).take(count));
        }

        let mut cm = Self {
            nbins,
            widths,
            origin: lo,
            period,
            leaves,
            bin_leaves,
            leaf_bin,
            seam: Vec::new(),
            order,
        };
        cm.seam = (0..cm.n_leaves() as LeafId)
            .map(|id| {
                let c = cm.bin_coords(id);
                (0..3).filter(|&d| wrap[d]).fold(0, |bits, d| {
                    let first = u8::from(c[d] == 0) << (2 * d);
                    let last = u8::from(c[d] == nbins[d] - 1) << (2 * d + 1);
                    bits | first | last
                })
            })
            .collect();
        cm
    }

    /// Bin grid dimensions.
    pub fn nbins(&self) -> [usize; 3] {
        self.nbins
    }

    /// Number of base leaves.
    pub fn n_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// The particle indices (original ordering) of leaf `id`.
    pub fn leaf_particles(&self, id: LeafId) -> &[u32] {
        let leaf = &self.leaves[id as usize];
        &self.order[leaf.range()]
    }

    /// Grow leaf bounding boxes to cover current particle positions (boxes
    /// never shrink — the paper's "leaves expand as needed" policy that
    /// avoids rebuilding). Only leaves flagged in `active` are touched;
    /// pass `None` to grow all.
    pub fn grow_aabbs(&mut self, positions: &[[f64; 3]], active: Option<&[bool]>) {
        for (id, leaf) in self.leaves.iter_mut().enumerate() {
            if let Some(mask) = active {
                if !mask[id] {
                    continue;
                }
            }
            for slot in leaf.range() {
                leaf.aabb.expand(&positions[self.order[slot] as usize]);
            }
        }
    }

    /// Per-leaf mask of the leaves holding at least one *sink* — a particle
    /// whose original index lies in the prefix `[0, n_sinks)`. Handed to
    /// [`Self::interaction_pairs`] as the `active` mask, it drops every
    /// leaf pair whose result no sink would read.
    pub fn sink_leaves(&self, n_sinks: usize) -> Vec<bool> {
        self.leaves
            .iter()
            .map(|leaf| {
                self.order[leaf.range()]
                    .iter()
                    .any(|&i| (i as usize) < n_sinks)
            })
            .collect()
    }

    /// Leaf-pair interaction list: all pairs `(i, j)` with `i <= j` whose
    /// padded bounding boxes lie within `cutoff` of each other, restricted
    /// to neighboring chaining-mesh bins (the CM guarantee: no interaction
    /// reaches beyond one bin). A pair that neighbours across a wrapped
    /// axis's seam is tested, and must be swept, with `j` moved by
    /// [`Self::image_shift`]`(i, j)`.
    ///
    /// With an `active` mask, a pair is emitted when *either* leaf is
    /// active (inactive neighbors still source forces on active leaves).
    pub fn interaction_pairs(&self, cutoff: f64, active: Option<&[bool]>) -> Vec<(LeafId, LeafId)> {
        let c2 = cutoff * cutoff;
        let mut pairs = Vec::new();
        let nb = self.nbins;
        // The bin one step along axis `d`: wrapped axes wrap, open axes end.
        let step = |d: usize, c: usize, delta: i64| -> Option<usize> {
            let n = nb[d] as i64;
            let x = c as i64 + delta;
            if (0..n).contains(&x) {
                Some(x as usize)
            } else {
                self.period[d].map(|_| x.rem_euclid(n) as usize)
            }
        };
        for (i, leaf_i) in self.leaves.iter().enumerate() {
            let bc = self.bin_coords(i as LeafId);
            for dx in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dz in -1i64..=1 {
                        let (Some(nx), Some(ny), Some(nz)) =
                            (step(0, bc[0], dx), step(1, bc[1], dy), step(2, bc[2], dz))
                        else {
                            continue;
                        };
                        let nbin = (nx * nb[1] + ny) * nb[2] + nz;
                        let (first, count) = self.bin_leaves[nbin];
                        for j in first..first + count {
                            let j = j as usize;
                            if j < i {
                                continue;
                            }
                            if let Some(mask) = active {
                                if !mask[i] && !mask[j] {
                                    continue;
                                }
                            }
                            let aabb_j = match self.image_shift(i as LeafId, j as LeafId) {
                                Some(by) => self.leaves[j].aabb.shifted(by),
                                None => self.leaves[j].aabb,
                            };
                            if i == j || leaf_i.aabb.min_dist_sqr(&aabb_j) <= c2 {
                                pairs.push((i as LeafId, j as LeafId));
                            }
                        }
                    }
                }
            }
        }
        pairs
    }

    /// Bin coordinates of leaf `id`'s bin.
    fn bin_coords(&self, id: LeafId) -> [usize; 3] {
        let (b, nb) = (self.leaf_bin[id as usize] as usize, self.nbins);
        [b / (nb[1] * nb[2]), (b / nb[2]) % nb[1], b % nb[2]]
    }

    /// The periodic image under which leaf `b` neighbours leaf `a`: the
    /// offset to add to `b`'s positions, or `None` when the two meet
    /// directly. Along a wrapped axis the first and last bins meet only
    /// across the seam (there are at least three), so a neighbouring pair
    /// with one leaf at each end is moved by one period.
    #[inline]
    pub fn image_shift(&self, a: LeafId, b: LeafId) -> Option<[f64; 3]> {
        let (sa, sb) = (self.seam[a as usize], self.seam[b as usize]);
        if sa == 0 || sb == 0 {
            return None;
        }
        let mut by = [0.0; 3];
        for (d, period) in self.period.iter().enumerate() {
            let (first, last) = (1u8 << (2 * d), 2u8 << (2 * d));
            let period = period.unwrap_or(0.0);
            if sa & first != 0 && sb & last != 0 {
                by[d] = -period;
            } else if sa & last != 0 && sb & first != 0 {
                by[d] = period;
            }
        }
        (by != [0.0; 3]).then_some(by)
    }

    /// Rebuild cost proxy: total leaf AABB volume relative to the domain
    /// (grows as boxes inflate; used by the rebuild-policy ablation).
    pub fn overlap_factor(&self) -> f64 {
        let domain = self.widths[0] * self.nbins[0] as f64
            * self.widths[1] * self.nbins[1] as f64
            * self.widths[2] * self.nbins[2] as f64;
        let total: f64 = self.leaves.iter().map(|l| l.aabb.volume()).sum();
        total / domain
    }

    /// Origin of the binned domain.
    pub fn origin(&self) -> [f64; 3] {
        self.origin
    }

    /// Actual bin widths per dimension (after rounding to tile the
    /// domain). Interaction cutoffs must not exceed the smallest width —
    /// the chaining-mesh guarantee that forces stay within one bin
    /// neighborhood.
    pub fn widths(&self) -> [f64; 3] {
        self.widths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_rt::rand::{self, Rng, SeedableRng};

    fn cloud(n: usize, seed: u64, extent: f64) -> Vec<[f64; 3]> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..extent),
                    rng.gen_range(0.0..extent),
                    rng.gen_range(0.0..extent),
                ]
            })
            .collect()
    }

    fn build(n: usize, seed: u64) -> (Vec<[f64; 3]>, ChainingMesh) {
        let pos = cloud(n, seed, 16.0);
        let cm = ChainingMesh::build(
            &pos,
            [0.0; 3],
            [16.0; 3],
            &CmConfig {
                bin_width: 4.0,
                max_leaf: 32,
            },
        );
        (pos, cm)
    }

    #[test]
    fn order_is_permutation() {
        let (_, cm) = build(500, 1);
        let mut sorted = cm.order.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn every_particle_in_exactly_one_leaf() {
        let (_, cm) = build(500, 2);
        let total: u32 = cm.leaves.iter().map(|l| l.count).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn interaction_list_covers_all_close_pairs() {
        // Golden invariant: every particle pair within the cutoff must be
        // covered by some leaf pair in the interaction list.
        let (pos, cm) = build(400, 3);
        let cutoff = 1.5;
        let pairs = cm.interaction_pairs(cutoff, None);
        // Map particle -> leaf.
        let mut leaf_of = vec![u32::MAX; pos.len()];
        for (id, leaf) in cm.leaves.iter().enumerate() {
            for slot in leaf.range() {
                leaf_of[cm.order[slot] as usize] = id as u32;
            }
        }
        let pairset: std::collections::HashSet<(u32, u32)> =
            pairs.iter().copied().collect();
        let c2 = cutoff * cutoff;
        for a in 0..pos.len() {
            for b in (a + 1)..pos.len() {
                let d2: f64 = (0..3)
                    .map(|d| (pos[a][d] - pos[b][d]).powi(2))
                    .sum();
                if d2 <= c2 {
                    let (la, lb) = (leaf_of[a].min(leaf_of[b]), leaf_of[a].max(leaf_of[b]));
                    assert!(
                        pairset.contains(&(la, lb)),
                        "close pair ({a},{b}) d={} not covered by leaves ({la},{lb})",
                        d2.sqrt()
                    );
                }
            }
        }
    }

    /// Every pair within `cutoff` of each other under the minimum image
    /// along the wrapped axes is met by its leaves' pair, under the image
    /// shift that realizes that minimum image; no leaf pair is listed
    /// twice. Positions stray `slack` past both ends of the period, at
    /// most the margin `bin width - cutoff` that keeps the list exact.
    #[test]
    fn wrapped_list_meets_every_close_pair_once_under_its_minimum_image() {
        let (extent, cutoff, slack) = (12.0, 1.5, 0.5);
        let cases = [
            (21, [true, false, true], 3.0),
            (22, [true; 3], 4.0),
            (23, [false, true, false], 3.0),
        ];
        for (seed, wrap, bin_width) in cases {
            let pos: Vec<[f64; 3]> = cloud(600, seed, extent + 2.0 * slack)
                .into_iter()
                .map(|p| p.map(|x| x - slack))
                .collect();
            let cm = ChainingMesh::build_wrapped(
                &pos,
                [0.0; 3],
                [extent; 3],
                wrap,
                &CmConfig {
                    bin_width,
                    max_leaf: 16,
                },
            );
            let pairs = cm.interaction_pairs(cutoff, None);
            let pairset: std::collections::HashSet<(u32, u32)> = pairs.iter().copied().collect();
            assert_eq!(pairset.len(), pairs.len(), "a leaf pair listed twice");
            assert!(pairs.iter().any(|&(a, b)| cm.image_shift(a, b).is_some()));
            let mut leaf_of = vec![0u32; pos.len()];
            for id in 0..cm.n_leaves() as u32 {
                for &p in cm.leaf_particles(id) {
                    leaf_of[p as usize] = id;
                }
            }
            for a in 0..pos.len() {
                for b in (a + 1)..pos.len() {
                    let (a, b) = if leaf_of[a] <= leaf_of[b] {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    let delta: [f64; 3] = [0, 1, 2].map(|d| {
                        let x = pos[b][d] - pos[a][d];
                        if wrap[d] {
                            x - extent * (x / extent).round()
                        } else {
                            x
                        }
                    });
                    if delta.iter().map(|x| x * x).sum::<f64>() > cutoff * cutoff {
                        continue;
                    }
                    let (la, lb) = (leaf_of[a], leaf_of[b]);
                    assert!(pairset.contains(&(la, lb)), "close pair ({a},{b}) not met");
                    let by = cm.image_shift(la, lb).unwrap_or([0.0; 3]);
                    for d in 0..3 {
                        let met = pos[b][d] + by[d] - pos[a][d];
                        assert!((met - delta[d]).abs() < 1e-9, "({a},{b}) met across {by:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn open_mesh_has_no_image_shifts() {
        let (_, cm) = build(400, 12);
        let pairs = cm.interaction_pairs(1.5, None);
        assert!(pairs.iter().all(|&(a, b)| cm.image_shift(a, b).is_none()));
    }

    #[test]
    #[should_panic(expected = "minimum image needs 3")]
    fn wrapped_axis_refuses_fewer_than_three_bins() {
        let pos = cloud(50, 13, 8.0);
        let cfg = CmConfig {
            bin_width: 3.5,
            max_leaf: 16,
        };
        ChainingMesh::build_wrapped(&pos, [0.0; 3], [8.0; 3], [false, true, false], &cfg);
    }

    #[test]
    fn self_pairs_always_present() {
        let (_, cm) = build(300, 4);
        let pairs = cm.interaction_pairs(0.5, None);
        for id in 0..cm.n_leaves() as u32 {
            assert!(pairs.contains(&(id, id)), "missing self pair for {id}");
        }
    }

    #[test]
    fn active_mask_prunes_inactive_pairs() {
        let (_, cm) = build(400, 5);
        let mut active = vec![false; cm.n_leaves()];
        active[0] = true;
        let pairs = cm.interaction_pairs(2.0, Some(&active));
        assert!(pairs.iter().all(|&(i, j)| i == 0 || j == 0));
        let all_pairs = cm.interaction_pairs(2.0, None);
        assert!(pairs.len() < all_pairs.len());
    }

    #[test]
    fn sink_leaves_match_brute_force_scan() {
        let (pos, cm) = build(400, 11);
        // A prefix that leaves some leaf with exactly one sink: the
        // smallest particle index of leaf 0, plus one.
        let one_sink = *cm.leaf_particles(0).iter().min().unwrap() as usize + 1;
        for n_sinks in [0, 1, one_sink, 137, pos.len() - 1, pos.len()] {
            let mask = cm.sink_leaves(n_sinks);
            assert_eq!(mask.len(), cm.n_leaves());
            for id in 0..cm.n_leaves() {
                let sinks = cm
                    .leaf_particles(id as u32)
                    .iter()
                    .filter(|&&p| (p as usize) < n_sinks)
                    .count();
                assert_eq!(mask[id], sinks > 0, "leaf {id}, n_sinks {n_sinks}");
            }
        }
        assert!(cm.sink_leaves(0).iter().all(|&m| !m));
        assert!(cm.sink_leaves(pos.len()).iter().all(|&m| m));
        let sinks_in_leaf_0 =
            cm.leaf_particles(0).iter().filter(|&&p| (p as usize) < one_sink).count();
        assert_eq!(sinks_in_leaf_0, 1);
        assert!(cm.sink_leaves(one_sink)[0]);
        // All sinks: the masked list is the full list; no sinks: empty.
        let full = cm.interaction_pairs(1.5, None);
        assert_eq!(cm.interaction_pairs(1.5, Some(&cm.sink_leaves(pos.len()))), full);
        assert!(cm.interaction_pairs(1.5, Some(&cm.sink_leaves(0))).is_empty());
    }

    #[test]
    fn grow_covers_moved_particles() {
        let (mut pos, mut cm) = build(400, 6);
        // Drift particles.
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for p in &mut pos {
            for d in 0..3 {
                p[d] += rng.gen_range(-0.5..0.5);
            }
        }
        cm.grow_aabbs(&pos, None);
        for (id, leaf) in cm.leaves.iter().enumerate() {
            for &pi in cm.leaf_particles(id as u32) {
                assert!(leaf.aabb.contains(&pos[pi as usize]));
            }
        }
    }

    #[test]
    fn grow_never_shrinks() {
        let (pos, mut cm) = build(300, 7);
        let before: Vec<f64> = cm.leaves.iter().map(|l| l.aabb.volume()).collect();
        cm.grow_aabbs(&pos, None);
        for (l, b) in cm.leaves.iter().zip(before) {
            assert!(l.aabb.volume() >= b - 1e-12);
        }
    }

    #[test]
    fn overlap_factor_increases_as_boxes_grow() {
        let (mut pos, mut cm) = build(500, 8);
        let f0 = cm.overlap_factor();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for p in &mut pos {
            for d in 0..3 {
                p[d] += rng.gen_range(-1.0..1.0);
            }
        }
        cm.grow_aabbs(&pos, None);
        assert!(cm.overlap_factor() >= f0);
    }

    #[test]
    fn clamps_out_of_domain_particles() {
        let mut pos = cloud(50, 10, 16.0);
        pos.push([-3.0, 20.0, 8.0]); // outside the domain
        let cm = ChainingMesh::build(
            &pos,
            [0.0; 3],
            [16.0; 3],
            &CmConfig::default(),
        );
        let total: u32 = cm.leaves.iter().map(|l| l.count).sum();
        assert_eq!(total as usize, pos.len());
    }

    #[test]
    fn empty_input() {
        let cm = ChainingMesh::build(&[], [0.0; 3], [16.0; 3], &CmConfig::default());
        assert_eq!(cm.n_leaves(), 0);
        assert!(cm.interaction_pairs(1.0, None).is_empty());
    }
}
