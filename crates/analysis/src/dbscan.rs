//! DBSCAN (Ester et al. 1996) — the one clustering kernel of the in-situ
//! pipeline, computed as ArborX computes it: one union-find over LBVH
//! radius walks. Friends-of-friends is DBSCAN at `min_pts = 2`
//! ([`crate::fof`]).

use crate::bvh::Lbvh;

/// Classification of each point by DBSCAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbscanLabel {
    /// Dense interior point of cluster `id`.
    Core(u32),
    /// Within eps of a core point of cluster `id`, but not itself dense.
    Border(u32),
    /// Neither.
    Noise,
}

impl DbscanLabel {
    /// The cluster id, if any.
    pub fn cluster(&self) -> Option<u32> {
        match self {
            DbscanLabel::Core(c) | DbscanLabel::Border(c) => Some(*c),
            DbscanLabel::Noise => None,
        }
    }
}

/// Disjoint-set forest with path halving and union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merge the sets of `a` and `b`.
    fn union(&mut self, a: u32, b: u32) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
    }
}

/// The clusters of a point set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Clusters {
    /// Per point: its cluster id in `0..count`, `None` for noise.
    pub label: Vec<Option<u32>>,
    /// Per point: whether it is a core point.
    pub core: Vec<bool>,
    /// Number of clusters.
    pub count: usize,
}

/// Cluster `points` with radius `eps` (inclusive) and core threshold
/// `min_pts`, the neighbour count *including* the point itself, in three
/// passes. The core pass marks each point with at least `min_pts`
/// neighbours (its walk stops at the `min_pts`-th). The union pass joins
/// every pair of core points within `eps`. The border pass attaches each
/// other point to the cluster of its lowest-index core neighbour, a rule
/// no walk order changes; a point with no core neighbour is noise.
pub(crate) fn cluster(points: &[[f64; 3]], eps: f64, min_pts: usize) -> Clusters {
    let n = points.len();
    let bvh = Lbvh::build(points);
    let neighbours: Vec<usize> = points
        .iter()
        .map(|p| {
            let mut k = 0;
            bvh.walk(p, eps, |_, _| {
                k += 1;
                k < min_pts
            });
            k
        })
        .collect();
    let core: Vec<bool> = neighbours.iter().map(|&k| k >= min_pts).collect();

    // Unions in a fixed order: `i` ascending, then each `j > i` in walk
    // order.
    let mut uf = UnionFind::new(n);
    for (i, p) in points.iter().enumerate().filter(|&(i, _)| core[i]) {
        bvh.walk(p, eps, |j, _| {
            if j as usize > i && core[j as usize] {
                uf.union(i as u32, j);
            }
            true
        });
    }

    // A cluster's id is the rank of its union-find root among the roots.
    // With the union order above, ascending roots are the order of FOF's
    // halo list (a stable sort on mass breaks its ties by this id), and
    // the HOD draws follow that list: halo catalogs and galaxy mocks stay
    // byte-identical.
    let roots: Vec<u32> = (0..n as u32)
        .filter(|&i| core[i as usize] && uf.find(i) == i)
        .collect();

    let label = (0..n)
        .map(|i| {
            // A point alone within `eps` has no neighbour to join.
            let mut anchor = core[i].then_some(i as u32);
            if anchor.is_none() && neighbours[i] > 1 {
                bvh.walk(&points[i], eps, |j, _| {
                    if core[j as usize] && anchor.is_none_or(|a| j < a) {
                        anchor = Some(j);
                    }
                    true
                });
            }
            anchor.and_then(|a| roots.binary_search(&uf.find(a)).ok().map(|c| c as u32))
        })
        .collect();
    let count = roots.len();
    Clusters { label, core, count }
}

/// Run DBSCAN with radius `eps` and core threshold `min_pts` (neighbor
/// count *including* the point itself): `cluster`'s output as labels.
/// Returns one label per point; cluster ids are dense `0..n_clusters`.
pub fn dbscan(points: &[[f64; 3]], eps: f64, min_pts: usize) -> Vec<DbscanLabel> {
    let c = cluster(points, eps, min_pts);
    let label = |(l, core): (&Option<u32>, &bool)| match l {
        Some(id) if *core => DbscanLabel::Core(*id),
        Some(id) => DbscanLabel::Border(*id),
        None => DbscanLabel::Noise,
    };
    c.label.iter().zip(&c.core).map(label).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_rt::prop::prelude::*;
    use hacc_rt::rand::{self, Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn blob(c: [f64; 3], n: usize, r: f64, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                [
                    c[0] + rng.gen_range(-r..r),
                    c[1] + rng.gen_range(-r..r),
                    c[2] + rng.gen_range(-r..r),
                ]
            })
            .collect()
    }

    #[test]
    fn two_clusters_and_noise() {
        let mut pts = blob([2.0; 3], 60, 0.4, 1);
        pts.extend(blob([8.0; 3], 60, 0.4, 2));
        pts.push([5.0; 3]); // lone outlier
        let labels = dbscan(&pts, 0.5, 8);
        let c0 = labels[0].cluster().expect("first blob clustered");
        let c1 = labels[70].cluster().expect("second blob clustered");
        assert_ne!(c0, c1);
        assert_eq!(labels[120], DbscanLabel::Noise);
        // Every blob member belongs to its blob's cluster.
        for (i, l) in labels.iter().enumerate().take(60) {
            assert_eq!(l.cluster(), Some(c0), "point {i}");
        }
        for (i, l) in labels.iter().enumerate().skip(60).take(60) {
            assert_eq!(l.cluster(), Some(c1), "point {i}");
        }
    }

    #[test]
    fn uniform_sparse_field_is_all_noise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let pts: Vec<[f64; 3]> = (0..200)
            .map(|_| {
                [
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                ]
            })
            .collect();
        let labels = dbscan(&pts, 0.5, 5);
        assert!(labels.iter().all(|l| *l == DbscanLabel::Noise));
    }

    #[test]
    fn border_points_attach_to_cluster() {
        // A dense line plus one point just within eps of its end: the end
        // satellite has too few neighbors to be core, but borders the
        // cluster.
        let mut pts: Vec<[f64; 3]> = (0..20).map(|i| [i as f64 * 0.1, 0.0, 0.0]).collect();
        pts.push([2.25, 0.0, 0.0]); // satellite
        let labels = dbscan(&pts, 0.35, 4);
        let cid = labels[0].cluster().unwrap();
        match labels[20] {
            DbscanLabel::Border(c) => assert_eq!(c, cid),
            other => panic!("satellite should be border, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_cluster_count() {
        let mut pts = blob([1.0; 3], 30, 0.3, 7);
        pts.extend(blob([5.0; 3], 30, 0.3, 8));
        pts.extend(blob([9.0; 3], 30, 0.3, 9));
        let labels = dbscan(&pts, 0.5, 5);
        let max_c = labels
            .iter()
            .filter_map(|l| l.cluster())
            .max()
            .unwrap();
        assert_eq!(max_c, 2, "expected exactly 3 clusters");
    }

    #[test]
    fn empty_input() {
        assert!(dbscan(&[], 1.0, 3).is_empty());
    }

    fn cloud(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..4.0),
                    rng.gen_range(0.0..4.0),
                    rng.gen_range(0.0..4.0),
                ]
            })
            .collect()
    }

    /// Brute-force neighbour lists (each point included in its own).
    fn neighbour_lists(points: &[[f64; 3]], eps: f64) -> Vec<Vec<usize>> {
        let e2 = eps * eps;
        points
            .iter()
            .map(|p| {
                (0..points.len())
                    .filter(|&j| (0..3).map(|d| (points[j][d] - p[d]).powi(2)).sum::<f64>() <= e2)
                    .collect()
            })
            .collect()
    }

    /// Connected components of the graph restricted to `member`, by
    /// repeated min-label propagation: each member's lowest-index
    /// component mate, `None` outside `member`.
    fn components(nbrs: &[Vec<usize>], member: &[bool]) -> Vec<Option<usize>> {
        let mut rep: Vec<Option<usize>> = (0..nbrs.len()).map(|i| member[i].then_some(i)).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..nbrs.len() {
                for &j in &nbrs[i] {
                    if let (Some(a), Some(b)) = (rep[i], rep[j]) {
                        if b < a {
                            rep[i] = Some(b);
                            changed = true;
                        }
                    }
                }
            }
        }
        rep
    }

    /// Whether two labelings agree on noise and induce the same
    /// partition over the points `keep` selects.
    fn same_partition<A: Ord + Copy, B: Ord + Copy>(
        a: &[Option<A>],
        b: &[Option<B>],
        keep: impl Fn(usize) -> bool,
    ) -> bool {
        let (mut ab, mut ba) = (BTreeMap::new(), BTreeMap::new());
        (0..a.len())
            .filter(|&i| keep(i))
            .all(|i| match (a[i], b[i]) {
                (None, None) => true,
                (Some(x), Some(y)) => {
                    *ab.entry(x).or_insert(y) == y && *ba.entry(y).or_insert(x) == x
                }
                _ => false,
            })
    }

    /// Ids are dense `0..count` and each names a cluster with a core point.
    fn ids_are_dense(c: &Clusters) -> bool {
        let mut seen = vec![false; c.count];
        for (l, &core) in c.label.iter().zip(&c.core) {
            match l {
                Some(id) if (*id as usize) < c.count => seen[*id as usize] |= core,
                Some(_) => return false,
                None => {}
            }
        }
        seen.iter().all(|&s| s)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn min_pts_two_finds_the_friend_graph_components(
            seed in 0u64..1000, n in 1usize..150, eps in 0.2f64..0.9
        ) {
            let pts = cloud(n, seed);
            let nbrs = neighbour_lists(&pts, eps);
            let got = cluster(&pts, eps, 2);
            prop_assert!(ids_are_dense(&got));
            // Every component of two or more friends is one cluster; a
            // friendless point is noise.
            let comp = components(&nbrs, &vec![true; n]);
            let expect: Vec<Option<usize>> =
                (0..n).map(|i| if nbrs[i].len() > 1 { comp[i] } else { None }).collect();
            prop_assert!(same_partition(&got.label, &expect, |_| true));
        }

        #[test]
        fn matches_brute_force_dbscan(
            seed in 0u64..1000, n in 1usize..150, eps in 0.3f64..1.2, min_pts in 3usize..8
        ) {
            let pts = cloud(n, seed);
            let nbrs = neighbour_lists(&pts, eps);
            let got = cluster(&pts, eps, min_pts);
            let core: Vec<bool> = nbrs.iter().map(|v| v.len() >= min_pts).collect();
            prop_assert_eq!(&got.core, &core);
            prop_assert!(ids_are_dense(&got));
            // Core points: the components of the core graph.
            let comp = components(&nbrs, &core);
            prop_assert!(same_partition(&got.label, &comp, |i| core[i]));
            // Border points join their lowest-index core neighbour; the
            // rest are noise.
            for i in (0..n).filter(|&i| !core[i]) {
                let lowest = nbrs[i].iter().copied().find(|&j| core[j]);
                prop_assert_eq!(got.label[i], lowest.and_then(|j| got.label[j]), "point {}", i);
            }
        }

        #[test]
        fn shuffled_input_gives_the_same_partition(
            seed in 0u64..1000, n in 1usize..150, eps in 0.3f64..1.2, min_pts in 2usize..6
        ) {
            let pts = cloud(n, seed);
            let mut perm: Vec<usize> = (0..n).collect();
            rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed).shuffle(&mut perm);
            let shuffled: Vec<[f64; 3]> = perm.iter().map(|&k| pts[k]).collect();
            let a = cluster(&pts, eps, min_pts);
            let s = cluster(&shuffled, eps, min_pts);
            let mut b = vec![None; n];
            for (k, &i) in perm.iter().enumerate() {
                b[i] = s.label[k];
            }
            // A border point whose core neighbours lie in two clusters
            // joins the one of the lowest index, which the shuffle moves.
            let nbrs = neighbour_lists(&pts, eps);
            let unambiguous = |i: usize| {
                let mut cores = nbrs[i].iter().filter(|&&j| a.core[j]).map(|&j| a.label[j]);
                a.core[i] || cores.next().is_none_or(|first| cores.all(|l| l == first))
            };
            prop_assert_eq!(a.count, s.count);
            prop_assert!(same_partition(&a.label, &b, unambiguous));
        }
    }

    #[test]
    fn union_find_invariants() {
        let mut uf = UnionFind::new(10);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 3);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(9));
    }
}
