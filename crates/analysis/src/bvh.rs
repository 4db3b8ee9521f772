//! A Morton-ordered linear BVH — the ArborX analog used by all clustering
//! analyses.
//!
//! Construction sorts particles along a 30-bit Morton curve and builds a
//! balanced binary hierarchy over the sorted order (median splits), with
//! bounding boxes refitted bottom-up. Queries are stack-based radius
//! searches. This matches the construction/traversal split of GPU BVHs
//! (ArborX/Karras) while staying simple enough to verify exhaustively.

use hacc_tree::Aabb;

/// Expand a 10-bit integer to every third bit position.
#[inline]
fn expand_bits(v: u32) -> u64 {
    let mut x = (v as u64) & 0x3FF;
    x = (x | (x << 16)) & 0x030000FF;
    x = (x | (x << 8)) & 0x0300F00F;
    x = (x | (x << 4)) & 0x030C30C3;
    x = (x | (x << 2)) & 0x09249249;
    x
}

/// 30-bit Morton code of a point normalized to the unit cube.
#[inline]
pub fn morton3(p: &[f64; 3], lo: &[f64; 3], inv_extent: &[f64; 3]) -> u64 {
    let mut code = 0u64;
    for d in 0..3 {
        let x = ((p[d] - lo[d]) * inv_extent[d]).clamp(0.0, 1.0 - 1e-12);
        let q = (x * 1024.0) as u32;
        code |= expand_bits(q) << (2 - d);
    }
    code
}

#[derive(Debug, Clone)]
struct Node {
    aabb: Aabb,
    /// Leaf: range into the sorted index array; internal: child ids.
    kind: NodeKind,
}

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf { start: u32, count: u32 },
    Internal { left: u32, right: u32 },
}

/// The linear BVH over a point set.
#[derive(Debug, Clone)]
pub struct Lbvh {
    nodes: Vec<Node>,
    /// Sorted particle indices.
    order: Vec<u32>,
    points: Vec<[f64; 3]>,
    root: u32,
}

const LEAF_SIZE: usize = 16;

impl Lbvh {
    /// Build from points (copied internally; queries return indices into
    /// the original slice).
    pub fn build(points: &[[f64; 3]]) -> Self {
        let n = points.len();
        // Bounding box of the set.
        let mut bounds = Aabb::empty();
        for p in points {
            bounds.expand(p);
        }
        let mut inv = [0.0f64; 3];
        for d in 0..3 {
            let e = (bounds.hi[d] - bounds.lo[d]).max(1e-300);
            inv[d] = 1.0 / e;
        }
        // Morton sort.
        let mut keyed: Vec<(u64, u32)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (morton3(p, &bounds.lo, &inv), i as u32))
            .collect();
        keyed.sort_unstable_by_key(|&(k, _)| k);
        let order: Vec<u32> = keyed.iter().map(|&(_, i)| i).collect();

        let mut nodes = Vec::with_capacity(2 * n / LEAF_SIZE + 2);
        let root = Self::build_range(&mut nodes, points, &order, 0, n);
        Self {
            nodes,
            order,
            points: points.to_vec(),
            root,
        }
    }

    fn build_range(
        nodes: &mut Vec<Node>,
        points: &[[f64; 3]],
        order: &[u32],
        start: usize,
        end: usize,
    ) -> u32 {
        if end - start <= LEAF_SIZE {
            let mut aabb = Aabb::empty();
            for &i in &order[start..end] {
                aabb.expand(&points[i as usize]);
            }
            nodes.push(Node {
                aabb,
                kind: NodeKind::Leaf {
                    start: start as u32,
                    count: (end - start) as u32,
                },
            });
            return (nodes.len() - 1) as u32;
        }
        let mid = (start + end) / 2;
        let left = Self::build_range(nodes, points, order, start, mid);
        let right = Self::build_range(nodes, points, order, mid, end);
        let mut aabb = nodes[left as usize].aabb;
        aabb.union(&nodes[right as usize].aabb);
        nodes.push(Node {
            aabb,
            kind: NodeKind::Internal { left, right },
        });
        (nodes.len() - 1) as u32
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Collect the indices of all points within `radius` of `center`
    /// (inclusive), in arbitrary order.
    pub fn query_radius(&self, center: &[f64; 3], radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_radius_into(center, radius, &mut out);
        out
    }

    /// As [`Self::query_radius`], reusing an output buffer (cleared).
    pub fn query_radius_into(&self, center: &[f64; 3], radius: f64, out: &mut Vec<u32>) {
        out.clear();
        self.walk(center, radius, |i, _| {
            out.push(i);
            true
        });
    }

    /// The one traversal: call `visit(index, d2)` on every point within
    /// `radius` of `center` (inclusive, `d2 <= radius²`), in traversal
    /// order, until `visit` returns `false`.
    pub(crate) fn walk(
        &self,
        center: &[f64; 3],
        radius: f64,
        mut visit: impl FnMut(u32, f64) -> bool,
    ) {
        let r2 = radius * radius;
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            if node.aabb.min_dist_sqr_point(center) > r2 {
                continue;
            }
            match node.kind {
                NodeKind::Leaf { start, count } => {
                    for &i in &self.order[start as usize..(start + count) as usize] {
                        let p = &self.points[i as usize];
                        let d2: f64 = (0..3).map(|d| (p[d] - center[d]).powi(2)).sum();
                        if d2 <= r2 && !visit(i, d2) {
                            return;
                        }
                    }
                }
                NodeKind::Internal { left, right } => {
                    stack.push(left);
                    stack.push(right);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_rt::prop::prelude::*;
    use hacc_rt::rand::{self, Rng, SeedableRng};

    fn cloud(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                    rng.gen_range(0.0..10.0),
                ]
            })
            .collect()
    }

    fn brute(points: &[[f64; 3]], c: &[f64; 3], r: f64) -> Vec<u32> {
        let r2 = r * r;
        let mut v: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                (0..3).map(|d| (p[d] - c[d]).powi(2)).sum::<f64>() <= r2
            })
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn query_matches_brute_force() {
        let pts = cloud(500, 3);
        let bvh = Lbvh::build(&pts);
        for (i, c) in cloud(20, 4).iter().enumerate() {
            let r = 0.5 + (i as f64) * 0.1;
            let mut got = bvh.query_radius(c, r);
            got.sort_unstable();
            assert_eq!(got, brute(&pts, c, r), "center {c:?} r {r}");
        }
    }

    #[test]
    fn empty_and_single() {
        let bvh = Lbvh::build(&[]);
        assert!(bvh.query_radius(&[0.0; 3], 1.0).is_empty());
        let bvh = Lbvh::build(&[[1.0, 2.0, 3.0]]);
        assert_eq!(bvh.query_radius(&[1.0, 2.0, 3.0], 0.1), vec![0]);
        assert!(bvh.query_radius(&[5.0, 5.0, 5.0], 0.1).is_empty());
    }

    #[test]
    fn radius_boundary_inclusive() {
        let pts = vec![[0.0; 3], [1.0, 0.0, 0.0]];
        let bvh = Lbvh::build(&pts);
        let mut got = bvh.query_radius(&[0.0; 3], 1.0);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn duplicate_points() {
        let pts = vec![[2.0; 3]; 100];
        let bvh = Lbvh::build(&pts);
        assert_eq!(bvh.query_radius(&[2.0; 3], 0.01).len(), 100);
    }

    #[test]
    fn morton_orders_close_points_together() {
        // Points in the same octant share high Morton bits.
        let lo = [0.0; 3];
        let inv = [1.0; 3];
        let a = morton3(&[0.1, 0.1, 0.1], &lo, &inv);
        let b = morton3(&[0.12, 0.11, 0.09], &lo, &inv);
        let c = morton3(&[0.9, 0.9, 0.9], &lo, &inv);
        // Shared-prefix length with a is longer for b than for c.
        let pa_b = (a ^ b).leading_zeros();
        let pa_c = (a ^ c).leading_zeros();
        assert!(pa_b > pa_c);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn bvh_finds_exactly_brute_force(seed in 0u64..1000, r in 0.1f64..3.0) {
            let pts = cloud(200, seed);
            let bvh = Lbvh::build(&pts);
            let c = [5.0, 5.0, 5.0];
            let mut got = bvh.query_radius(&c, r);
            got.sort_unstable();
            prop_assert_eq!(got, brute(&pts, &c, r));
        }
    }
}
