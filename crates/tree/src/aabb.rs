//! Axis-aligned bounding boxes in three dimensions.

/// An axis-aligned bounding box. An *empty* box has `lo > hi` and absorbs
/// any point on first [`Aabb::expand`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Lower corner.
    pub lo: [f64; 3],
    /// Upper corner.
    pub hi: [f64; 3],
}

impl Aabb {
    /// The empty box (identity of the union operation).
    pub fn empty() -> Self {
        Self {
            lo: [f64::INFINITY; 3],
            hi: [f64::NEG_INFINITY; 3],
        }
    }

    /// A box spanning `[lo, hi]`.
    pub fn new(lo: [f64; 3], hi: [f64; 3]) -> Self {
        Self { lo, hi }
    }

    /// True when no point has been absorbed.
    pub fn is_empty(&self) -> bool {
        (0..3).any(|d| self.lo[d] > self.hi[d])
    }

    /// Grow to contain `p`.
    #[inline]
    pub fn expand(&mut self, p: &[f64; 3]) {
        for d in 0..3 {
            self.lo[d] = self.lo[d].min(p[d]);
            self.hi[d] = self.hi[d].max(p[d]);
        }
    }

    /// Grow to contain another box.
    pub fn union(&mut self, other: &Aabb) {
        for d in 0..3 {
            self.lo[d] = self.lo[d].min(other.lo[d]);
            self.hi[d] = self.hi[d].max(other.hi[d]);
        }
    }

    /// The box moved by `by` (a periodic image of it).
    pub fn shifted(&self, by: [f64; 3]) -> Self {
        Self {
            lo: [self.lo[0] + by[0], self.lo[1] + by[1], self.lo[2] + by[2]],
            hi: [self.hi[0] + by[0], self.hi[1] + by[1], self.hi[2] + by[2]],
        }
    }

    /// True when `p` lies inside (closed bounds).
    pub fn contains(&self, p: &[f64; 3]) -> bool {
        (0..3).all(|d| p[d] >= self.lo[d] && p[d] <= self.hi[d])
    }

    /// Squared minimum distance between two boxes (zero when overlapping).
    #[inline]
    pub fn min_dist_sqr(&self, other: &Aabb) -> f64 {
        let mut d2 = 0.0;
        for d in 0..3 {
            let gap = (self.lo[d] - other.hi[d]).max(other.lo[d] - self.hi[d]).max(0.0);
            d2 += gap * gap;
        }
        d2
    }

    /// Squared minimum distance from a point to the box.
    #[inline]
    pub fn min_dist_sqr_point(&self, p: &[f64; 3]) -> f64 {
        let mut d2 = 0.0;
        for d in 0..3 {
            let gap = (self.lo[d] - p[d]).max(p[d] - self.hi[d]).max(0.0);
            d2 += gap * gap;
        }
        d2
    }

    /// Longest axis (0, 1, or 2).
    pub fn longest_axis(&self) -> usize {
        let ext = [
            self.hi[0] - self.lo[0],
            self.hi[1] - self.lo[1],
            self.hi[2] - self.lo[2],
        ];
        if ext[0] >= ext[1] && ext[0] >= ext[2] {
            0
        } else if ext[1] >= ext[2] {
            1
        } else {
            2
        }
    }

    /// Box volume (zero for empty/degenerate boxes).
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (self.hi[0] - self.lo[0]) * (self.hi[1] - self.lo[1]) * (self.hi[2] - self.lo[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_rt::prop::prelude::*;

    #[test]
    fn empty_absorbs_first_point() {
        let mut b = Aabb::empty();
        assert!(b.is_empty());
        b.expand(&[1.0, 2.0, 3.0]);
        assert!(!b.is_empty());
        assert_eq!(b.lo, [1.0, 2.0, 3.0]);
        assert_eq!(b.hi, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn min_dist_of_overlapping_is_zero() {
        let a = Aabb::new([0.0; 3], [2.0; 3]);
        let b = Aabb::new([1.0; 3], [3.0; 3]);
        assert_eq!(a.min_dist_sqr(&b), 0.0);
    }

    #[test]
    fn min_dist_axis_separated() {
        let a = Aabb::new([0.0; 3], [1.0; 3]);
        let b = Aabb::new([3.0, 0.0, 0.0], [4.0, 1.0, 1.0]);
        assert!((a.min_dist_sqr(&b) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn min_dist_corner_separated() {
        let a = Aabb::new([0.0; 3], [1.0; 3]);
        let b = Aabb::new([2.0; 3], [3.0; 3]);
        assert!((a.min_dist_sqr(&b) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn longest_axis_picks_max_extent() {
        let b = Aabb::new([0.0; 3], [1.0, 5.0, 2.0]);
        assert_eq!(b.longest_axis(), 1);
    }

    proptest! {
        #[test]
        fn union_contains_both(
            ax in -5.0f64..5.0, ay in -5.0f64..5.0, az in -5.0f64..5.0,
            bx in -5.0f64..5.0, by in -5.0f64..5.0, bz in -5.0f64..5.0,
        ) {
            let mut a = Aabb::empty();
            a.expand(&[ax, ay, az]);
            let mut b = Aabb::empty();
            b.expand(&[bx, by, bz]);
            let mut u = a;
            u.union(&b);
            prop_assert!(u.contains(&[ax, ay, az]));
            prop_assert!(u.contains(&[bx, by, bz]));
        }

        #[test]
        fn min_dist_symmetric(
            ax in -5.0f64..5.0, bx in -5.0f64..5.0, w in 0.1f64..2.0,
        ) {
            let a = Aabb::new([ax, 0.0, 0.0], [ax + w, w, w]);
            let b = Aabb::new([bx, 0.0, 0.0], [bx + w, w, w]);
            prop_assert!((a.min_dist_sqr(&b) - b.min_dist_sqr(&a)).abs() < 1e-12);
        }

        #[test]
        fn point_dist_zero_inside(px in 0.0f64..1.0, py in 0.0f64..1.0, pz in 0.0f64..1.0) {
            let b = Aabb::new([0.0; 3], [1.0; 3]);
            prop_assert_eq!(b.min_dist_sqr_point(&[px, py, pz]), 0.0);
        }
    }
}
