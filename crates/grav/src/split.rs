//! Tabulated force-splitting function.
//!
//! HACC approximates the short-range splitting factor with a fifth-order
//! polynomial fit; we use a dense lookup table with linear interpolation
//! in `r²` (equivalent accuracy, branch-free inner loop, no transcendental
//! per pair — the property that matters for the GPU kernels).

use hacc_gpusim::Real;
use hacc_mesh::poisson::short_range_fraction;

/// The short-range cutoff in units of the split scale `r_s`: at `7 r_s`
/// the splitting fraction has dropped below ~1e-6.
pub const CUTOFF_SPLIT_SCALES: f64 = 7.0;

/// Tabulation of the smooth splitting *fraction* `f_sr(r) ∈ [0, 1]`,
/// sampled uniformly in `r²` up to the cutoff. The steep `1/r³` factor is
/// evaluated analytically per pair (one rsqrt — cheap on GPU), so the
/// interpolated quantity stays well-conditioned everywhere.
#[derive(Debug, Clone)]
pub struct ForceSplitTable {
    r_cut: f64,
    r_cut2: f64,
    inv_dr2: f64,
    /// `f_sr(r)` samples over `r² ∈ [0, r_cut²]`.
    frac: Vec<f64>,
    /// Plummer softening squared.
    eps2: f64,
}

impl ForceSplitTable {
    /// Build the table for split scale `r_s`, cutting the force off at
    /// [`CUTOFF_SPLIT_SCALES`]` r_s`, with Plummer softening `eps`.
    pub fn new(r_s: f64, eps: f64, n: usize) -> Self {
        assert!(r_s > 0.0 && n >= 2);
        let r_cut = CUTOFF_SPLIT_SCALES * r_s;
        let r_cut2 = r_cut * r_cut;
        let dr2 = r_cut2 / (n - 1) as f64;
        let eps2 = eps * eps;
        let frac: Vec<f64> = (0..n)
            .map(|i| {
                let r = (dr2 * i as f64).sqrt();
                short_range_fraction(r, r_s)
            })
            .collect();
        Self {
            r_cut,
            r_cut2,
            inv_dr2: 1.0 / dr2,
            frac,
            eps2,
        }
    }

    /// The cutoff radius beyond which the short-range force vanishes.
    pub fn r_cut(&self) -> f64 {
        self.r_cut
    }

    /// Softening length squared.
    pub fn eps2(&self) -> f64 {
        self.eps2
    }

    /// Evaluate `g(r) = f_sr(r) / (r² + eps²)^{3/2}` from `r²`; zero
    /// beyond the cutoff.
    #[inline]
    pub fn eval_r2<T: Real>(&self, r2: T) -> T {
        if r2 >= T::c(self.r_cut2) {
            return T::c(0.0);
        }
        let x = r2 * T::c(self.inv_dr2);
        let i = x.to_f64() as usize;
        let f = x - T::c(i as f64);
        let a = T::c(self.frac[i]);
        let b = T::c(self.frac[(i + 1).min(self.frac.len() - 1)]);
        let fraction = a + (b - a) * f;
        let r2_soft = r2 + T::c(self.eps2);
        fraction / (r2_soft * r2_soft.sqrt())
    }

    /// The exact (untabulated) value, for accuracy tests and benches.
    pub fn eval_exact(&self, r2: f64, r_s: f64) -> f64 {
        if r2 >= self.r_cut2 {
            return 0.0;
        }
        let r = r2.sqrt();
        let r2_soft = r2 + self.eps2;
        short_range_fraction(r, r_s) / (r2_soft * r2_soft.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_exact_within_tolerance() {
        let r_s = 1.0;
        let t = ForceSplitTable::new(r_s, 0.0, 4096);
        for i in 1..600 {
            let r = i as f64 * 0.01;
            let r2 = r * r;
            let exact = t.eval_exact(r2, r_s);
            let approx = t.eval_r2(r2);
            let denom = exact.abs().max(1e-12);
            assert!(
                (approx - exact).abs() / denom < 2e-3,
                "r={r}: table {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn zero_beyond_cutoff() {
        let t = ForceSplitTable::new(0.5, 0.0, 512);
        assert_eq!(t.eval_r2(t.r_cut() * t.r_cut() * 1.01), 0.0);
        assert_eq!(t.eval_r2(1e6), 0.0);
    }

    #[test]
    fn short_distance_is_newtonian() {
        // g(r) -> 1/r^3 as r -> 0 (split fraction -> 1).
        let t = ForceSplitTable::new(2.0, 0.0, 8192);
        let r = 0.05;
        let g = t.eval_r2(r * r);
        let newton = 1.0 / (r * r * r);
        assert!((g / newton - 1.0).abs() < 0.02, "g={g} newton={newton}");
    }

    #[test]
    fn softening_bounds_force_at_origin() {
        let eps = 0.1;
        let t = ForceSplitTable::new(1.0, eps, 1024);
        // Force magnitude g(r) * r should not exceed the Plummer bound.
        let g0 = t.eval_r2(1e-8);
        assert!(g0.is_finite());
        assert!(g0 <= 1.0 / (eps * eps * eps) * 1.01);
    }

    #[test]
    fn monotone_decreasing_g() {
        let t = ForceSplitTable::new(1.0, 0.05, 2048);
        let mut prev = f64::INFINITY;
        for i in 1..700 {
            let r = i as f64 * 0.01;
            let g = t.eval_r2(r * r);
            assert!(g <= prev + 1e-12, "g not decreasing at r={r}");
            prev = g;
        }
    }
}
