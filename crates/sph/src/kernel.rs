//! SPH interpolation kernels (3-D, compact support of radius `2h`).
//!
//! The kernel values are generic over the scalar of the pair kernels
//! that call them ([`hacc_gpusim::Real`]); at `f64` each body is the
//! plain `f64` expression.

use hacc_gpusim::Real;
use std::f64::consts::PI;

/// An SPH smoothing kernel in three dimensions, parameterized by the
/// scaled separation `q = r / h`, with support `q < 2`.
pub trait SphKernel: Sync + Copy {
    /// Kernel value `W(r, h)` (units 1/length³).
    fn w<T: Real>(&self, r: T, h: T) -> T;
    /// Radial derivative `dW/dr` (units 1/length⁴); `<= 0` everywhere.
    fn dw_dr<T: Real>(&self, r: T, h: T) -> T;
    /// Support radius in units of `h` (2 for both kernels here).
    fn support(&self) -> f64 {
        2.0
    }
    /// Fused `(W, dW/dr)` evaluation. The default forwards to the two
    /// single-value methods; kernel implementations override it to share
    /// `q = r/h`, the support branch, and normalization subexpressions.
    /// Overrides must return exactly the values the single-value methods
    /// return (bitwise) — the symmetric-tile force kernel relies on it.
    fn w_dw<T: Real>(&self, r: T, h: T) -> (T, T) {
        (self.w(r, h), self.dw_dr(r, h))
    }
}

/// The classic M4 cubic spline (Monaghan & Lattanzio 1985), normalization
/// `sigma = 1/(pi h^3)` with support `2h`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CubicSpline;

impl SphKernel for CubicSpline {
    fn w<T: Real>(&self, r: T, h: T) -> T {
        let q = r / h;
        let sigma = T::c(1.0) / (T::c(PI) * h * h * h);
        if q < T::c(1.0) {
            sigma * (T::c(1.0) - T::c(1.5) * q * q + T::c(0.75) * q * q * q)
        } else if q < T::c(2.0) {
            let t = T::c(2.0) - q;
            sigma * T::c(0.25) * t * t * t
        } else {
            T::c(0.0)
        }
    }

    fn dw_dr<T: Real>(&self, r: T, h: T) -> T {
        let q = r / h;
        let sigma = T::c(1.0) / (T::c(PI) * h * h * h * h);
        if q < T::c(1.0) {
            sigma * (T::c(-3.0) * q + T::c(2.25) * q * q)
        } else if q < T::c(2.0) {
            let t = T::c(2.0) - q;
            sigma * (T::c(-0.75) * t * t)
        } else {
            T::c(0.0)
        }
    }

    // Shares q, the branch, and the h^3 normalization denominator.
    // `1/(pi*h*h*h*h) == 1/((pi*h*h*h)*h)` exactly (left-associative
    // products), so both components stay bitwise identical to the
    // single-value methods.
    fn w_dw<T: Real>(&self, r: T, h: T) -> (T, T) {
        let q = r / h;
        let d3 = T::c(PI) * h * h * h;
        let sigma = T::c(1.0) / d3;
        let sigma4 = T::c(1.0) / (d3 * h);
        if q < T::c(1.0) {
            (
                sigma * (T::c(1.0) - T::c(1.5) * q * q + T::c(0.75) * q * q * q),
                sigma4 * (T::c(-3.0) * q + T::c(2.25) * q * q),
            )
        } else if q < T::c(2.0) {
            let t = T::c(2.0) - q;
            (sigma * T::c(0.25) * t * t * t, sigma4 * (T::c(-0.75) * t * t))
        } else {
            (T::c(0.0), T::c(0.0))
        }
    }
}

/// Wendland C4 kernel (Dehnen & Aly 2012 normalization, support `2h`),
/// the smoother choice CRKSPH favors for production cosmology.
#[derive(Debug, Clone, Copy, Default)]
pub struct WendlandC4;

impl SphKernel for WendlandC4 {
    fn w<T: Real>(&self, r: T, h: T) -> T {
        let q = r / (T::c(2.0) * h); // Wendland literature uses support = 1
        if q >= T::c(1.0) {
            return T::c(0.0);
        }
        // sigma for 3D C4 on unit support: 495/(32 pi); rescale to 2h.
        let sigma = T::c(495.0) / (T::c(32.0 * PI) * (T::c(2.0) * h).powi(3));
        let omq = T::c(1.0) - q;
        let omq2 = omq * omq;
        let omq6 = omq2 * omq2 * omq2;
        sigma * omq6 * (T::c(1.0) + T::c(6.0) * q + T::c(35.0 / 3.0) * q * q)
    }

    fn dw_dr<T: Real>(&self, r: T, h: T) -> T {
        let s = T::c(2.0) * h;
        let q = r / s;
        if q >= T::c(1.0) {
            return T::c(0.0);
        }
        let sigma = T::c(495.0) / (T::c(32.0 * PI) * s * s * s);
        let omq = T::c(1.0) - q;
        let omq2 = omq * omq;
        let omq5 = omq2 * omq2 * omq;
        // d/dq [ (1-q)^6 (1 + 6q + 35/3 q^2) ]
        //  = (1-q)^5 [ -6(1+6q+35/3 q^2) + (1-q)(6 + 70/3 q) ]
        let dpoly = omq5
            * (T::c(-6.0) * (T::c(1.0) + T::c(6.0) * q + T::c(35.0 / 3.0) * q * q)
                + omq * (T::c(6.0) + T::c(70.0 / 3.0) * q));
        sigma * dpoly / s
    }

    // Shares q and the (1-q) powers; each component keeps its original
    // normalization expression verbatim so the results stay bitwise
    // identical to the single-value methods ((2h).powi(3) and s*s*s
    // associate differently and must not be cross-substituted).
    fn w_dw<T: Real>(&self, r: T, h: T) -> (T, T) {
        let s = T::c(2.0) * h;
        let q = r / s;
        if q >= T::c(1.0) {
            return (T::c(0.0), T::c(0.0));
        }
        let sigma_w = T::c(495.0) / (T::c(32.0 * PI) * (T::c(2.0) * h).powi(3));
        let sigma_d = T::c(495.0) / (T::c(32.0 * PI) * s * s * s);
        let omq = T::c(1.0) - q;
        let omq2 = omq * omq;
        let omq6 = omq2 * omq2 * omq2;
        let omq5 = omq2 * omq2 * omq;
        let w = sigma_w * omq6 * (T::c(1.0) + T::c(6.0) * q + T::c(35.0 / 3.0) * q * q);
        let dpoly = omq5
            * (T::c(-6.0) * (T::c(1.0) + T::c(6.0) * q + T::c(35.0 / 3.0) * q * q)
                + omq * (T::c(6.0) + T::c(70.0 / 3.0) * q));
        (w, sigma_d * dpoly / s)
    }
}

/// Numerically integrate the kernel over its support (validation helper).
pub fn kernel_volume_integral<K: SphKernel>(k: &K, h: f64, n: usize) -> f64 {
    // Spherical shells: int 4 pi r^2 W dr.
    let rmax = k.support() * h;
    let dr = rmax / n as f64;
    let mut total = 0.0;
    for i in 0..n {
        let r = (i as f64 + 0.5) * dr;
        total += 4.0 * PI * r * r * k.w(r, h) * dr;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubic_spline_normalized() {
        let v = kernel_volume_integral(&CubicSpline, 1.0, 20_000);
        assert!((v - 1.0).abs() < 1e-6, "integral = {v}");
        let v2 = kernel_volume_integral(&CubicSpline, 0.37, 20_000);
        assert!((v2 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn wendland_c4_normalized() {
        let v = kernel_volume_integral(&WendlandC4, 1.0, 20_000);
        assert!((v - 1.0).abs() < 1e-5, "integral = {v}");
    }

    #[test]
    fn compact_support() {
        for h in [0.5, 1.0, 2.0] {
            assert_eq!(CubicSpline.w(2.0 * h, h), 0.0);
            assert_eq!(CubicSpline.w(2.5 * h, h), 0.0);
            assert_eq!(WendlandC4.w(2.0 * h, h), 0.0);
            assert_eq!(CubicSpline.dw_dr(2.01 * h, h), 0.0);
            assert_eq!(WendlandC4.dw_dr(2.01 * h, h), 0.0);
        }
    }

    #[test]
    fn kernels_positive_inside_support() {
        for i in 1..100 {
            let r = i as f64 * 0.0199;
            assert!(CubicSpline.w(r, 1.0) > 0.0, "cubic at {r}");
            assert!(WendlandC4.w(r, 1.0) > 0.0, "wendland at {r}");
        }
    }

    #[test]
    fn gradient_nonpositive_and_matches_finite_difference() {
        let eps = 1e-6;
        for kchoice in 0..2 {
            for i in 1..40 {
                let r = i as f64 * 0.05;
                let (w_lo, w_hi, dw) = if kchoice == 0 {
                    (
                        CubicSpline.w(r - eps, 1.0),
                        CubicSpline.w(r + eps, 1.0),
                        CubicSpline.dw_dr(r, 1.0),
                    )
                } else {
                    (
                        WendlandC4.w(r - eps, 1.0),
                        WendlandC4.w(r + eps, 1.0),
                        WendlandC4.dw_dr(r, 1.0),
                    )
                };
                let fd = (w_hi - w_lo) / (2.0 * eps);
                assert!(dw <= 1e-12, "kernel {kchoice} dw>0 at r={r}");
                assert!(
                    (dw - fd).abs() < 1e-4,
                    "kernel {kchoice} grad mismatch at r={r}: {dw} vs {fd}"
                );
            }
        }
    }

    #[test]
    fn fused_w_dw_is_bitwise_identical() {
        for h in [0.37, 0.5, 1.0, 1.3, 2.0] {
            for i in 0..220 {
                let r = i as f64 * 0.01 * h; // sweeps both branches + cutoff
                let (wc, dc) = CubicSpline.w_dw(r, h);
                assert_eq!(wc, CubicSpline.w(r, h), "cubic w at r={r} h={h}");
                assert_eq!(dc, CubicSpline.dw_dr(r, h), "cubic dw at r={r} h={h}");
                let (ww, dw) = WendlandC4.w_dw(r, h);
                assert_eq!(ww, WendlandC4.w(r, h), "wendland w at r={r} h={h}");
                assert_eq!(dw, WendlandC4.dw_dr(r, h), "wendland dw at r={r} h={h}");
            }
        }
    }

    #[test]
    fn peak_at_origin() {
        assert!(CubicSpline.w(0.0, 1.0) > CubicSpline.w(0.5, 1.0));
        assert!(WendlandC4.w(0.0, 1.0) > WendlandC4.w(0.5, 1.0));
    }

    #[test]
    fn scaling_with_h() {
        // W(0, h) ~ h^-3.
        let r = CubicSpline.w(0.0, 1.0) / CubicSpline.w(0.0, 2.0);
        assert!((r - 8.0).abs() < 1e-12);
    }
}
