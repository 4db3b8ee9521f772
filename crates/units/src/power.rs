//! Normalized linear matter power spectrum.
//!
//! `P(k, a) = A k^{n_s} T^2(k) D^2(a)`, with the amplitude `A` fixed by the
//! rms linear fluctuation `sigma8` in spheres of radius 8 Mpc/h at a = 1.

use crate::cosmology::{integrate, CosmologyParams};
use crate::transfer::eisenstein_hu_no_wiggle;

/// Linear matter power spectrum in `(Mpc/h)^3` for `k` in `h/Mpc`.
#[derive(Debug, Clone)]
pub struct LinearPower {
    params: CosmologyParams,
    amplitude: f64,
}

/// Spherical top-hat window in Fourier space, `W(x) = 3 (sin x - x cos x)/x^3`.
#[inline]
pub fn tophat_window(x: f64) -> f64 {
    if x < 0.05 {
        // Taylor expansion avoids catastrophic cancellation at small x:
        // W = 1 - x^2/10 + x^4/280 + O(x^6).
        1.0 - x * x / 10.0 + x * x * x * x / 280.0
    } else {
        3.0 * (x.sin() - x * x.cos()) / (x * x * x)
    }
}

impl LinearPower {
    /// Build the spectrum, normalizing to `params.sigma8`.
    pub fn new(params: CosmologyParams) -> Self {
        let mut p = Self {
            params,
            amplitude: 1.0,
        };
        let s8_unnorm = p.sigma_r(8.0);
        p.amplitude = (params.sigma8 / s8_unnorm).powi(2);
        p
    }

    /// The underlying cosmological parameters.
    pub fn params(&self) -> &CosmologyParams {
        &self.params
    }

    /// P(k) at a = 1 in `(Mpc/h)^3`, `k` in `h/Mpc`.
    pub fn pk(&self, k: f64) -> f64 {
        if k <= 0.0 {
            return 0.0;
        }
        let t = eisenstein_hu_no_wiggle(&self.params, k);
        self.amplitude * k.powf(self.params.n_s) * t * t
    }

    /// rms linear fluctuation in top-hat spheres of radius `r` Mpc/h:
    /// `sigma^2(R) = (1/2pi^2) int dk k^2 P(k) W^2(kR)`.
    pub fn sigma_r(&self, r: f64) -> f64 {
        // Integrate in ln k over a generous range.
        let integrand = |lnk: f64| {
            let k = lnk.exp();
            let w = tophat_window(k * r);
            k * k * k * self.pk(k) * w * w
        };
        let v = integrate(integrand, (1.0e-5f64).ln(), (50.0f64).ln(), 4096);
        (v / (2.0 * std::f64::consts::PI * std::f64::consts::PI)).sqrt()
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma8_normalization_roundtrip() {
        let c = CosmologyParams::planck2018();
        let p = LinearPower::new(c);
        assert!((p.sigma_r(8.0) / c.sigma8 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn window_limits() {
        assert!((tophat_window(0.0) - 1.0).abs() < 1e-12);
        assert!(tophat_window(10.0).abs() < 0.05);
        // Taylor branch agrees with the exact formula at the switch point.
        let x = 0.050_001; // just above the switch: exact branch
        let exact = tophat_window(x);
        let taylor = 1.0 - x * x / 10.0 + x * x * x * x / 280.0;
        assert!(
            (exact - taylor).abs() < 1e-10,
            "branch mismatch {:.3e}",
            (exact - taylor).abs()
        );
    }

    #[test]
    fn pk_peak_location() {
        // LCDM P(k) peaks near k ~ 0.015-0.025 h/Mpc.
        let p = LinearPower::new(CosmologyParams::planck2018());
        let mut best_k = 0.0;
        let mut best_p = 0.0;
        for i in 0..400 {
            let k = 1.0e-4 * 10f64.powf(i as f64 * 0.01);
            let v = p.pk(k);
            if v > best_p {
                best_p = v;
                best_k = k;
            }
        }
        assert!(best_k > 0.005 && best_k < 0.05, "peak at k = {best_k}");
    }

    #[test]
    fn sigma_decreases_with_radius() {
        let p = LinearPower::new(CosmologyParams::planck2018());
        let s4 = p.sigma_r(4.0);
        let s8 = p.sigma_r(8.0);
        let s16 = p.sigma_r(16.0);
        assert!(s4 > s8 && s8 > s16);
    }
}
