//! FLRW background cosmology: expansion history and growth factor.

use crate::constants::H0_HKM_S_MPC;
use crate::interp::InterpTable;

/// Parameters of a flat (w0, wa) dark-energy cosmology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosmologyParams {
    /// Total matter density parameter today (CDM + baryons).
    pub omega_m: f64,
    /// Baryon density parameter today.
    pub omega_b: f64,
    /// Dark-energy density parameter today (flatness fixes it in `new`).
    pub omega_de: f64,
    /// Radiation density parameter today (photons + massless neutrinos).
    pub omega_r: f64,
    /// Reduced Hubble constant `h = H0 / (100 km/s/Mpc)`.
    pub h: f64,
    /// Scalar spectral index of the primordial power spectrum.
    pub n_s: f64,
    /// Power-spectrum normalization: rms linear fluctuation in 8 Mpc/h
    /// spheres at z = 0.
    pub sigma8: f64,
    /// Dark-energy equation of state today.
    pub w0: f64,
    /// Dark-energy equation-of-state evolution (CPL).
    pub wa: f64,
}

impl CosmologyParams {
    /// Planck-2018-like parameters (the Frontier-E fiducial family).
    pub fn planck2018() -> Self {
        let omega_m = 0.3096;
        let omega_r = 7.79e-5;
        Self {
            omega_m,
            omega_b: 0.04897,
            omega_de: 1.0 - omega_m - omega_r,
            omega_r,
            h: 0.6766,
            n_s: 0.9665,
            sigma8: 0.8102,
            w0: -1.0,
            wa: 0.0,
        }
    }

    /// An Einstein–de Sitter universe (useful for analytic tests:
    /// `D(a) = a` exactly).
    pub fn einstein_de_sitter() -> Self {
        Self {
            omega_m: 1.0,
            omega_b: 0.05,
            omega_de: 0.0,
            omega_r: 0.0,
            h: 0.7,
            n_s: 1.0,
            sigma8: 0.8,
            w0: -1.0,
            wa: 0.0,
        }
    }

    /// Dimensionless Hubble rate squared,
    /// `E^2(a) = H^2(a)/H0^2 = Om a^-3 + Or a^-4 + Ode f(a)`,
    /// with the CPL dark-energy factor
    /// `f(a) = a^{-3(1+w0+wa)} exp(-3 wa (1-a))`.
    #[inline]
    pub fn e2(&self, a: f64) -> f64 {
        debug_assert!(a > 0.0);
        let de_exp = -3.0 * (1.0 + self.w0 + self.wa);
        let de = self.omega_de * a.powf(de_exp) * (-3.0 * self.wa * (1.0 - a)).exp();
        self.omega_m / (a * a * a) + self.omega_r / (a * a * a * a) + de
    }

    /// `E(a) = H(a)/H0`.
    #[inline]
    pub fn e(&self, a: f64) -> f64 {
        self.e2(a).sqrt()
    }

    /// Hubble rate in `h km/s/Mpc` (i.e. H(a)/h).
    #[inline]
    pub fn hubble(&self, a: f64) -> f64 {
        H0_HKM_S_MPC * self.e(a)
    }
}

/// Precomputed background: growth factor and growth rate on a log-`a`
/// grid with interpolation, so the hot simulation loop never integrates
/// ODEs.
#[derive(Debug, Clone)]
pub struct Background {
    params: CosmologyParams,
    growth: InterpTable,
    growth_rate: InterpTable,
}

const A_MIN: f64 = 1.0e-3;
const N_GRID: usize = 512;

impl Background {
    /// Tabulate the background for `a` in `[1e-3, 1]`.
    pub fn new(params: CosmologyParams) -> Self {
        let ln_a_min = A_MIN.ln();
        let ln_a_max = 0.0f64;
        let dlna = (ln_a_max - ln_a_min) / (N_GRID - 1) as f64;
        let lnas: Vec<f64> = (0..N_GRID).map(|i| ln_a_min + dlna * i as f64).collect();

        // Growth ODE in ln a: D'' + (2 + dlnE/dlna) D' - 1.5 Om(a) D = 0.
        // Integrate with RK4 from deep in matter domination where D ~ a.
        let mut d = A_MIN;
        let mut dp = A_MIN; // dD/dlna = a in matter domination
        let mut growth_vals = Vec::with_capacity(N_GRID);
        let mut rate_vals = Vec::with_capacity(N_GRID);
        let deriv = |lna: f64, d: f64, dp: f64| -> (f64, f64) {
            let a = lna.exp();
            let e2 = params.e2(a);
            // dlnE/dlna = (1/2) dlnE2/dlna computed analytically.
            let de_exp = -3.0 * (1.0 + params.w0 + params.wa);
            let de = params.omega_de
                * a.powf(de_exp)
                * (-3.0 * params.wa * (1.0 - a)).exp();
            let dde_dlna = de * (de_exp + 3.0 * params.wa * a);
            let dlne2 = (-3.0 * params.omega_m / (a * a * a)
                - 4.0 * params.omega_r / (a * a * a * a)
                + dde_dlna)
                / e2;
            let om_a = params.omega_m / (a * a * a) / e2;
            let dpp = -(2.0 + 0.5 * dlne2) * dp + 1.5 * om_a * d;
            (dp, dpp)
        };
        for (i, &lna) in lnas.iter().enumerate() {
            growth_vals.push(d);
            rate_vals.push(dp / d); // f = dlnD/dlna
            if i + 1 < N_GRID {
                // RK4 step.
                let h = dlna;
                let (k1d, k1p) = deriv(lna, d, dp);
                let (k2d, k2p) = deriv(lna + 0.5 * h, d + 0.5 * h * k1d, dp + 0.5 * h * k1p);
                let (k3d, k3p) = deriv(lna + 0.5 * h, d + 0.5 * h * k2d, dp + 0.5 * h * k2p);
                let (k4d, k4p) = deriv(lna + h, d + h * k3d, dp + h * k3p);
                d += h / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d);
                dp += h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p);
            }
        }
        // growth_vals always holds at least the a-start sample pushed before the loop
        let d0 = *growth_vals.last().unwrap();
        for v in &mut growth_vals {
            *v /= d0;
        }

        Self {
            params,
            growth: InterpTable::new(lnas.clone(), growth_vals),
            growth_rate: InterpTable::new(lnas, rate_vals),
        }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &CosmologyParams {
        &self.params
    }

    /// Linear growth factor normalized to `D(a=1) = 1`.
    pub fn growth_factor(&self, a: f64) -> f64 {
        self.growth.eval(a.ln())
    }

    /// Logarithmic growth rate `f = dlnD/dlna`.
    pub fn growth_rate(&self, a: f64) -> f64 {
        self.growth_rate.eval(a.ln())
    }

}

/// Composite-Simpson integration of `f` over `[lo, hi]` with `n` panels
/// (rounded up to even).
pub fn integrate<F: Fn(f64) -> f64>(f: F, lo: f64, hi: f64, n: usize) -> f64 {
    let n = (n + n % 2).max(2);
    let h = (hi - lo) / n as f64;
    let mut s = f(lo) + f(hi);
    for i in 1..n {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        s += w * f(lo + h * i as f64);
    }
    s * h / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_today_is_one() {
        let c = CosmologyParams::planck2018();
        assert!((c.e2(1.0) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eds_growth_is_scale_factor() {
        let bg = Background::new(CosmologyParams::einstein_de_sitter());
        for &a in &[0.01, 0.1, 0.3, 0.5, 0.9, 1.0] {
            let d = bg.growth_factor(a);
            assert!(
                (d / a - 1.0).abs() < 5e-3,
                "EdS growth should be D=a: a={a} D={d}"
            );
        }
    }

    #[test]
    fn eds_growth_rate_is_unity() {
        let bg = Background::new(CosmologyParams::einstein_de_sitter());
        for &a in &[0.05, 0.2, 0.7] {
            assert!((bg.growth_rate(a) - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn lcdm_growth_suppressed_late() {
        // Dark energy suppresses growth: D(0.5) > 0.5 * D(1)/1 scaled...
        // concretely D(a)/a should decrease towards a=1.
        let bg = Background::new(CosmologyParams::planck2018());
        let r_early = bg.growth_factor(0.1) / 0.1;
        let r_late = bg.growth_factor(1.0) / 1.0;
        assert!(r_early > r_late);
        // Planck LCDM: D(a=0.5) ~ 0.61.
        let d_half = bg.growth_factor(0.5);
        assert!((d_half - 0.61).abs() < 0.03, "D(0.5) = {d_half}");
    }

    #[test]
    fn simpson_integrates_polynomial_exactly() {
        let v = integrate(|x| 3.0 * x * x, 0.0, 2.0, 4);
        assert!((v - 8.0).abs() < 1e-12);
    }
}
