//! Equation of state for the gas phase.

/// Ideal monatomic gas, `P = (gamma - 1) rho u`.
#[derive(Debug, Clone, Copy)]
pub struct IdealGas {
    /// Adiabatic index (5/3 for the monatomic primordial plasma).
    pub gamma: f64,
}

impl Default for IdealGas {
    fn default() -> Self {
        Self { gamma: 5.0 / 3.0 }
    }
}

impl IdealGas {
    /// Pressure from density and specific internal energy.
    #[inline]
    pub fn pressure(&self, rho: f64, u: f64) -> f64 {
        (self.gamma - 1.0) * rho * u.max(0.0)
    }

    /// Adiabatic sound speed `c = sqrt(gamma P / rho)`.
    #[inline]
    pub fn sound_speed(&self, rho: f64, u: f64) -> f64 {
        (self.gamma * self.pressure(rho, u) / rho.max(f64::MIN_POSITIVE)).sqrt()
    }

    /// Specific internal energy from temperature-like variable `P/rho`.
    #[inline]
    pub fn u_from_p_rho(&self, p: f64, rho: f64) -> f64 {
        p / ((self.gamma - 1.0) * rho.max(f64::MIN_POSITIVE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_linear_in_u() {
        let eos = IdealGas::default();
        assert!((eos.pressure(2.0, 3.0) - (2.0 / 3.0) * 2.0 * 3.0).abs() < 1e-12);
        assert_eq!(eos.pressure(2.0, -1.0), 0.0, "negative u clamps");
    }

    #[test]
    fn sound_speed_scaling() {
        let eos = IdealGas::default();
        // c^2 = gamma (gamma-1) u, independent of rho.
        let c1 = eos.sound_speed(1.0, 9.0);
        let c2 = eos.sound_speed(100.0, 9.0);
        assert!((c1 - c2).abs() < 1e-12);
        let expect = (5.0 / 3.0 * 2.0 / 3.0 * 9.0f64).sqrt();
        assert!((c1 - expect).abs() < 1e-12);
    }

    #[test]
    fn u_p_roundtrip() {
        let eos = IdealGas::default();
        let (rho, u) = (0.7, 11.0);
        let p = eos.pressure(rho, u);
        assert!((eos.u_from_p_rho(p, rho) - u).abs() < 1e-12);
    }
}
