//! Radiative cooling and UV-background heating.
//!
//! The cooling function is a smooth analytic fit to the familiar
//! primordial H/He curve (line-cooling peaks near 1.5×10⁴ K and 10⁵ K,
//! bremsstrahlung `∝ sqrt(T)` at high temperature) plus a metal-line term
//! scaling linearly with `Z/Z_sun` peaking near 10⁵·⁵ K — the shape that
//! CLOUDY tables give, good to factors of order unity, which is ample for
//! the thermodynamic *behaviour* (dense gas cools to the threshold, hot
//! cluster gas cools slowly, feedback-heated gas stays hot).

use hacc_units::constants::{rho_to_nh, u_to_temperature, Z_SOLAR, MU_IONIZED};

/// Seconds per Gyr over (cm per Mpc)... no — local helper: erg/s/cm³ to
/// (km/s)²/Gyr conversions are folded into [`CoolingModel::du_dt`].
const GYR_S: f64 = 3.155_76e16;

/// The cooling/heating model.
#[derive(Debug, Clone, Copy)]
pub struct CoolingModel {
    /// Reduced Hubble parameter (for unit conversions).
    pub h: f64,
    /// UV background photoheating floor temperature (K): gas below this is
    /// heated toward it after reionization.
    pub t_uv_floor: f64,
    /// Redshift of reionization (UV background switches on below this).
    pub z_reion: f64,
}

impl CoolingModel {
    /// Standard parameters.
    pub fn new(h: f64) -> Self {
        Self {
            h,
            t_uv_floor: 1.0e4,
            z_reion: 9.0,
        }
    }

    /// Cooling function `Λ(T, Z)` in erg cm³/s (normalized per `n_H²`).
    ///
    /// Piecewise-smooth analytic fit: no cooling below 10⁴ K (neutral),
    /// twin primordial peaks, bremsstrahlung tail, metal enhancement.
    pub fn lambda(&self, t_kelvin: f64, z_metal: f64) -> f64 {
        if t_kelvin < 1.0e4 {
            return 0.0;
        }
        let logt = t_kelvin.log10();
        // Primordial: two log-Gaussian peaks (H at 10^4.2, He at 10^5.1)
        // plus free-free.
        let peak = |log_center: f64, width: f64, amp: f64| {
            let x = (logt - log_center) / width;
            amp * (-x * x).exp()
        };
        let h_peak = peak(4.2, 0.25, 5.0e-23);
        let he_peak = peak(5.1, 0.35, 1.5e-23);
        let brems = 2.0e-27 * t_kelvin.sqrt();
        // Metal lines: broad peak near 10^5.5, linear in Z.
        let metals = (z_metal / Z_SOLAR) * peak(5.5, 0.6, 8.0e-23);
        h_peak + he_peak + brems + metals
    }

    /// Net specific-energy rate in `(km/s)²/Gyr` for gas with comoving
    /// density `rho`, specific energy `u` in `(km/s)²`, metallicity
    /// `z_metal` (mass fraction), at scale factor `a`.
    ///
    /// `du/dt = -Λ(T,Z) n_H² / rho_phys` converted to simulation units,
    /// plus UV heating toward the floor temperature after reionization.
    pub fn du_dt(&self, rho: f64, u: f64, z_metal: f64, a: f64) -> f64 {
        let t = u_to_temperature(u, MU_IONIZED);
        let nh = rho_to_nh(rho, a, self.h); // cm^-3 physical
        let lambda = self.lambda(t, z_metal);
        // Volumetric rate n_H^2 Λ (erg/s/cm^3) over physical mass density.
        // rho_phys [g/cm^3] = nh * m_p / X.
        let x_h = hacc_units::constants::HYDROGEN_MASS_FRAC;
        let rho_g_cm3 = nh * hacc_units::constants::M_PROTON_G / x_h;
        if rho_g_cm3 <= 0.0 {
            return 0.0;
        }
        // erg/g/s = cm^2/s^3 -> (km/s)^2/Gyr: 1e-10 * GYR_S.
        let cool = lambda * nh * nh / rho_g_cm3 * 1.0e-10 * GYR_S;
        let mut rate = -cool;
        // UV background: drive cold gas toward the floor on ~100 Myr.
        let z = 1.0 / a - 1.0;
        if z < self.z_reion && t < self.t_uv_floor {
            let u_floor =
                hacc_units::constants::temperature_to_u(self.t_uv_floor, MU_IONIZED);
            rate += (u_floor - u) / 0.1; // per Gyr
        }
        rate
    }

    /// Integrate cooling over `dt_gyr` with a stable scheme: explicit when
    /// the change is small, otherwise exponential decay toward the
    /// (implicit) equilibrium — never overshooting below the UV floor.
    pub fn cool_particle(&self, rho: f64, u: f64, z_metal: f64, a: f64, dt_gyr: f64) -> f64 {
        let rate = self.du_dt(rho, u, z_metal, a);
        if rate >= 0.0 {
            // Heating: bounded approach to the floor.
            let u_new = u + rate * dt_gyr;
            let u_floor =
                hacc_units::constants::temperature_to_u(self.t_uv_floor, MU_IONIZED);
            return u_new.min(u_floor.max(u));
        }
        let tau = -u / rate; // cooling time in Gyr
        let u_min = hacc_units::constants::temperature_to_u(
            if (1.0 / a - 1.0) < self.z_reion {
                self.t_uv_floor
            } else {
                100.0
            },
            MU_IONIZED,
        );
        let u_new = if dt_gyr < 0.1 * tau {
            u + rate * dt_gyr
        } else {
            // Exponential decay with the instantaneous cooling time.
            u * (-dt_gyr / tau).exp()
        };
        u_new.max(u_min.min(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_units::constants::{temperature_to_u, RHO_CRIT0};

    fn model() -> CoolingModel {
        CoolingModel::new(0.6766)
    }

    #[test]
    fn no_cooling_below_1e4() {
        let m = model();
        assert_eq!(m.lambda(5.0e3, 0.02), 0.0);
        assert!(m.lambda(2.0e4, 0.0) > 0.0);
    }

    #[test]
    fn lambda_peaks_then_brems_tail() {
        let m = model();
        // Peak region beats the high-T bremsstrahlung regime at 1e6K...
        let peak = m.lambda(2.0e5, 0.0);
        let mid = m.lambda(1.0e6, 0.0);
        assert!(peak > mid, "peak {peak} vs mid {mid}");
        // ...and brems grows again toward cluster temperatures.
        let hot = m.lambda(1.0e8, 0.0);
        assert!(hot > mid, "brems not rising: {hot} vs {mid}");
        // Magnitudes in the literature ballpark (1e-24..1e-22).
        assert!(peak > 1.0e-24 && peak < 1.0e-21);
    }

    #[test]
    fn metals_enhance_cooling() {
        let m = model();
        let t = 3.0e5;
        assert!(m.lambda(t, Z_SOLAR) > 2.0 * m.lambda(t, 0.0));
    }

    #[test]
    fn dense_gas_cools_faster() {
        let m = model();
        let u = temperature_to_u(1.0e6, MU_IONIZED);
        let rho_mean = 0.05 * RHO_CRIT0;
        let r1 = m.du_dt(rho_mean * 100.0, u, 0.0, 1.0);
        let r2 = m.du_dt(rho_mean * 10000.0, u, 0.0, 1.0);
        assert!(r1 < 0.0 && r2 < 0.0);
        // du/dt ~ n_H: 100x density -> ~100x rate.
        assert!((r2 / r1 - 100.0).abs() < 5.0, "ratio {}", r2 / r1);
    }

    #[test]
    fn cool_particle_never_goes_below_floor() {
        let m = model();
        let u0 = temperature_to_u(3.0e4, MU_IONIZED);
        let rho = 1.0e5 * RHO_CRIT0; // very dense: rapid cooling
        let u1 = m.cool_particle(rho, u0, 0.02, 1.0, 10.0);
        let u_floor = temperature_to_u(m.t_uv_floor, MU_IONIZED);
        assert!(u1 >= u_floor * 0.999, "u1 = {u1} < floor {u_floor}");
        assert!(u1 <= u0);
    }

    #[test]
    fn uv_heats_cold_gas_after_reionization() {
        let m = model();
        let u_cold = temperature_to_u(1.0e3, MU_IONIZED);
        let rho = 0.05 * RHO_CRIT0;
        // After reionization (a=0.5, z=1): heating.
        assert!(m.du_dt(rho, u_cold, 0.0, 0.5) > 0.0);
        // Before reionization (a=0.05, z=19): nothing (gas is neutral,
        // T < 1e4 -> no cooling either).
        assert_eq!(m.du_dt(rho, u_cold, 0.0, 0.05), 0.0);
    }

    #[test]
    fn explicit_and_implicit_branches_agree_for_small_steps() {
        let m = model();
        let u = temperature_to_u(2.0e6, MU_IONIZED);
        let rho = 1000.0 * 0.05 * RHO_CRIT0;
        // The cooling time `u / |du/dt|`.
        let tau = u / -m.du_dt(rho, u, 0.0, 1.0);
        let dt = 0.05 * tau;
        let explicit = u + m.du_dt(rho, u, 0.0, 1.0) * dt;
        let integrated = m.cool_particle(rho, u, 0.0, 1.0, dt);
        assert!((explicit / integrated - 1.0).abs() < 1e-9);
    }
}
