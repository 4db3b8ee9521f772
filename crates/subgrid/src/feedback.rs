//! Supernova feedback and chemical enrichment.
//!
//! Each newly formed stellar population promptly returns core-collapse
//! supernova energy and metals to its neighborhood (CRK-HACC applies
//! thermal dumps to the gas neighbors of the star). Canonical budget:
//! 10⁵¹ erg per ~100 M_sun of stars formed, metal yield ~2% of the
//! stellar mass, and ~10% mass return.

use hacc_units::constants::M_SUN_G;

/// Supernova feedback parameters.
#[derive(Debug, Clone, Copy)]
pub struct SupernovaModel {
    /// Energy per stellar mass formed, in `(km/s)²` (specific energy of
    /// the *stellar* mass; multiply by the star mass for the budget).
    pub energy_per_mass: f64,
    /// Metal mass yield per stellar mass formed.
    pub metal_yield: f64,
    /// Gas mass returned per stellar mass formed.
    pub mass_return: f64,
}

impl SupernovaModel {
    /// Canonical budget: 1e51 erg per 100 M_sun.
    pub fn new() -> Self {
        // 1e51 erg / (100 Msun) in (km/s)^2:
        // 1e51 erg / (100 * 1.989e33 g) = 5.03e15 cm^2/s^2 = 5.03e5 (km/s)^2.
        let e = 1.0e51 / (100.0 * M_SUN_G) * 1.0e-10;
        Self {
            energy_per_mass: e,
            metal_yield: 0.02,
            mass_return: 0.10,
        }
    }

    /// Total energy budget (mass × specific energy) of a star particle of
    /// mass `m_star`, in `(km/s)² × mass` units.
    pub fn energy_budget(&self, m_star: f64) -> f64 {
        self.energy_per_mass * m_star
    }

    /// Distribute the dump over gas neighbors with kernel weights `w`
    /// (need not be normalized) and masses `m_gas`: returns the per-
    /// neighbor specific-energy increments `du_j` and metal-mass
    /// increments `dZm_j` (metal mass, to be folded into the metallicity).
    pub fn distribute(
        &self,
        m_star: f64,
        weights: &[f64],
        m_gas: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(weights.len(), m_gas.len());
        let wsum: f64 = weights.iter().sum();
        let e_tot = self.energy_budget(m_star);
        let zm_tot = self.metal_yield * m_star;
        if wsum <= 0.0 || weights.is_empty() {
            return (vec![0.0; weights.len()], vec![0.0; weights.len()]);
        }
        let mut du = Vec::with_capacity(weights.len());
        let mut dz = Vec::with_capacity(weights.len());
        for (&w, &m) in weights.iter().zip(m_gas) {
            let frac = w / wsum;
            du.push(e_tot * frac / m.max(f64::MIN_POSITIVE));
            dz.push(zm_tot * frac);
        }
        (du, dz)
    }
}

impl Default for SupernovaModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_energy_scale() {
        let m = SupernovaModel::new();
        // 1e51 erg / 100 Msun ~ 5e5 (km/s)^2.
        assert!(
            m.energy_per_mass > 4.0e5 && m.energy_per_mass < 6.0e5,
            "e = {}",
            m.energy_per_mass
        );
    }

    #[test]
    fn distribution_conserves_energy_and_metals() {
        let m = SupernovaModel::new();
        let m_star = 3.0e6;
        let weights = vec![0.5, 1.5, 2.0, 0.25];
        let m_gas = vec![1.0e6, 2.0e6, 0.5e6, 3.0e6];
        let (du, dz) = m.distribute(m_star, &weights, &m_gas);
        let e_given: f64 = du.iter().zip(&m_gas).map(|(du, m)| du * m).sum();
        assert!((e_given / m.energy_budget(m_star) - 1.0).abs() < 1e-12);
        let z_given: f64 = dz.iter().sum();
        assert!((z_given / (m.metal_yield * m_star) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heavier_weights_receive_more() {
        let m = SupernovaModel::new();
        let (du, _) = m.distribute(1.0e6, &[1.0, 3.0], &[1.0e6, 1.0e6]);
        assert!(du[1] > du[0]);
        assert!((du[1] / du[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_neighborhood_is_safe() {
        let m = SupernovaModel::new();
        let (du, dz) = m.distribute(1.0e6, &[], &[]);
        assert!(du.is_empty() && dz.is_empty());
        let (du2, _) = m.distribute(1.0e6, &[0.0, 0.0], &[1.0, 1.0]);
        assert_eq!(du2, vec![0.0, 0.0]);
    }
}
