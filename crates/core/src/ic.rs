//! Zel'dovich initial conditions.
//!
//! A Gaussian random field is sampled from the linear power spectrum,
//! converted to displacement fields `ψ = ∇∇⁻²δ`, and applied to the
//! particle lattice at `a_init`:
//!
//! ```text
//! x = q + D(a) ψ(q),      p = a² H(a) f(a) D(a) ψ(q)
//! ```
//!
//! Gas and dark-matter particles share the lattice, with the gas offset
//! by half a cell and masses split by `Ω_b / Ω_m` (the paper's "equal
//! number of baryonic and dark matter tracer particles").
//!
//! Scale note: each rank generates the (identical, same-seed) global
//! displacement grid and keeps its own particles — duplicated work that
//! is trivial at ≤128³ and removes a distributed transpose from the IC
//! path. The production code distributes this; the physics is identical.

use crate::config::{Physics, SimConfig};
use crate::kicks::KickDrift;
use crate::particles::{ParticleStore, Species};
use hacc_ranks::CartDecomp;
use hacc_swfft::serial::fft3;
use hacc_swfft::{Complex64, FftPlan};
use hacc_units::constants::{temperature_to_u, MU_NEUTRAL, RHO_CRIT0};
use hacc_units::{Background, LinearPower};
use hacc_rt::rand::{self, Rng, SeedableRng};

/// The three real-space displacement component grids.
pub struct DisplacementField {
    /// Grid size per dimension.
    pub n: usize,
    /// `ψ_x, ψ_y, ψ_z`, flattened `[(x*n + y)*n + z]`, already scaled by
    /// the growth factor at `a_init` (comoving Mpc/h).
    pub psi: [Vec<f64>; 3],
}

/// Generate the Zel'dovich displacement field for the whole box at
/// `a_init` (deterministic in `seed`).
pub fn displacement_field(cfg: &SimConfig, bg: &Background) -> DisplacementField {
    let n = cfg.np;
    let ncells = n * n * n;
    let volume = cfg.box_size.powi(3);
    let power = LinearPower::new(cfg.cosmology);
    let d_init = bg.growth_factor(cfg.a_init);

    // White noise, unit variance.
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut white: Vec<Complex64> = (0..ncells)
        .map(|_| {
            // Box-Muller for a standard normal.
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            Complex64::new(g, 0.0)
        })
        .collect();

    // FFT the noise (Hermitian by construction since input is real).
    let plan = FftPlan::new(n);
    fft3(&plan, &mut white, false);

    // Color by sqrt(P(k)) and convert to displacement components.
    let kf = 2.0 * std::f64::consts::PI / cfg.box_size;
    let signed = |i: usize| -> f64 {
        if i <= n / 2 {
            i as f64
        } else {
            i as f64 - n as f64
        }
    };
    let mut psi_k: [Vec<Complex64>; 3] = [
        vec![Complex64::zero(); ncells],
        vec![Complex64::zero(); ncells],
        vec![Complex64::zero(); ncells],
    ];
    // Color the noise by sqrt(P(k)); the k = 0 mode stays zero.
    let [px, py, pz] = &mut psi_k;
    for x in 0..n {
        let kx = kf * signed(x);
        for y in 0..n {
            let ky = kf * signed(y);
            for z in 0..n {
                let kz = kf * signed(z);
                let k2 = kx * kx + ky * ky + kz * kz;
                if k2 == 0.0 {
                    continue;
                }
                let idx = (x * n + y) * n + z;
                let k = k2.sqrt();
                // delta_k = white_k * sqrt(P(k) N^3 / V), growth
                // factor folded in.
                let amp = (power.pk(k) * ncells as f64 / volume).sqrt() * d_init;
                let delta = white[idx].scale(amp);
                // psi_k = i k / k^2 * delta_k.
                let i_delta = Complex64::new(-delta.im, delta.re);
                px[idx] = i_delta.scale(kx / k2);
                py[idx] = i_delta.scale(ky / k2);
                pz[idx] = i_delta.scale(kz / k2);
            }
        }
    }
    drop(white);

    let psi = psi_k.map(|mut comp| {
        fft3(&plan, &mut comp, true);
        comp.iter().map(|c| c.re).collect::<Vec<f64>>()
    });
    DisplacementField { n, psi }
}

/// Generate this rank's initial particles.
pub fn generate_ics(
    cfg: &SimConfig,
    bg: &Background,
    decomp: &CartDecomp,
    rank: usize,
) -> ParticleStore {
    let field = displacement_field(cfg, bg);
    let n = field.n;
    let kd = KickDrift::new(cfg.cosmology);
    let a = cfg.a_init;
    let growth_rate = bg.growth_rate(a);
    let spacing = cfg.particle_spacing();
    let c = cfg.cosmology;

    // Mean masses: total matter = Omega_m rho_crit V split over np^3
    // sites; hydro runs split each site's mass into a DM + gas pair.
    let total_mass = c.omega_m * RHO_CRIT0 * cfg.box_size.powi(3);
    let site_mass = total_mass / (n as f64).powi(3);
    let fb = c.omega_b / c.omega_m;
    let hydro = cfg.physics != Physics::GravityOnly;
    let (m_dm, m_gas) = if hydro {
        (site_mass * (1.0 - fb), site_mass * fb)
    } else {
        (site_mass, 0.0)
    };
    // Neutral IGM at ~100 K (typical post-recombination temperature at
    // these redshifts; precise value is irrelevant — gravity dominates).
    let u_init = temperature_to_u(100.0, MU_NEUTRAL);
    let h_smooth = cfg.sph_eta * spacing;

    let (lo, hi) = decomp.subdomain(rank);
    let lo = [lo[0] * cfg.box_size, lo[1] * cfg.box_size, lo[2] * cfg.box_size];
    let hi = [hi[0] * cfg.box_size, hi[1] * cfg.box_size, hi[2] * cfg.box_size];

    let mut store = ParticleStore::new();
    // The growth factor is already folded into psi; the momentum needs
    // D(a) * psi as well, so pass growth = 1 and psi_scaled here.
    for qx in 0..n {
        let q0 = qx as f64 * spacing;
        if q0 < lo[0] || q0 >= hi[0] {
            continue;
        }
        for qy in 0..n {
            let q1 = qy as f64 * spacing;
            if q1 < lo[1] || q1 >= hi[1] {
                continue;
            }
            for qz in 0..n {
                let q2 = qz as f64 * spacing;
                if q2 < lo[2] || q2 >= hi[2] {
                    continue;
                }
                let idx = (qx * n + qy) * n + qz;
                let psi = [field.psi[0][idx], field.psi[1][idx], field.psi[2][idx]];
                let site_id = idx as u64;
                let mut place = |offset: f64, species: Species, mass: f64, u: f64, id: u64| {
                    let mut pos = [0.0f64; 3];
                    let mut vel = [0.0f64; 3];
                    for d in 0..3 {
                        let q = [q0, q1, q2][d] + offset;
                        pos[d] = (q + psi[d]).rem_euclid(cfg.box_size);
                        vel[d] = kd.zeldovich_momentum(a, 1.0, growth_rate, psi[d]);
                    }
                    let hs = if species == Species::Gas { h_smooth } else { 0.0 };
                    store.push(pos, vel, mass, species, u, hs, id);
                };
                place(0.0, Species::DarkMatter, m_dm, 0.0, 2 * site_id);
                if hydro {
                    place(0.5 * spacing, Species::Gas, m_gas, u_init, 2 * site_id + 1);
                }
            }
        }
    }
    store.seal_owned();
    store
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(np: usize) -> SimConfig {
        let mut c = SimConfig::small(np);
        c.box_size = 64.0; // coarser spacing: visible displacements
        c
    }

    #[test]
    fn displacements_have_sane_amplitude() {
        let cfg = test_cfg(16);
        let bg = Background::new(cfg.cosmology);
        let f = displacement_field(&cfg, &bg);
        let rms: f64 = (f.psi[0].iter().map(|v| v * v).sum::<f64>()
            / f.psi[0].len() as f64)
            .sqrt();
        // Nonzero but well below the 4 Mpc/h spacing at a = 0.1.
        assert!(rms > 0.01 && rms < 4.0, "rms displacement {rms}");
    }

    #[test]
    fn displacement_field_deterministic() {
        let cfg = test_cfg(8);
        let bg = Background::new(cfg.cosmology);
        let f1 = displacement_field(&cfg, &bg);
        let f2 = displacement_field(&cfg, &bg);
        assert_eq!(f1.psi[0], f2.psi[0]);
    }

    #[test]
    fn displacement_mean_is_zero() {
        // The k = 0 mode is nulled, so each component averages to zero.
        let cfg = test_cfg(8);
        let bg = Background::new(cfg.cosmology);
        let f = displacement_field(&cfg, &bg);
        for comp in &f.psi {
            let mean: f64 = comp.iter().sum::<f64>() / comp.len() as f64;
            assert!(mean.abs() < 1e-10, "mean {mean}");
        }
    }

    #[test]
    fn ranks_partition_all_sites() {
        let cfg = test_cfg(8);
        let bg = Background::new(cfg.cosmology);
        let decomp = CartDecomp::new(4);
        let mut ids = Vec::new();
        let mut total_mass = 0.0;
        for r in 0..4 {
            let s = generate_ics(&cfg, &bg, &decomp, r);
            ids.extend(s.id.iter().copied());
            total_mass += s.mass.iter().sum::<f64>();
        }
        // 2 species x 8^3 sites, all unique.
        assert_eq!(ids.len(), 2 * 512);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2 * 512);
        // Total mass = Omega_m rho_crit V.
        let expect = cfg.cosmology.omega_m * RHO_CRIT0 * cfg.box_size.powi(3);
        assert!((total_mass / expect - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gas_dm_mass_ratio_is_baryon_fraction() {
        let cfg = test_cfg(8);
        let bg = Background::new(cfg.cosmology);
        let decomp = CartDecomp::new(1);
        let s = generate_ics(&cfg, &bg, &decomp, 0);
        let m_gas: f64 = s
            .indices_of(Species::Gas)
            .iter()
            .map(|&i| s.mass[i])
            .sum();
        let m_dm: f64 = s
            .indices_of(Species::DarkMatter)
            .iter()
            .map(|&i| s.mass[i])
            .sum();
        let fb = cfg.cosmology.omega_b / cfg.cosmology.omega_m;
        assert!((m_gas / (m_gas + m_dm) - fb).abs() < 1e-12);
    }

    #[test]
    fn momentum_tracks_displacement() {
        // Zel'dovich: p = a^2 H f * (applied displacement), exactly,
        // component by component (displacement = pos - lattice site,
        // modulo the periodic wrap and the half-cell gas offset).
        let cfg = test_cfg(8);
        let bg = Background::new(cfg.cosmology);
        let decomp = CartDecomp::new(1);
        let s = generate_ics(&cfg, &bg, &decomp, 0);
        let kd = KickDrift::new(cfg.cosmology);
        let a = cfg.a_init;
        let factor = a * a * kd.hubble(a) * bg.growth_rate(a);
        let spacing = cfg.particle_spacing();
        for (i, &id) in s.id.iter().enumerate().take(100) {
            if s.species[i] != Species::DarkMatter {
                continue;
            }
            let site = (id / 2) as usize;
            let q = [
                (site / 64) as f64 * spacing,
                ((site / 8) % 8) as f64 * spacing,
                (site % 8) as f64 * spacing,
            ];
            for d in 0..3 {
                let mut disp = s.pos[i][d] - q[d];
                // Undo periodic wrap.
                if disp > cfg.box_size / 2.0 {
                    disp -= cfg.box_size;
                }
                if disp < -cfg.box_size / 2.0 {
                    disp += cfg.box_size;
                }
                let expect = factor * disp;
                assert!(
                    (s.vel[i][d] - expect).abs() < 1e-9 * factor.abs().max(1.0),
                    "particle {i} dim {d}: {} vs {expect}",
                    s.vel[i][d]
                );
            }
        }
    }

    #[test]
    fn gravity_only_has_single_species() {
        let mut cfg = test_cfg(8);
        cfg.physics = Physics::GravityOnly;
        let bg = Background::new(cfg.cosmology);
        let s = generate_ics(&cfg, &bg, &CartDecomp::new(1), 0);
        assert_eq!(s.len(), 512);
        assert!(s.species.iter().all(|&sp| sp == Species::DarkMatter));
    }
}
