//! Simulation configuration.

use hacc_gpusim::{DeviceSpec, ExecMode};
use hacc_grav::CUTOFF_SPLIT_SCALES;
use hacc_units::CosmologyParams;

/// Hard cap on smoothing lengths, in units of the interparticle spacing.
/// Keeps the SPH support (`2 h`) inside the fixed chaining-mesh bin width
/// and the overload depth for the whole PM step.
pub(crate) const H_CAP_SPACING: f64 = 1.75;

/// Which physics modules run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Physics {
    /// Gravity-only N-body (the 16×-cheaper baseline of Section VI-B).
    GravityOnly,
    /// Full hydrodynamics with subgrid astrophysics.
    Hydro,
    /// Hydrodynamics without subgrid sources (adiabatic).
    HydroAdiabatic,
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Comoving box size, Mpc/h.
    pub box_size: f64,
    /// Particles per dimension *per species* (total gas = dm = np³ when
    /// hydro is on; gravity-only carries np³ particles).
    pub np: usize,
    /// Global PM mesh size per dimension.
    pub ngrid: usize,
    /// Cosmology.
    pub cosmology: CosmologyParams,
    /// Physics selection.
    pub physics: Physics,
    /// Initial scale factor.
    pub a_init: f64,
    /// Final scale factor.
    pub a_final: f64,
    /// Number of global PM steps.
    pub pm_steps: usize,
    /// Maximum subcycle rung (substeps per PM step = 2^max_rung).
    pub max_rung: u32,
    /// Force all particles onto the deepest rung (the paper's "low-z
    /// Flat" measurement mode).
    pub flat_stepping: bool,
    /// CFL coefficient for gas timesteps.
    pub cfl: f64,
    /// Gaussian force-split scale in units of PM cells.
    pub split_cells: f64,
    /// Plummer softening in units of the interparticle spacing.
    pub softening_frac: f64,
    /// SPH smoothing: h = eta * interparticle spacing.
    pub sph_eta: f64,
    /// Overload (ghost-zone) width in units of PM cells.
    pub overload_cells: f64,
    /// Simulated GPU device.
    pub device: DeviceSpec,
    /// Kernel formulation.
    pub exec_mode: ExecMode,
    /// In-situ analysis cadence (every k-th PM step; 0 disables).
    pub analysis_every: usize,
    /// Checkpoint cadence (every k-th PM step; 0 disables I/O).
    pub checkpoint_every: usize,
    /// Checkpoints retained on the PFS (the paper prunes with a
    /// time-window function; 2 at production scale).
    pub checkpoint_window: usize,
    /// Star-formation hydrogen-density threshold in cm⁻³ (production:
    /// 0.13; miniature boxes need a far lower value to resolve any
    /// star-forming gas at all).
    pub sf_nh_threshold: f64,
    /// RNG seed (initial conditions + stochastic subgrid).
    pub seed: u64,
    /// Scratch directory for I/O; `None` uses a temp dir.
    pub io_dir: Option<std::path::PathBuf>,
    /// Fault-injection spec (the `--chaos` flag; see
    /// `hacc_fault::FaultPlan::parse` for the grammar). `None` or an
    /// empty plan is one attempt with no fault probes armed.
    pub chaos: Option<String>,
    /// Run the world under the hacc-san dynamic sanitizer (the
    /// `--sanitize` flag): rank-privacy checks on annotated regions,
    /// MUST-style collective matching, p2p payload checks, and wait-graph
    /// deadlock detection. The findings report rides on [`SimReport`]
    /// and the telemetry golden section.
    ///
    /// [`SimReport`]: crate::driver::SimReport
    pub sanitize: bool,
    /// Read by nothing; kept for the pinned benchmark (see
    /// [`hacc_ranks::Backend`]).
    pub backend: Option<hacc_ranks::Backend>,
}

impl SimConfig {
    /// A small full-physics test box: `2 × np³` particles in
    /// `box_size = np` Mpc/h (1 Mpc/h interparticle spacing), sized so a
    /// laptop runs it in seconds.
    pub fn small(np: usize) -> Self {
        Self {
            box_size: np as f64,
            np,
            ngrid: np,
            cosmology: CosmologyParams::planck2018(),
            physics: Physics::Hydro,
            a_init: 0.1,
            a_final: 0.2,
            pm_steps: 4,
            max_rung: 2,
            flat_stepping: false,
            cfl: 0.25,
            // Aggressively short handover keeps the pair counts of tiny
            // test boxes tractable; production uses ~1.5 cells.
            split_cells: 0.5,
            softening_frac: 0.05,
            sph_eta: 1.6,
            overload_cells: 4.0,
            device: DeviceSpec::mi250x_gcd(),
            exec_mode: ExecMode::WarpSplit,
            analysis_every: 2,
            checkpoint_every: 1,
            checkpoint_window: 2,
            sf_nh_threshold: 1.0e-5,
            seed: 8675309,
            io_dir: None,
            chaos: None,
            sanitize: false,
            backend: None,
        }
    }

    /// The Frontier-E configuration (for documentation and machine-level
    /// extrapolation — not runnable at laptop scale).
    pub fn frontier_e() -> Self {
        Self {
            box_size: 4700.0 * 0.6766, // 4.7 Gpc in Mpc/h
            np: 12_600,
            ngrid: 12_600,
            cosmology: CosmologyParams::planck2018(),
            physics: Physics::Hydro,
            a_init: 1.0 / 201.0,
            a_final: 1.0,
            pm_steps: 625,
            max_rung: 6,
            flat_stepping: false,
            cfl: 0.25,
            split_cells: 1.5,
            softening_frac: 0.05,
            sph_eta: 2.0, // ~270 neighbors (Section IV-B1)
            overload_cells: 8.0,
            device: DeviceSpec::mi250x_gcd(),
            exec_mode: ExecMode::WarpSplit,
            analysis_every: 10,
            checkpoint_every: 1,
            checkpoint_window: 2,
            sf_nh_threshold: 0.13,
            seed: 42,
            io_dir: None,
            chaos: None,
            sanitize: false,
            backend: None,
        }
    }

    /// Kept for the pinned benchmark (see [`hacc_ranks::Backend`]).
    pub fn rank_backend(&self) -> hacc_ranks::Backend {
        hacc_ranks::Backend::Cooperative
    }

    /// PM cell size, Mpc/h.
    pub fn cell_size(&self) -> f64 {
        self.box_size / self.ngrid as f64
    }

    /// Mean interparticle spacing per species, Mpc/h.
    pub fn particle_spacing(&self) -> f64 {
        self.box_size / self.np as f64
    }

    /// Force-split scale `r_s` in Mpc/h.
    pub fn split_scale(&self) -> f64 {
        self.split_cells * self.cell_size()
    }

    /// Total particle count (both species for hydro).
    pub fn total_particles(&self) -> u64 {
        let per_species = (self.np as u64).pow(3);
        match self.physics {
            Physics::GravityOnly => per_species,
            _ => 2 * per_species,
        }
    }

    /// Scale-factor increment per PM step.
    pub fn da_pm(&self) -> f64 {
        (self.a_final - self.a_init) / self.pm_steps as f64
    }

    /// Check internal consistency; the error is a one-line description.
    pub fn check(&self) -> Result<(), String> {
        let rules = [
            (self.np >= 2 && self.ngrid >= 4, "problem too small"),
            (
                self.a_init > 0.0 && self.a_final > self.a_init,
                "need 0 < a_init < a_final",
            ),
            (self.pm_steps >= 1, "need at least one PM step"),
            (self.max_rung <= 10, "rung hierarchy too deep"),
            (
                self.overload_cells * self.cell_size()
                    >= CUTOFF_SPLIT_SCALES * self.split_scale() * 0.99,
                "overload must cover the short-range cutoff",
            ),
            // Past the overload a ghost would miss neighbours, and its
            // truncated density would feed the owned forces it sources.
            (
                self.physics == Physics::GravityOnly
                    || self.overload_cells * self.cell_size()
                        >= 2.0 * H_CAP_SPACING * self.particle_spacing(),
                "overload must cover the SPH support cap (2 x 1.75 particle spacings)",
            ),
            // A sanitizer report describes one world; a chaos plan's
            // rollbacks would span several.
            (
                !(self.sanitize && self.chaos.is_some()),
                "sanitize does not combine with chaos (use HACC_SAN=1)",
            ),
        ];
        match rules.iter().find(|(ok, _)| !ok) {
            Some((_, why)) => Err(format!("invalid configuration: {why}")),
            None => Ok(()),
        }
    }

    /// Check that a world of `n_ranks` can run this configuration; the
    /// error is a one-line description.
    pub fn check_ranks(&self, n_ranks: usize) -> Result<(), String> {
        if n_ranks == 0 {
            return Err("invalid configuration: need at least one rank".into());
        }
        // The overload exchange reaches nearest neighbours only, so the
        // overload cannot be wider than the thinnest subdomain.
        let dims = hacc_ranks::CartDecomp::new(n_ranks).dims;
        let extent = self.box_size / dims.into_iter().max().unwrap_or(1) as f64;
        let width = self.overload_cells * self.cell_size();
        if width > extent + 1e-12 {
            return Err(format!(
                "invalid configuration: overload width {width} exceeds the subdomain \
                 extent {extent:.2} of {n_ranks} ranks"
            ));
        }
        Ok(())
    }

    /// [`check`](Self::check), panicking with the description.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_valid() {
        SimConfig::small(16).validate();
    }

    #[test]
    fn frontier_matches_paper_numbers() {
        let c = SimConfig::frontier_e();
        // 2 x 12,600^3 particles = 4.0 trillion.
        let total = c.total_particles() as f64;
        assert!((total / 4.0e12 - 1.0).abs() < 0.01, "total = {total:.3e}");
        // 12,600^3 = two trillion PM cells.
        let cells = (c.ngrid as f64).powi(3);
        assert!((cells / 2.0e12 - 1.0).abs() < 0.01);
        // 625 PM steps.
        assert_eq!(c.pm_steps, 625);
    }

    #[test]
    fn derived_scales() {
        let c = SimConfig::small(16);
        assert!((c.cell_size() - 1.0).abs() < 1e-12);
        assert!((c.split_scale() - 0.5).abs() < 1e-12);
        assert_eq!(c.total_particles(), 2 * 16u64.pow(3));
        let mut g = c.clone();
        g.physics = Physics::GravityOnly;
        assert_eq!(g.total_particles(), 16u64.pow(3));
    }

    #[test]
    #[should_panic(expected = "overload")]
    fn validation_catches_thin_overload() {
        let mut c = SimConfig::small(16);
        c.overload_cells = 1.0;
        c.validate();
    }

    #[test]
    fn rank_check_bounds_the_overload_by_the_subdomain() {
        // 16 cells of 1 Mpc/h, overload 4 cells.
        let c = SimConfig::small(16);
        assert!(c.check_ranks(0).unwrap_err().contains("at least one rank"));
        for n in [1, 2, 4, 8, 64] {
            assert_eq!(c.check_ranks(n), Ok(()), "{n} ranks");
        }
        // 5x1x1 leaves 3.2 cells per subdomain; 5x5x5 likewise.
        for n in [5, 125] {
            let e = c.check_ranks(n).unwrap_err();
            assert!(e.contains("exceeds the subdomain extent"), "{e}");
        }
    }

    #[test]
    fn hydro_overload_must_cover_the_sph_support_cap() {
        // A PM grid twice as fine as the particle lattice halves the
        // overload (4 cells = 2 spacings) under the 3.5-spacing support
        // cap, while the gravity cutoff (7 x 0.5 cells) still fits.
        let mut c = SimConfig::small(16);
        c.ngrid = 32;
        let e = c.check().unwrap_err();
        assert!(e.contains("SPH support cap"), "{e}");
        c.physics = Physics::HydroAdiabatic;
        assert!(c.check().unwrap_err().contains("SPH support cap"));
        c.physics = Physics::GravityOnly;
        assert_eq!(c.check(), Ok(()));
        // At the cap itself the overload is wide enough.
        let mut c = SimConfig::small(16);
        c.overload_cells = 3.5;
        assert_eq!(c.check(), Ok(()));
        c.overload_cells = 3.49;
        assert!(c.check().unwrap_err().contains("SPH support cap"));
    }

    #[test]
    #[should_panic(expected = "sanitize does not combine with chaos")]
    fn validation_rejects_sanitize_with_chaos() {
        let mut c = SimConfig::small(16);
        c.sanitize = true;
        c.chaos = Some("panic@1:0".into());
        c.validate();
    }
}
