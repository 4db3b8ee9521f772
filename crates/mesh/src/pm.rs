//! The end-to-end PM solver: deposit → forward FFT → Green's function ×
//! spectral gradient → inverse FFTs → interpolation at particle positions.
//!
//! Density and forces are real fields, so one solve runs on half spectra
//! (the bins `z <= n/2` of every z-row): a real forward transform of the
//! density, then two real inverses for the three force components —
//! `[F_x | F_y]` side by side in each z-row, one complex FFT per line
//! yielding both, and `F_z` with two rows per complex FFT. That needs every
//! force grid Hermitian, which the zeroed Nyquist gradient wavenumber of
//! [`crate::poisson`] guarantees.
//!
//! The mesh side of a solve shares each rank's CIC footprint once (one
//! `all_gather`); the deposit and the three force gathers are then sparse
//! rounds between each rank and the owners of its footprint's planes (see
//! [`crate::cic`]). A solve is 3 transposes, 1 all-gather and 4 sparse
//! exchanges.

use crate::cic;
use crate::poisson::{apply_greens_gradient_half, GreensOptions};
use hacc_ranks::Comm;
use hacc_swfft::{Complex64, DistFft3d};

/// Configuration of the PM gravity solve.
#[derive(Debug, Clone, Copy)]
pub struct PmConfig {
    /// Global mesh size per dimension.
    pub n: usize,
    /// Periodic box size (length units; Mpc/h in the simulation).
    pub box_size: f64,
    /// Poisson prefactor (e.g. `4 pi G`, or the comoving-cosmology factor).
    pub prefactor: f64,
    /// Gaussian force-split scale `r_s`; zero = plain (unsplit) PM.
    pub split_scale: f64,
    /// Deconvolve the CIC window.
    pub deconvolve_cic: bool,
}

impl PmConfig {
    /// A sensible default: split scale ~1.5 grid cells, CIC deconvolution
    /// on (HACC hands over to the short-range solver at a few grid cells).
    pub fn new(n: usize, box_size: f64, prefactor: f64) -> Self {
        Self {
            n,
            box_size,
            prefactor,
            split_scale: 1.5 * box_size / n as f64,
            deconvolve_cic: true,
        }
    }
}

/// Per-rank PM solver handle. Construct once per run (plans are cached),
/// call [`PmSolver::accelerations`] once per PM step.
#[derive(Debug)]
pub struct PmSolver {
    cfg: PmConfig,
    fft: DistFft3d,
}

impl PmSolver {
    /// Build the solver on this communicator.
    pub fn new(comm: &Comm, cfg: PmConfig) -> Self {
        let fft = DistFft3d::new(comm, cfg.n);
        Self { cfg, fft }
    }

    /// The configuration.
    pub fn config(&self) -> &PmConfig {
        &self.cfg
    }

    /// Deposit this rank's particles and return the local slab of the
    /// *mass* grid (sum of CIC-weighted masses per cell): the footprint
    /// exchange and one routed deposit ([`cic::deposit`]).
    pub fn mass_slab(
        &self,
        comm: &mut Comm,
        positions: &[[f64; 3]],
        masses: &[f64],
    ) -> Vec<f64> {
        cic::deposit(comm, self.cfg.n, self.cfg.box_size, positions, masses)
    }

    /// Long-range accelerations at this rank's particle positions.
    ///
    /// The returned vector is `-∇φ` per particle, with
    /// `∇²φ = prefactor · ρ` solved spectrally (ρ here is *mass per cell
    /// volume*: the deposit is normalized by the cell volume internally so
    /// the prefactor retains its physical meaning).
    pub fn accelerations(
        &self,
        comm: &mut Comm,
        positions: &[[f64; 3]],
        masses: &[f64],
    ) -> Vec<[f64; 3]> {
        let n = self.cfg.n;
        let cell_vol = (self.cfg.box_size / n as f64).powi(3);

        // 1. Share the footprints once for the deposit and all three
        //    gathers; deposit, converting mass -> density.
        let footprint = cic::needed_planes(n, self.cfg.box_size, positions);
        let requests = cic::PlaneRequests::exchange(comm, n, &footprint);
        let mut rho = requests.deposit(comm, self.cfg.box_size, positions, masses);
        for m in &mut rho {
            *m /= cell_vol;
        }

        // 2. Real forward FFT into the transposed half-spectrum layout.
        let mut fz = self.fft.forward_real(comm, rho);

        // 3. Green's function + spectral gradient: `fz` becomes F_z(k),
        //    F_x and F_y share the rows of a second grid.
        let opts = GreensOptions {
            prefactor: self.cfg.prefactor,
            split_scale: self.cfg.split_scale,
            deconvolve_cic: self.cfg.deconvolve_cic,
        };
        let fxy = apply_greens_gradient_half(
            &mut fz,
            n,
            self.fft.y0,
            self.fft.ny,
            self.cfg.box_size,
            &opts,
        );

        // 4. Two real inverse FFTs for three fields; each component's
        //    patches are gathered and interpolated in turn, so a rank holds
        //    one component's slab and patches at once.
        let mut accel = vec![[0.0f64; 3]; positions.len()];
        let mut interpolate_into = |comm: &mut Comm, d: usize, real: Vec<f64>| {
            let patches = requests.gather(comm, &real);
            let vals = cic::interpolate(n, self.cfg.box_size, positions, &patches);
            for (a, v) in accel.iter_mut().zip(vals) {
                a[d] = v;
            }
        };
        let [fx, fy] = self.fft.inverse_real(comm, fxy);
        interpolate_into(comm, 0, fx);
        interpolate_into(comm, 1, fy);
        let [fz] = self.fft.inverse_real(comm, fz);
        interpolate_into(comm, 2, fz);
        accel
    }

    /// The local k-space density grid (used by the P(k) analysis). Returns
    /// `(delta_k, y0, ny)` where `delta_k` is the half spectrum of the
    /// *overdensity* `delta = rho/rho_mean - 1`: layout B of
    /// [`DistFft3d::forward_real`], rows of the `n/2 + 1` bins `z <= n/2`.
    pub fn density_k(
        &self,
        comm: &mut Comm,
        positions: &[[f64; 3]],
        masses: &[f64],
    ) -> (Vec<Complex64>, usize, usize) {
        let n = self.cfg.n;
        let mut delta = self.mass_slab(comm, positions, masses);
        let local_mass: f64 = delta.iter().sum();
        let total_mass = comm.all_reduce_f64(local_mass, |a, b| a + b);
        let mean_per_cell = total_mass / (n * n * n) as f64;
        for m in &mut delta {
            *m = *m / mean_per_cell - 1.0;
        }
        (self.fft.forward_real(comm, delta), self.fft.y0, self.fft.ny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson::{apply_greens_gradient, short_range_fraction};
    use hacc_ranks::World;
    use hacc_rt::rand::{self, Rng, SeedableRng};

    /// Point-mass force test: PM long-range + analytic short-range residual
    /// should reconstruct Newton's 1/r² at separations of a few grid cells
    /// and beyond. This validates the separation-of-scales split end to
    /// end — the central algorithmic claim of the solver architecture.
    #[test]
    fn point_mass_force_matches_newton() {
        let n = 32;
        let box_size = 32.0;
        let g = 1.0; // work in G=1 units
        let results = World::run(2, |comm| {
            let cfg = PmConfig::new(n, box_size, 4.0 * std::f64::consts::PI * g);
            let solver = PmSolver::new(comm, cfg);
            // A unit mass at the box center (held by rank 0) and massless
            // test particles along x.
            let center = [16.0, 16.0, 16.0];
            let rs: Vec<f64> = (1..10).map(|i| i as f64).collect();
            let mut pos = vec![center];
            let mut mass = vec![1.0];
            if comm.rank() != 0 {
                pos.clear();
                mass.clear();
            }
            for &r in &rs {
                pos.push([16.0 + r, 16.0, 16.0]);
                mass.push(0.0);
            }
            let acc = solver.accelerations(comm, &pos, &mass);
            let start = pos.len() - rs.len();
            (comm.rank(), rs.clone(), acc[start..].to_vec(), cfg.split_scale)
        });
        for (_rank, rs, acc, split) in results {
            for (i, &r) in rs.iter().enumerate() {
                // Skip radii inside the handover region where the PM force
                // is intentionally soft (tree takes over there).
                if r < 3.0 * split {
                    continue;
                }
                let newton = 1.0 / (r * r);
                let lr = -acc[i][0]; // toward the center (negative x)
                let sr = newton * short_range_fraction(r, split);
                let total = lr + sr;
                let rel = (total - newton).abs() / newton;
                assert!(
                    rel < 0.12,
                    "r={r}: lr={lr:.5} sr={sr:.5} newton={newton:.5} rel={rel:.3}"
                );
                // Transverse components stay small.
                assert!(acc[i][1].abs() < 0.15 * newton);
                assert!(acc[i][2].abs() < 0.15 * newton);
            }
        }
    }

    /// The solve assembled from the public pieces, one inverse transform
    /// per force component: what `accelerations` must agree with.
    fn three_inverse_accelerations(
        comm: &mut Comm,
        solver: &PmSolver,
        positions: &[[f64; 3]],
        masses: &[f64],
    ) -> Vec<[f64; 3]> {
        let cfg = solver.config();
        let n = cfg.n;
        let cell_vol = (cfg.box_size / n as f64).powi(3);
        let fft = DistFft3d::new(comm, n);
        let mut rho: Vec<Complex64> = solver
            .mass_slab(comm, positions, masses)
            .iter()
            .map(|&m| Complex64::new(m / cell_vol, 0.0))
            .collect();
        fft.forward(comm, &mut rho);
        let opts = GreensOptions {
            prefactor: cfg.prefactor,
            split_scale: cfg.split_scale,
            deconvolve_cic: cfg.deconvolve_cic,
        };
        let force_k = apply_greens_gradient(&rho, n, fft.y0, fft.ny, cfg.box_size, &opts);
        let needed = cic::needed_planes(n, cfg.box_size, positions);
        let mut accel = vec![[0.0f64; 3]; positions.len()];
        for (d, mut comp) in force_k.into_iter().enumerate() {
            fft.inverse(comm, &mut comp);
            let real: Vec<f64> = comp.iter().map(|c| c.re).collect();
            let planes = cic::gather_planes(comm, n, &real, &needed);
            let vals = cic::interpolate(n, cfg.box_size, positions, &planes);
            for (a, v) in accel.iter_mut().zip(vals) {
                a[d] = v;
            }
        }
        accel
    }

    #[test]
    fn half_spectrum_solve_matches_three_inverses() {
        // Radix-2, even Bluestein and odd grids; even, uneven and (for
        // the 12- and 17-grids on 3 ranks) unequal slabs; plain PM, where
        // the Nyquist planes carry as much force as any other, and the
        // default split.
        let box_size = 20.0;
        for n in [16usize, 12, 17] {
            for ranks in [1usize, 2, 3] {
                for cells in [0.0, 1.5] {
                    let errs = World::run(ranks, |comm| {
                        let mut cfg = PmConfig::new(n, box_size, 4.0 * std::f64::consts::PI);
                        cfg.split_scale = cells * box_size / n as f64;
                        let solver = PmSolver::new(comm, cfg);
                        let mut rng = rand::rngs::StdRng::seed_from_u64(7 + comm.rank() as u64);
                        let pos: Vec<[f64; 3]> = (0..200)
                            .map(|_| [0; 3].map(|_| rng.gen_range(0.0..box_size)))
                            .collect();
                        let mass: Vec<f64> = pos.iter().map(|_| rng.gen_range(0.5..1.5)).collect();
                        let got = solver.accelerations(comm, &pos, &mass);
                        let want = three_inverse_accelerations(comm, &solver, &pos, &mass);
                        let max_abs = |v: &[[f64; 3]]| {
                            v.iter().flatten().map(|a| a.abs()).fold(0.0, f64::max)
                        };
                        let diff: Vec<[f64; 3]> = got
                            .iter()
                            .zip(&want)
                            .map(|(g, w)| [g[0] - w[0], g[1] - w[1], g[2] - w[2]])
                            .collect();
                        (max_abs(&diff), max_abs(&want))
                    });
                    let err = errs.iter().map(|e| e.0).fold(0.0, f64::max);
                    let scale = errs.iter().map(|e| e.1).fold(0.0, f64::max);
                    assert!(scale > 0.0);
                    assert!(
                        err <= 1e-12 * scale,
                        "n={n} ranks={ranks} split={cells} cells: {err:e} of {scale:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_density_gives_no_force() {
        let n = 16;
        let box_size = 16.0;
        let maxa = World::run(2, |comm| {
            let cfg = PmConfig::new(n, box_size, 1.0);
            let solver = PmSolver::new(comm, cfg);
            // One particle per cell on the exact lattice -> uniform grid.
            let mut pos = Vec::new();
            for x in 0..n {
                for y in 0..n {
                    for z in 0..n {
                        if (x + y + z) % comm.size() == comm.rank() {
                            pos.push([x as f64, y as f64, z as f64]);
                        }
                    }
                }
            }
            let mass = vec![1.0; pos.len()];
            let acc = solver.accelerations(comm, &pos, &mass);
            acc.iter()
                .flat_map(|a| a.iter().map(|v| v.abs()))
                .fold(0.0, f64::max)
        });
        for m in maxa {
            assert!(m < 1e-8, "residual force {m}");
        }
    }

    #[test]
    fn density_k_zero_mode_vanishes() {
        let n = 8;
        World::run(2, |comm| {
            let cfg = PmConfig::new(n, 8.0, 1.0);
            let solver = PmSolver::new(comm, cfg);
            let pos: Vec<[f64; 3]> = (0..20)
                .map(|i| {
                    let v = (i * 7 + comm.rank() * 3) % 8;
                    [v as f64, ((i * 3) % 8) as f64, ((i * 5) % 8) as f64]
                })
                .collect();
            let mass = vec![1.5; pos.len()];
            let (delta_k, y0, _ny) = solver.density_k(comm, &pos, &mass);
            if y0 == 0 {
                // k = 0 element lives at (ly=0, x=0, z=0) on the y0=0 rank.
                assert!(delta_k[0].abs() < 1e-9, "zero mode {:?}", delta_k[0]);
            }
        });
    }

    #[test]
    fn momentum_conservation_two_body() {
        // Equal masses: PM forces must be equal and opposite (discrete
        // translational symmetry of the mesh makes this hold to roundoff
        // when both particles sit on grid points).
        let n = 16;
        let accs = World::run(1, |comm| {
            let cfg = PmConfig::new(n, 16.0, 1.0);
            let solver = PmSolver::new(comm, cfg);
            let pos = vec![[4.0, 8.0, 8.0], [12.0, 8.0, 8.0]];
            let mass = vec![1.0, 1.0];
            solver.accelerations(comm, &pos, &mass)
        });
        let a = &accs[0];
        for d in 0..3 {
            assert!(
                (a[0][d] + a[1][d]).abs() < 1e-9,
                "momentum violation in component {d}"
            );
        }
    }
}
