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
//! [`distributed_ics`] is the driver's generator: one collective on the
//! solver's slab transform ([`DistFft3d`]), two all-to-alls in all. Each
//! rank draws the white noise of its own x-planes from the seed's one
//! stream, walked past the draws of the planes ahead of its slab, so every
//! site's noise is the same whoever draws it. `forward_real` takes it to
//! the half spectrum; each mode is coloured and turned into the three
//! displacement components side by side, and one `inverse_real::<3>`
//! brings them back. The rank then makes the particles of the lattice
//! sites in its planes — not homed: the `migrate` that opens step 0 sends
//! each to its owner. [`displacement_field`] / [`generate_ics`] are the
//! serial whole-box reference it is tested against.

use crate::config::{Physics, SimConfig};
use crate::kicks::KickDrift;
use crate::particles::{ParticleRecord, ParticleStore, Species};
use hacc_ranks::{CartDecomp, Comm};
use hacc_rt::rand::rngs::StdRng;
use hacc_rt::rand::{Rng, SeedableRng};
use hacc_swfft::dist::half_width;
use hacc_swfft::serial::fft3;
use hacc_swfft::{Complex64, DistFft3d, FftPlan};
use hacc_units::constants::{temperature_to_u, MU_NEUTRAL, RHO_CRIT0};
use hacc_units::{Background, LinearPower};

/// The three real-space displacement component grids.
pub struct DisplacementField {
    /// Grid size per dimension.
    pub n: usize,
    /// `ψ_x, ψ_y, ψ_z`, flattened `[(x*n + y)*n + z]`, already scaled by
    /// the growth factor at `a_init` (comoving Mpc/h).
    pub psi: [Vec<f64>; 3],
}

/// The two uniform draws of one lattice site's white noise.
fn site_draws(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

/// One site's unit-variance white noise: Box–Muller over its draws.
fn white_noise(rng: &mut StdRng) -> f64 {
    let (u1, u2) = site_draws(rng);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// What turns a white-noise mode into displacements: `δ_k = white_k ·
/// √(P(k) n³/V) · D(a_init)`, then `ψ_k = i g δ_k / k²`.
struct Colouring<'a> {
    power: &'a LinearPower,
    n: usize,
    kf: f64,
    ncells: f64,
    volume: f64,
    d_init: f64,
}

impl<'a> Colouring<'a> {
    fn new(cfg: &SimConfig, bg: &Background, power: &'a LinearPower) -> Self {
        Self {
            power,
            n: cfg.np,
            kf: 2.0 * std::f64::consts::PI / cfg.box_size,
            ncells: (cfg.np * cfg.np * cfg.np) as f64,
            volume: cfg.box_size.powi(3),
            d_init: bg.growth_factor(cfg.a_init),
        }
    }

    /// The wavenumber of FFT bin `i`.
    fn k(&self, i: usize) -> f64 {
        let m = if i <= self.n / 2 { i as f64 } else { i as f64 - self.n as f64 };
        self.kf * m
    }

    /// The three displacement components of the mode with wavenumbers `k`
    /// and gradient wavenumbers `g`; the `k = 0` mode stays zero.
    fn mode(&self, white: Complex64, k: [f64; 3], g: [f64; 3]) -> [Complex64; 3] {
        let k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
        if k2 == 0.0 {
            return [Complex64::zero(); 3];
        }
        let amp = (self.power.pk(k2.sqrt()) * self.ncells / self.volume).sqrt() * self.d_init;
        let delta = white.scale(amp);
        let i_delta = Complex64::new(-delta.im, delta.re);
        g.map(|g| i_delta.scale(g / k2))
    }
}

/// Generate the Zel'dovich displacement field for the whole box at
/// `a_init` (deterministic in `seed`): the serial reference.
pub fn displacement_field(cfg: &SimConfig, bg: &Background) -> DisplacementField {
    let n = cfg.np;
    let ncells = n * n * n;
    let power = LinearPower::new(cfg.cosmology);
    let colour = Colouring::new(cfg, bg, &power);

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut white: Vec<Complex64> =
        (0..ncells).map(|_| Complex64::new(white_noise(&mut rng), 0.0)).collect();
    // FFT the noise (Hermitian by construction since input is real).
    let plan = FftPlan::new(n);
    fft3(&plan, &mut white, false);

    // The gradient wavenumber keeps the Nyquist bin: its anti-Hermitian
    // part is imaginary in real space, and `Re` below drops it.
    let mut psi_k = [(); 3].map(|()| vec![Complex64::zero(); ncells]);
    for x in 0..n {
        for y in 0..n {
            for z in 0..n {
                let idx = (x * n + y) * n + z;
                let k = [colour.k(x), colour.k(y), colour.k(z)];
                let psi = colour.mode(white[idx], k, k);
                for (grid, p) in psi_k.iter_mut().zip(psi) {
                    grid[idx] = p;
                }
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

/// The particles of one lattice site: dark matter at `q + ψ(q)` and, with
/// hydro, gas half a cell further, both with the Zel'dovich momentum.
struct Lattice {
    n: usize,
    spacing: f64,
    box_size: f64,
    hydro: bool,
    m_dm: f64,
    m_gas: f64,
    u_init: f64,
    h_smooth: f64,
    kd: KickDrift,
    a: f64,
    growth_rate: f64,
}

impl Lattice {
    fn new(cfg: &SimConfig, bg: &Background) -> Self {
        let n = cfg.np;
        let c = cfg.cosmology;
        let spacing = cfg.particle_spacing();
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
        Self {
            n,
            spacing,
            box_size: cfg.box_size,
            hydro,
            m_dm,
            m_gas,
            // Neutral IGM at ~100 K (typical post-recombination
            // temperature at these redshifts; precise value is irrelevant
            // — gravity dominates).
            u_init: temperature_to_u(100.0, MU_NEUTRAL),
            h_smooth: cfg.sph_eta * spacing,
            kd: KickDrift::new(c),
            a: cfg.a_init,
            growth_rate: bg.growth_rate(cfg.a_init),
        }
    }

    /// Append site `q`'s particles, displaced by `psi`.
    fn place(&self, store: &mut ParticleStore, q: [usize; 3], psi: [f64; 3]) {
        let site_id = ((q[0] * self.n + q[1]) * self.n + q[2]) as u64;
        let q = q.map(|i| i as f64 * self.spacing);
        // The growth factor is already folded into psi, so growth = 1.
        let vel = psi.map(|p| self.kd.zeldovich_momentum(self.a, 1.0, self.growth_rate, p));
        let pos = |offset: f64| {
            std::array::from_fn(|d| (q[d] + offset + psi[d]).rem_euclid(self.box_size))
        };
        let dm = ParticleRecord {
            pos: pos(0.0),
            vel,
            mass: self.m_dm,
            species: Species::DarkMatter,
            u: 0.0,
            metals: 0.0,
            h: 0.0,
            id: 2 * site_id,
        };
        store.insert(dm);
        if self.hydro {
            store.insert(ParticleRecord {
                pos: pos(0.5 * self.spacing),
                mass: self.m_gas,
                species: Species::Gas,
                u: self.u_init,
                h: self.h_smooth,
                id: 2 * site_id + 1,
                ..dm
            });
        }
    }
}

/// This rank's initial particles from the serial whole-box field: the
/// sites of its subdomain.
pub fn generate_ics(
    cfg: &SimConfig,
    bg: &Background,
    decomp: &CartDecomp,
    rank: usize,
) -> ParticleStore {
    let field = displacement_field(cfg, bg);
    let n = field.n;
    let lattice = Lattice::new(cfg, bg);
    let (lo, hi) = decomp.subdomain(rank);
    let inside = |d: usize, i: usize| {
        let q = i as f64 * lattice.spacing;
        q >= lo[d] * cfg.box_size && q < hi[d] * cfg.box_size
    };
    let mut store = ParticleStore::new();
    for qx in (0..n).filter(|&i| inside(0, i)) {
        for qy in (0..n).filter(|&i| inside(1, i)) {
            for qz in (0..n).filter(|&i| inside(2, i)) {
                let idx = (qx * n + qy) * n + qz;
                let psi = field.psi.each_ref().map(|c| c[idx]);
                lattice.place(&mut store, [qx, qy, qz], psi);
            }
        }
    }
    store.seal_owned();
    store
}

/// This rank's share of the initial particles, generated together by the
/// whole world (a collective: every rank calls it): the sites of its
/// x-planes of `DistFft3d::new(comm, cfg.np)`, none on a rank without
/// planes. The union over ranks is the same particles, bit for bit, on
/// any rank count, and matches [`generate_ics`] to roundoff.
pub fn distributed_ics(
    cfg: &SimConfig,
    bg: &Background,
    power: &LinearPower,
    comm: &mut Comm,
) -> ParticleStore {
    let n = cfg.np;
    let fft = DistFft3d::new(comm, n);
    // A rank without planes draws nothing; the others walk the stream to
    // their first plane.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let ahead = if fft.nx == 0 { 0 } else { fft.x0 * n * n };
    for _ in 0..ahead {
        site_draws(&mut rng);
    }
    let white: Vec<f64> = (0..fft.local_len()).map(|_| white_noise(&mut rng)).collect();
    let white_k = fft.forward_real(comm, white);

    // Layout B rows `(y, x)` of the bins `z <= n/2`; the three components
    // go side by side in rows of `3w`. The gradient wavenumber is zero on
    // the Nyquist plane of an even grid, as in the PM solve, so each
    // component is Hermitian — the part the serial `Re` keeps.
    let colour = Colouring::new(cfg, bg, power);
    let w = half_width(n);
    let grad = |i: usize| if 2 * i == n { 0.0 } else { colour.k(i) };
    let mut psi_k = vec![Complex64::zero(); 3 * white_k.len()];
    for (r, (row, out)) in white_k.chunks_exact(w).zip(psi_k.chunks_exact_mut(3 * w)).enumerate() {
        let (y, x) = (fft.y0 + r / n, r % n);
        for (z, &white) in row.iter().enumerate() {
            let k = [colour.k(x), colour.k(y), colour.k(z)];
            let psi = colour.mode(white, k, [grad(x), grad(y), grad(z)]);
            for (f, p) in psi.into_iter().enumerate() {
                out[f * w + z] = p;
            }
        }
    }
    drop(white_k);
    let psi = fft.inverse_real::<3>(comm, psi_k);

    let lattice = Lattice::new(cfg, bg);
    let mut store = ParticleStore::new();
    for i in 0..fft.local_len() {
        let q = [fft.x0 + i / (n * n), i / n % n, i % n];
        lattice.place(&mut store, q, psi.each_ref().map(|c| c[i]));
    }
    store.seal_owned();
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_ranks::World;

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

    /// One particle's full state: id, species, and the bits of position,
    /// velocity, mass, u and h.
    type Row = (u64, Species, [u64; 9]);

    fn rows(s: &ParticleStore) -> Vec<Row> {
        (0..s.len())
            .map(|i| {
                let (p, v) = (s.pos[i], s.vel[i]);
                let words = [p[0], p[1], p[2], v[0], v[1], v[2], s.mass[i], s.u[i], s.h[i]];
                (s.id[i], s.species[i], words.map(f64::to_bits))
            })
            .collect()
    }

    /// The union over a `ranks`-rank world of the distributed ICs, sorted
    /// by id, with the number of ranks that made no particle.
    fn distributed_union(cfg: &SimConfig, ranks: usize) -> (Vec<Row>, usize) {
        let bg = Background::new(cfg.cosmology);
        let power = LinearPower::new(cfg.cosmology);
        let per_rank = World::run(ranks, |comm| rows(&distributed_ics(cfg, &bg, &power, comm)));
        let empty = per_rank.iter().filter(|r| r.is_empty()).count();
        let mut all: Vec<Row> = per_rank.into_iter().flatten().collect();
        all.sort_by_key(|r| r.0);
        (all, empty)
    }

    #[test]
    fn distributed_ics_are_the_serial_reference_on_any_world() {
        // Radix-2, even and odd Bluestein lattices at spacing 1; even,
        // uneven and (64 ranks on n <= 32) plane-less slabs.
        for n in [12usize, 16, 17, 32] {
            for physics in [Physics::Hydro, Physics::GravityOnly] {
                let mut cfg = SimConfig::small(n);
                cfg.physics = physics;
                let bg = Background::new(cfg.cosmology);
                let mut serial = rows(&generate_ics(&cfg, &bg, &CartDecomp::new(1), 0));
                serial.sort_by_key(|r| r.0);
                let v_scale = serial
                    .iter()
                    .flat_map(|r| r.2[3..6].iter().map(|&b| f64::from_bits(b).abs()))
                    .fold(0.0, f64::max);
                let mut first: Option<Vec<Row>> = None;
                for ranks in [1usize, 2, 3, 4, 8, 64] {
                    let (got, empty) = distributed_union(&cfg, ranks);
                    assert_eq!(empty, ranks.saturating_sub(n), "n={n} ranks={ranks}");
                    // Every lattice id exactly once.
                    let ids: Vec<u64> = got.iter().map(|r| r.0).collect();
                    let per_site = if physics == Physics::GravityOnly { 1 } else { 2 };
                    let all_ids: Vec<u64> = (0..(n * n * n) as u64)
                        .flat_map(|s| (0..per_site).map(move |k| 2 * s + k))
                        .collect();
                    assert_eq!(ids, all_ids, "n={n} ranks={ranks} {physics:?}");
                    for (g, s) in got.iter().zip(&serial) {
                        assert_eq!(g.1, s.1, "n={n} ranks={ranks}: species");
                        let (g, s) = (g.2.map(f64::from_bits), s.2.map(f64::from_bits));
                        for d in 0..3 {
                            // Positions wrap at the box edge.
                            let dx = (g[d] - s[d]).abs();
                            let dx = dx.min(cfg.box_size - dx);
                            assert!(dx <= 1e-14, "n={n} ranks={ranks}: position {dx:e}");
                            let dv = (g[3 + d] - s[3 + d]).abs();
                            assert!(dv <= 1e-14 * v_scale, "n={n} ranks={ranks}: velocity {dv:e}");
                        }
                        assert_eq!(g[6..], s[6..], "n={n} ranks={ranks}: mass, species, u, h");                    }
                    // Bitwise the same particles whatever the rank count.
                    match &first {
                        None => first = Some(got),
                        Some(one) => assert!(*one == got, "n={n}: {ranks} ranks differ from 1"),
                    }
                }
            }
        }
    }
}
