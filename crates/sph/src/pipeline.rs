//! The per-rank CRKSPH evaluation pipeline: three kernel launches over the
//! chaining-mesh interaction list, plus the per-particle correction solve
//! and equation of state.
//!
//! Forces are computed for the *sinks* only — the particle prefix
//! `[0, n_sinks)` whose result the caller reads (a rank's owned gas; the
//! overload ghosts behind it are sources). The force launch sweeps the
//! sub-list of leaf pairs that hold a sink; density, moments and velocity
//! gradients sweep the full list, because a sink's force reads those
//! fields of every neighbour, ghost or not. [`sph_step`] is the all-sinks
//! form.

use crate::crk::{solve_corrections, CrkCorrections, Moments};
use crate::eos::IdealGas;
use crate::hydro::{
    DensityKernel, ForceAccum, ForceKernel, ForceState, GeomState, HydroOptions, MomentsKernel,
    VelGradAccum, VelGradKernel, VelGradState,
};
use crate::kernel::SphKernel;
use hacc_gpusim::{sweep, DeviceSpec, ExecMode, KernelCounters};
use hacc_tree::{ChainingMesh, LeafId};

/// SoA views of the gas particles on this rank (original ordering).
#[derive(Debug, Clone, Copy)]
pub struct SphInput<'a> {
    /// Positions.
    pub pos: &'a [[f64; 3]],
    /// Velocities.
    pub vel: &'a [[f64; 3]],
    /// Masses.
    pub mass: &'a [f64],
    /// Smoothing lengths.
    pub h: &'a [f64],
    /// Specific internal energies.
    pub u: &'a [f64],
}

impl<'a> SphInput<'a> {
    /// Number of particles; panics if the SoA arrays disagree.
    pub fn len(&self) -> usize {
        let n = self.pos.len();
        assert_eq!(self.vel.len(), n);
        assert_eq!(self.mass.len(), n);
        assert_eq!(self.h.len(), n);
        assert_eq!(self.u.len(), n);
        n
    }

    /// True when there are no particles.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }
}

/// Configuration of one hydro evaluation.
#[derive(Debug, Clone, Copy)]
pub struct SphConfig<K: SphKernel> {
    /// Interpolation kernel.
    pub kernel: K,
    /// Equation of state.
    pub eos: IdealGas,
    /// Viscosity options.
    pub opts: HydroOptions,
    /// Simulated device executing the kernels.
    pub device: DeviceSpec,
    /// Kernel formulation (warp-split in production; naive for ablations).
    pub mode: ExecMode,
}

impl<K: SphKernel + Default> SphConfig<K> {
    /// Production defaults on an MI250X GCD with warp splitting.
    pub fn new() -> Self {
        Self {
            kernel: K::default(),
            eos: IdealGas::default(),
            opts: HydroOptions::default(),
            device: DeviceSpec::mi250x_gcd(),
            mode: ExecMode::WarpSplit,
        }
    }
}

impl<K: SphKernel + Default> Default for SphConfig<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// Counters per pipeline stage.
#[derive(Debug, Clone, Default)]
pub struct SphCounters {
    /// Density launch.
    pub density: KernelCounters,
    /// Moments launch (plus the per-particle correction solves).
    pub moments: KernelCounters,
    /// Velocity-gradient launch (Balsara limiter; zero when disabled).
    pub velgrad: KernelCounters,
    /// Force launch.
    pub force: KernelCounters,
}

impl SphCounters {
    /// Total FLOPs across the hydro stages.
    pub fn total_flops(&self) -> u64 {
        self.density.flops + self.moments.flops + self.velgrad.flops + self.force.flops
    }

    /// Merged counters (for whole-step utilization).
    pub fn merged(&self) -> KernelCounters {
        let mut c = self.density.clone();
        c.merge(&self.moments);
        c.merge(&self.velgrad);
        c.merge(&self.force);
        c
    }

    /// Record the stages into a per-kernel profile table.
    pub fn record_into(&self, table: &mut hacc_gpusim::ProfileTable) {
        table.record("sph_density", &self.density);
        table.record("crk_moments", &self.moments);
        if self.velgrad.flops > 0 {
            table.record("vel_gradients", &self.velgrad);
        }
        table.record("crk_force", &self.force);
    }
}

/// Outputs of one hydro evaluation (original particle ordering).
#[derive(Debug, Clone)]
pub struct SphResult {
    /// Corrected densities.
    pub rho: Vec<f64>,
    /// Volumes `m/rho`.
    pub vol: Vec<f64>,
    /// Pressures.
    pub pressure: Vec<f64>,
    /// Sound speeds.
    pub cs: Vec<f64>,
    /// CRK correction coefficients.
    pub corr: Vec<CrkCorrections>,
    /// Hydrodynamic accelerations (exactly zero for non-sinks, as are
    /// `du_dt` and `vsig`).
    pub accel: Vec<[f64; 3]>,
    /// Specific internal energy rates.
    pub du_dt: Vec<f64>,
    /// Per-particle maximum signal velocity (CFL input).
    pub vsig: Vec<f64>,
    /// Stage counters.
    pub counters: SphCounters,
}

/// FLOPs charged for one 3×3 symmetric solve in the correction stage.
const CORRECTION_SOLVE_FLOPS: u64 = 82;

/// One full CRKSPH evaluation for all particles: [`sph_step_sinks`] with
/// every particle a sink.
pub fn sph_step<K: SphKernel>(
    input: &SphInput,
    cm: &ChainingMesh,
    cfg: &SphConfig<K>,
) -> SphResult {
    sph_step_sinks(input, cm, cfg, input.len())
}

/// One full CRKSPH evaluation: density → corrections → forces, the forces
/// for the sinks `[0, n_sinks)` only.
///
/// `rho`, `vol`, `pressure`, `cs` and `corr` are computed for every
/// particle. `accel`, `du_dt` and `vsig` of a sink are bit-equal to what
/// [`sph_step`] gives it — the force launch sweeps a subsequence of the
/// full list that keeps every pair of a sink-holding leaf, so each sink
/// meets the same partners in the same order — and exactly zero for a
/// non-sink, never a partial sum.
///
/// The chaining mesh must have been built from `input.pos`, and its bin
/// widths must be at least the kernel support `support * max(h)` (the
/// chaining-mesh locality guarantee); this is asserted.
pub fn sph_step_sinks<K: SphKernel>(
    input: &SphInput,
    cm: &ChainingMesh,
    cfg: &SphConfig<K>,
    n_sinks: usize,
) -> SphResult {
    let n = input.len();
    assert!(n_sinks <= n, "{n_sinks} sinks among {n} particles");
    let mut counters = SphCounters::default();
    if n == 0 {
        return SphResult {
            rho: vec![],
            vol: vec![],
            pressure: vec![],
            cs: vec![],
            corr: vec![],
            accel: vec![],
            du_dt: vec![],
            vsig: vec![],
            counters,
        };
    }

    let h_max = input.h.iter().cloned().fold(0.0, f64::max);
    let cutoff = cfg.kernel.support() * h_max;
    let widths = cm.widths();
    let nbins = cm.nbins();
    assert!(
        (0..3).all(|d| widths[d] + 1e-12 >= cutoff || nbins[d] <= 2),
        "chaining-mesh bins ({widths:?}, {nbins:?} bins) narrower than kernel support {cutoff}"
    );
    let pairs = cm.interaction_pairs(cutoff, None);
    let holds_sink = cm.sink_leaves(n_sinks);
    let force_pairs: Vec<(LeafId, LeafId)> = pairs
        .iter()
        .copied()
        .filter(|&(a, b)| holds_sink[a as usize] || holds_sink[b as usize])
        .collect();
    // States and accumulators below are in tree (slot) order, so each
    // leaf is a contiguous slice.
    let leaf_range = |leaf: LeafId| cm.leaves[leaf as usize].range();
    let image = |a: LeafId, b: LeafId| cm.image_shift(a, b);

    // ---- Stage 1: raw density -> volumes ----
    let geom: Vec<GeomState> = cm
        .order
        .iter()
        .map(|&i| {
            let i = i as usize;
            GeomState {
                pos: input.pos[i],
                h: input.h[i],
                m_or_v: input.mass[i],
            }
        })
        .collect();
    let dk = DensityKernel { kernel: cfg.kernel };
    let mut rho_slots = vec![0.0f64; n];
    sweep(
        &dk,
        &cfg.device,
        cfg.mode,
        leaf_range,
        image,
        &pairs,
        &geom,
        &mut rho_slots,
        &mut counters.density,
    );
    // Self contribution m_i W(0, h_i).
    for (slot, &i) in cm.order.iter().enumerate() {
        let i = i as usize;
        rho_slots[slot] += input.mass[i] * cfg.kernel.w(0.0, input.h[i]);
    }

    // ---- Stage 2: moments -> corrections ----
    let geom_v: Vec<GeomState> = cm
        .order
        .iter()
        .zip(&rho_slots)
        .map(|(&i, &rho)| {
            let i = i as usize;
            GeomState {
                pos: input.pos[i],
                h: input.h[i],
                m_or_v: input.mass[i] / rho.max(f64::MIN_POSITIVE),
            }
        })
        .collect();
    let mk = MomentsKernel { kernel: cfg.kernel };
    let mut moments = vec![Moments::default(); n];
    sweep(
        &mk,
        &cfg.device,
        cfg.mode,
        leaf_range,
        image,
        &pairs,
        &geom_v,
        &mut moments,
        &mut counters.moments,
    );
    for (m, g) in moments.iter_mut().zip(&geom_v) {
        m.accumulate(g.m_or_v, cfg.kernel.w(0.0, g.h), &[0.0; 3]);
    }
    let corr_slots: Vec<CrkCorrections> = moments.iter().map(solve_corrections).collect();
    counters.moments.flops += CORRECTION_SOLVE_FLOPS * n as u64;

    // Corrected density: rho_i = sum_j m_j W^R_ij over the same pairs.
    // With the partition-of-unity property this equals m_i / V_i for
    // smooth fields; the volume-consistent estimate `rho_slots` is used
    // directly.

    // ---- EOS ----
    let mut p_slots = vec![0.0f64; n];
    let mut cs_slots = vec![0.0f64; n];
    for (slot, &i) in cm.order.iter().enumerate() {
        let u = input.u[i as usize];
        p_slots[slot] = cfg.eos.pressure(rho_slots[slot], u);
        cs_slots[slot] = cfg.eos.sound_speed(rho_slots[slot], u);
    }

    // ---- Stage 2.5: velocity gradients for the Balsara limiter ----
    let balsara_slots: Vec<f64> = if cfg.opts.use_balsara {
        let vg_states: Vec<VelGradState> = cm
            .order
            .iter()
            .enumerate()
            .map(|(slot, &i)| {
                let i = i as usize;
                VelGradState {
                    pos: input.pos[i],
                    vel: input.vel[i],
                    h: input.h[i],
                    vol: geom_v[slot].m_or_v,
                }
            })
            .collect();
        let vgk = VelGradKernel { kernel: cfg.kernel };
        let mut grads = vec![VelGradAccum::default(); n];
        sweep(
            &vgk,
            &cfg.device,
            cfg.mode,
            leaf_range,
            image,
            &pairs,
            &vg_states,
            &mut grads,
            &mut counters.velgrad,
        );
        grads
            .iter()
            .enumerate()
            .map(|(slot, g)| g.balsara(cs_slots[slot], vg_states[slot].h))
            .collect()
    } else {
        vec![1.0; n]
    };

    // ---- Stage 3: forces ----
    let force_states: Vec<ForceState> = cm
        .order
        .iter()
        .enumerate()
        .map(|(slot, &i)| {
            let i = i as usize;
            ForceState {
                pos: input.pos[i],
                vel: input.vel[i],
                h: input.h[i],
                p: p_slots[slot],
                rho: rho_slots[slot],
                cs: cs_slots[slot],
                vol: geom_v[slot].m_or_v,
                balsara: balsara_slots[slot],
                corr: corr_slots[slot],
            }
        })
        .collect();
    let fk = ForceKernel {
        kernel: cfg.kernel,
        opts: cfg.opts,
    };
    let mut force_slots = vec![ForceAccum::default(); n];
    sweep(
        &fk,
        &cfg.device,
        cfg.mode,
        leaf_range,
        image,
        &force_pairs,
        &force_states,
        &mut force_slots,
        &mut counters.force,
    );

    // One launch per stage per sph_step invocation (telemetry taxonomy).
    counters.density.launches = 1;
    counters.moments.launches = 1;
    if counters.velgrad.flops > 0 {
        counters.velgrad.launches = 1;
    }
    counters.force.launches = 1;

    // ---- Scatter back to original ordering ----
    let mut out = SphResult {
        rho: vec![0.0; n],
        vol: vec![0.0; n],
        pressure: vec![0.0; n],
        cs: vec![0.0; n],
        corr: vec![CrkCorrections::default(); n],
        accel: vec![[0.0; 3]; n],
        du_dt: vec![0.0; n],
        vsig: vec![0.0; n],
        counters,
    };
    for (slot, &i) in cm.order.iter().enumerate() {
        let i = i as usize;
        out.rho[i] = rho_slots[slot];
        out.vol[i] = geom_v[slot].m_or_v;
        out.pressure[i] = p_slots[slot];
        out.cs[i] = cs_slots[slot];
        out.corr[i] = corr_slots[slot];
        // A non-sink in a sink-holding leaf has a partial sum: not output.
        if i < n_sinks {
            let m = input.mass[i];
            let f = &force_slots[slot];
            out.accel[i] = [f.mom[0] / m, f.mom[1] / m, f.mom[2] / m];
            out.du_dt[i] = f.eng / m;
            out.vsig[i] = f.vsig;
        }
    }
    out
}

/// CFL timestep from the hydro state: `dt = C h / vsig` minimized over
/// particles (vsig already includes sound speed and approach velocity).
pub fn cfl_timestep(h: &[f64], vsig: &[f64], cs: &[f64], cfl: f64) -> f64 {
    let mut dt = f64::INFINITY;
    for i in 0..h.len() {
        let v = vsig[i].max(cs[i]).max(1e-30);
        dt = dt.min(cfl * h[i] / v);
    }
    dt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::CubicSpline;
    use hacc_tree::CmConfig;
    use hacc_rt::rand::{self, Rng, SeedableRng};

    struct Setup {
        pos: Vec<[f64; 3]>,
        vel: Vec<[f64; 3]>,
        mass: Vec<f64>,
        h: Vec<f64>,
        u: Vec<f64>,
        cm: ChainingMesh,
    }

    impl Setup {
        fn input(&self) -> SphInput<'_> {
            SphInput {
                pos: &self.pos,
                vel: &self.vel,
                mass: &self.mass,
                h: &self.h,
                u: &self.u,
            }
        }
    }

    /// An `n³` unit lattice with optional jitter and uniform u.
    fn lattice(n: usize, jitter: f64, seed: u64) -> Setup {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut jit = |c: usize| {
            if jitter > 0.0 {
                c as f64 + rng.gen_range(-jitter..jitter)
            } else {
                c as f64
            }
        };
        let mut pos = Vec::new();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    pos.push([jit(x), jit(y), jit(z)]);
                }
            }
        }
        let np = pos.len();
        let ext = n as f64;
        let cm = ChainingMesh::build(
            &pos,
            [-0.5; 3],
            [ext + 0.5; 3],
            &CmConfig {
                bin_width: (ext + 1.0) / ((ext + 1.0) / 3.2).floor().max(1.0),
                max_leaf: 96,
            },
        );
        Setup {
            pos,
            vel: vec![[0.0; 3]; np],
            mass: vec![1.0; np],
            h: vec![1.3; np],
            u: vec![10.0; np],
            cm,
        }
    }

    fn cfg() -> SphConfig<CubicSpline> {
        SphConfig::new()
    }

    #[test]
    fn uniform_lattice_density_is_one() {
        let s = lattice(8, 0.0, 0);
        let r = sph_step(&s.input(), &s.cm, &cfg());
        // Interior particles (away from the open boundary) should see
        // rho = 1 (unit mass per unit cell).
        for (i, p) in s.pos.iter().enumerate() {
            if p.iter().all(|&c| c > 2.0 && c < 5.0) {
                assert!(
                    (r.rho[i] - 1.0).abs() < 0.02,
                    "rho[{i}] = {} at {p:?}",
                    r.rho[i]
                );
            }
        }
    }

    #[test]
    fn uniform_interior_forces_vanish() {
        // Deep-interior particles (two kernel supports from the open
        // boundary, so even their neighbors have complete neighborhoods)
        // must feel no force on an exact uniform lattice.
        let s = lattice(13, 0.0, 0);
        let r = sph_step(&s.input(), &s.cm, &cfg());
        let margin = 2.0 * 2.0 * 1.3; // two supports
        let mut checked = 0;
        for (i, p) in s.pos.iter().enumerate() {
            if p.iter().all(|&c| c >= margin && c <= 12.0 - margin) {
                let a = r.accel[i];
                let amag = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
                assert!(amag < 1e-10, "interior accel {amag} at {p:?}");
                checked += 1;
            }
        }
        assert!(checked >= 1, "no deep-interior particles checked");
    }

    #[test]
    fn total_momentum_exactly_conserved() {
        // Jittered lattice, random velocities: sum m*a must vanish to
        // roundoff — the defining property of the antisymmetrized pair
        // force.
        let mut s = lattice(7, 0.3, 42);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for v in &mut s.vel {
            *v = [
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
            ];
        }
        let r = sph_step(&s.input(), &s.cm, &cfg());
        let mut ptot = [0.0f64; 3];
        let mut scale = 0.0f64;
        for (i, a) in r.accel.iter().enumerate() {
            for d in 0..3 {
                ptot[d] += s.mass[i] * a[d];
                scale += (s.mass[i] * a[d]).abs();
            }
        }
        for d in 0..3 {
            assert!(
                ptot[d].abs() < 1e-10 * scale.max(1.0),
                "momentum drift {ptot:?} (scale {scale})"
            );
        }
    }

    #[test]
    fn total_energy_exactly_conserved() {
        let mut s = lattice(7, 0.3, 11);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for v in &mut s.vel {
            *v = [
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
            ];
        }
        let r = sph_step(&s.input(), &s.cm, &cfg());
        let mut de = 0.0f64;
        let mut scale = 0.0f64;
        for i in 0..s.pos.len() {
            let kinetic: f64 = (0..3).map(|d| s.vel[i][d] * r.accel[i][d] * s.mass[i]).sum();
            de += kinetic + s.mass[i] * r.du_dt[i];
            scale += kinetic.abs() + (s.mass[i] * r.du_dt[i]).abs();
        }
        assert!(de.abs() < 1e-10 * scale.max(1.0), "energy drift {de} (scale {scale})");
    }

    #[test]
    fn hot_center_drives_outflow() {
        // Sedov-flavored: one particle much hotter than the rest pushes
        // its neighbors radially outward.
        let mut s = lattice(7, 0.0, 0);
        let center = [3.0, 3.0, 3.0];
        let ci = s
            .pos
            .iter()
            .position(|p| p == &center)
            .expect("center particle");
        s.u[ci] = 1.0e4;
        let r = sph_step(&s.input(), &s.cm, &cfg());
        let mut outward = 0;
        let mut total = 0;
        for (i, p) in s.pos.iter().enumerate() {
            let dr = [p[0] - center[0], p[1] - center[1], p[2] - center[2]];
            let d2: f64 = dr.iter().map(|x| x * x).sum();
            if d2 > 0.0 && d2 < 2.6 * 2.6 {
                let dot: f64 = (0..3).map(|d| dr[d] * r.accel[i][d]).sum();
                total += 1;
                if dot > 0.0 {
                    outward += 1;
                }
            }
        }
        assert!(total > 20);
        assert_eq!(outward, total, "{outward}/{total} neighbors pushed outward");
    }

    #[test]
    fn counters_populated_per_stage() {
        let s = lattice(6, 0.2, 5);
        let r = sph_step(&s.input(), &s.cm, &cfg());
        assert!(r.counters.density.pairs > 0);
        assert!(r.counters.moments.pairs > 0);
        assert!(r.counters.force.pairs > 0);
        assert!(r.counters.force.flops > r.counters.density.flops);
        assert!(r.counters.moments.max_registers > 0);
    }

    #[test]
    fn naive_and_split_agree() {
        let s = lattice(6, 0.25, 8);
        let mut c1 = cfg();
        c1.mode = ExecMode::WarpSplit;
        let mut c2 = cfg();
        c2.mode = ExecMode::Naive;
        let r1 = sph_step(&s.input(), &s.cm, &c1);
        let r2 = sph_step(&s.input(), &s.cm, &c2);
        for i in 0..s.pos.len() {
            assert_eq!(r1.rho[i], r2.rho[i]);
            assert_eq!(r1.accel[i], r2.accel[i]);
        }
    }

    #[test]
    fn sinks_get_the_all_sinks_bits_and_non_sinks_get_zero() {
        // The lattice is listed x-major, so a prefix is a slab — the shape
        // of a rank's owned gas ahead of its ghosts.
        let mut s = lattice(10, 0.3, 23);
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for i in 0..s.pos.len() {
            s.h[i] = rng.gen_range(0.8..1.6);
            s.u[i] = rng.gen_range(5.0..15.0);
            s.vel[i] = [
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-2.0..2.0),
            ];
        }
        let n = s.pos.len();
        let mut c = cfg();
        c.opts.use_balsara = true;
        let full = sph_step(&s.input(), &s.cm, &c);
        let k = rng.gen_range(150..250);
        let part = sph_step_sinks(&s.input(), &s.cm, &c, k);

        assert_eq!(part.accel[..k], full.accel[..k]);
        assert_eq!(part.du_dt[..k], full.du_dt[..k]);
        assert_eq!(part.vsig[..k], full.vsig[..k]);
        assert!(part.accel[..k].iter().all(|a| a != &[0.0; 3]));
        assert!(part.accel[k..].iter().all(|a| a == &[0.0; 3]));
        assert!(part.du_dt[k..].iter().all(|&x| x == 0.0));
        assert!(part.vsig[k..].iter().all(|&x| x == 0.0));
        // The geometry and thermodynamics are everyone's.
        assert_eq!(part.rho, full.rho);
        assert_eq!(part.vol, full.vol);
        assert_eq!(part.pressure, full.pressure);
        assert_eq!(part.cs, full.cs);
        for i in 0..n {
            assert_eq!(part.corr[i].a, full.corr[i].a, "corr a {i}");
            assert_eq!(part.corr[i].b, full.corr[i].b, "corr b {i}");
        }
        // Only the force launch shrinks.
        assert!(s.cm.sink_leaves(k).iter().any(|&m| !m));
        assert!(part.counters.force.pairs < full.counters.force.pairs);
        assert_eq!(part.counters.density.pairs, full.counters.density.pairs);
        assert_eq!(part.counters.moments.pairs, full.counters.moments.pairs);
        assert_eq!(part.counters.velgrad.pairs, full.counters.velgrad.pairs);

        let all = sph_step_sinks(&s.input(), &s.cm, &c, n);
        assert_eq!(all.accel, full.accel);
        assert_eq!(all.counters.force.pairs, full.counters.force.pairs);
    }

    #[test]
    fn cfl_timestep_shrinks_with_signal_velocity() {
        let dt1 = cfl_timestep(&[1.0], &[10.0], &[1.0], 0.3);
        let dt2 = cfl_timestep(&[1.0], &[20.0], &[1.0], 0.3);
        assert!((dt1 - 0.03).abs() < 1e-12);
        assert!(dt2 < dt1);
    }

    #[test]
    fn empty_input_is_ok() {
        let cm = ChainingMesh::build(&[], [0.0; 3], [8.0; 3], &CmConfig::default());
        let input = SphInput {
            pos: &[],
            vel: &[],
            mass: &[],
            h: &[],
            u: &[],
        };
        let r = sph_step(&input, &cm, &cfg());
        assert!(r.rho.is_empty());
    }

    #[test]
    fn balsara_suppresses_shear_viscosity() {
        // Plane shear flow v = (A·y, 0, 0): divergence-free, pure curl,
        // but plenty of SPH pairs are "approaching" (dx·dy < 0), so the
        // Monaghan switch alone fires spurious viscosity. The Balsara
        // limiter must suppress it.
        let mut s = lattice(8, 0.0, 0);
        let shear = 1.5;
        let center = 3.5;
        for (p, v) in s.pos.iter().zip(s.vel.iter_mut()) {
            *v = [shear * (p[1] - center), 0.0, 0.0];
        }
        let mut on = cfg();
        on.opts.use_balsara = true;
        on.opts.alpha_visc = 1.5;
        let mut off = cfg();
        off.opts.use_balsara = false;
        let r_on = sph_step(&s.input(), &s.cm, &on);
        let r_off = sph_step(&s.input(), &s.cm, &off);
        // Interior heating with the limiter should be far below without.
        let heat = |r: &SphResult| -> f64 {
            s.pos
                .iter()
                .enumerate()
                .filter(|(_, p)| p.iter().all(|&c| c > 2.0 && c < 5.0))
                .map(|(i, _)| r.du_dt[i].max(0.0))
                .sum()
        };
        let h_on = heat(&r_on);
        let h_off = heat(&r_off);
        assert!(
            h_on < 0.2 * h_off.max(1e-30),
            "limiter ineffective: {h_on:.3e} vs {h_off:.3e}"
        );
    }

    #[test]
    fn balsara_keeps_compressive_viscosity() {
        // Radial collapse: pure divergence, zero curl. The limiter must
        // leave the viscosity (and its heating) essentially intact.
        let mut s = lattice(8, 0.0, 0);
        let center = 3.5;
        for (p, v) in s.pos.iter().zip(s.vel.iter_mut()) {
            for d in 0..3 {
                v[d] = -0.8 * (p[d] - center);
            }
        }
        let mut on = cfg();
        on.opts.use_balsara = true;
        let mut off = cfg();
        off.opts.use_balsara = false;
        let r_on = sph_step(&s.input(), &s.cm, &on);
        let r_off = sph_step(&s.input(), &s.cm, &off);
        let heat = |r: &SphResult| -> f64 {
            s.pos
                .iter()
                .enumerate()
                .filter(|(_, p)| p.iter().all(|&c| c > 2.0 && c < 5.0))
                .map(|(i, _)| r.du_dt[i].max(0.0))
                .sum()
        };
        let h_on = heat(&r_on);
        let h_off = heat(&r_off);
        assert!(
            h_on > 0.8 * h_off,
            "limiter over-suppresses compression: {h_on:.3e} vs {h_off:.3e}"
        );
    }

    #[test]
    fn pipeline_works_with_wendland_kernel() {
        // The pipeline is generic over the interpolation kernel; Wendland
        // C4 (the production choice of CRKSPH) must give the same
        // qualitative answers as the cubic spline.
        let s = lattice(8, 0.0, 0);
        let wcfg: SphConfig<crate::kernel::WendlandC4> = SphConfig::new();
        let r = sph_step(&s.input(), &s.cm, &wcfg);
        for (i, p) in s.pos.iter().enumerate() {
            if p.iter().all(|&c| c > 2.0 && c < 5.0) {
                assert!(
                    (r.rho[i] - 1.0).abs() < 0.05,
                    "wendland rho[{i}] = {}",
                    r.rho[i]
                );
            }
        }
        // Momentum conservation holds for any kernel.
        let mut ptot = [0.0f64; 3];
        for (i, a) in r.accel.iter().enumerate() {
            for d in 0..3 {
                ptot[d] += s.mass[i] * a[d];
            }
        }
        for d in 0..3 {
            assert!(ptot[d].abs() < 1e-9, "momentum {ptot:?}");
        }
    }

    /// Random per-particle fields over `pos`, in the mesh's slot order:
    /// the states of all four CRKSPH kernels ([`kernel_states`]; `h_of`
    /// gives particle `i` its smoothing length).
    struct KernelStates {
        geom: Vec<GeomState>,
        velgrad: Vec<VelGradState>,
        force: Vec<ForceState>,
    }

    fn kernel_states(
        pos: &[[f64; 3]],
        cm: &ChainingMesh,
        rng: &mut rand::rngs::StdRng,
        h_of: impl Fn(usize, &mut rand::rngs::StdRng) -> f64,
    ) -> KernelStates {
        let force: Vec<ForceState> = cm
            .order
            .iter()
            .map(|&i| ForceState {
                pos: pos[i as usize],
                vel: [
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ],
                h: h_of(i as usize, rng),
                p: rng.gen_range(0.5..4.0),
                rho: rng.gen_range(0.5..2.0),
                cs: rng.gen_range(0.5..2.0),
                vol: rng.gen_range(0.5..1.5),
                balsara: rng.gen_range(0.0..1.0),
                corr: CrkCorrections {
                    a: rng.gen_range(0.9..1.1),
                    b: [0.05, -0.02, 0.01],
                },
            })
            .collect();
        KernelStates {
            geom: force
                .iter()
                .map(|f| GeomState { pos: f.pos, h: f.h, m_or_v: f.vol })
                .collect(),
            velgrad: force
                .iter()
                .map(|f| VelGradState { pos: f.pos, vel: f.vel, h: f.h, vol: f.vol })
                .collect(),
            force,
        }
    }

    /// One kernel's lane-compacted tiled sweep against its dense one-sided
    /// oracle over the same list: the same bits in every accumulator
    /// (`bits` flattens one), pairs evaluated + pairs culled equal to the
    /// oracle's list-sized count. Returns (evaluated, culled).
    fn assert_sweep_matches_dense_reference<K: hacc_gpusim::SplitKernel, const N: usize>(
        kernel: &K,
        cm: &ChainingMesh,
        pairs: &[(LeafId, LeafId)],
        states: &[K::State],
        bits: impl Fn(&K::Accum) -> [f64; N],
    ) -> (u64, u64) {
        let (dev, mode) = (DeviceSpec::mi250x_gcd(), ExecMode::WarpSplit);
        let leaf_range = |leaf: LeafId| cm.leaves[leaf as usize].range();
        let image = |a: LeafId, b: LeafId| cm.image_shift(a, b);
        let (mut tiled, mut tc) = (vec![K::Accum::default(); states.len()], KernelCounters::default());
        sweep(kernel, &dev, mode, leaf_range, image, pairs, states, &mut tiled, &mut tc);
        let (mut reference, mut rc) =
            (vec![K::Accum::default(); states.len()], KernelCounters::default());
        hacc_gpusim::reference::sweep(
            kernel, &dev, mode, leaf_range, image, pairs, states, &mut reference, &mut rc,
        );
        for (slot, (t, r)) in tiled.iter().zip(&reference).enumerate() {
            assert_eq!(
                bits(t).map(f64::to_bits),
                bits(r).map(f64::to_bits),
                "{} slot {slot}: {:?} vs {:?}",
                kernel.name(),
                bits(t),
                bits(r)
            );
        }
        assert_eq!(rc.culled_pairs, 0);
        assert_eq!(tc.list_pairs(), rc.pairs, "{}", kernel.name());
        (tc.pairs, tc.culled_pairs)
    }

    /// [`assert_sweep_matches_dense_reference`] for density, moments,
    /// velocity gradients and force over one list; the force kernel's
    /// (evaluated, culled).
    fn assert_all_kernels_match_dense_reference(
        cm: &ChainingMesh,
        pairs: &[(LeafId, LeafId)],
        st: &KernelStates,
    ) -> (u64, u64) {
        let k = CubicSpline;
        assert_sweep_matches_dense_reference(&DensityKernel { kernel: k }, cm, pairs, &st.geom, |a| [*a]);
        assert_sweep_matches_dense_reference(&MomentsKernel { kernel: k }, cm, pairs, &st.geom, |m| {
            [m.m0, m.m1[0], m.m1[1], m.m1[2], m.m2[0], m.m2[1], m.m2[2], m.m2[3], m.m2[4], m.m2[5]]
        });
        assert_sweep_matches_dense_reference(&VelGradKernel { kernel: k }, cm, pairs, &st.velgrad, |g| {
            [g.div, g.curl[0], g.curl[1], g.curl[2]]
        });
        let fk = ForceKernel { kernel: k, opts: HydroOptions::default() };
        assert_sweep_matches_dense_reference(&fk, cm, pairs, &st.force, |f| {
            [f.mom[0], f.mom[1], f.mom[2], f.eng, f.vsig]
        })
    }

    #[test]
    fn force_sweep_tiled_matches_reference_bitwise_on_ragged_leaves() {
        // The shared sweep through the tiled symmetric executors must
        // reproduce the one-sided reference executors bit for bit, with
        // leaf sizes on both sides of the half-warp and not multiples of
        // it — before compaction and, more raggedly still, after it.
        let s = lattice(9, 0.3, 17);
        let cm = ChainingMesh::build(
            &s.pos,
            [-0.5; 3],
            [9.5; 3],
            &CmConfig {
                bin_width: 5.0,
                max_leaf: 50,
            },
        );
        let hw = DeviceSpec::mi250x_gcd().half_warp() as u32;
        let sizes: Vec<u32> = cm.leaves.iter().map(|l| l.count).collect();
        assert!(sizes.iter().any(|&c| c < hw) && sizes.iter().any(|&c| c > hw));
        assert!(sizes.iter().any(|&c| c % hw != 0), "leaf sizes {sizes:?}");

        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let st = kernel_states(&s.pos, &cm, &mut rng, |_, rng| rng.gen_range(1.0..1.4));
        let pairs = cm.interaction_pairs(2.0 * 1.4, None);
        let (evaluated, culled) = assert_all_kernels_match_dense_reference(&cm, &pairs, &st);
        assert!(evaluated > 0 && culled > 0, "{evaluated} evaluated, {culled} culled");
    }

    use hacc_rt::prop::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // Clustered and uniform clouds, smoothing lengths spread by a
        // factor of 2 to 5 inside one cloud (so a leaf of small-h
        // particles meets a partner whose largest h decides), any leaf
        // size: all four kernels, culled vs dense, bitwise.
        #[test]
        fn culled_sweeps_match_dense_reference_on_clouds_with_spread_h(
            seed in 0u64..u64::MAX,
            n in 2usize..400,
            max_leaf in 1usize..70,
            spread in 2.0f64..5.0,
            clump in 0.0f64..1.0,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let extent = 12.0;
            let pos: Vec<[f64; 3]> = (0..n)
                .map(|_| {
                    // A fraction `clump` of the cloud sits in one corner bin.
                    let side = if rng.gen_range(0.0..1.0) < clump { 3.0 } else { extent };
                    [0; 3].map(|_| rng.gen_range(0.0..side))
                })
                .collect();
            let h_min = 0.4;
            let h_max = h_min * spread;
            let cm = ChainingMesh::build(
                &pos,
                [0.0; 3],
                [extent; 3],
                &CmConfig { bin_width: 4.0, max_leaf },
            );
            // The first two particles pin the spread.
            let st = kernel_states(&pos, &cm, &mut rng, |i, rng| match i {
                0 => h_min,
                1 => h_max,
                _ => rng.gen_range(h_min..h_max),
            });
            let pairs = cm.interaction_pairs(2.0 * h_max, None);
            assert_all_kernels_match_dense_reference(&cm, &pairs, &st);
        }

        // The same across periodic seams: a mesh wrapped along the axes
        // of `wrap_mask`, positions drifted up to `slack` past its ends.
        #[test]
        fn culled_sweeps_match_dense_reference_across_periodic_seams(
            seed in 0u64..u64::MAX,
            n in 2usize..1200,
            max_leaf in 1usize..70,
            wrap_mask in 1usize..8,
            slack in 0.0f64..0.5,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let extent = 12.0;
            let pos: Vec<[f64; 3]> = (0..n)
                .map(|_| [0; 3].map(|_| rng.gen_range(-slack..extent + slack)))
                .collect();
            let wrap = [0, 1, 2].map(|d| wrap_mask >> d & 1 == 1);
            let cm = ChainingMesh::build_wrapped(
                &pos,
                [0.0; 3],
                [extent; 3],
                wrap,
                &CmConfig { bin_width: 4.0, max_leaf },
            );
            let st = kernel_states(&pos, &cm, &mut rng, |_, rng| rng.gen_range(0.4..1.75));
            let pairs = cm.interaction_pairs(3.5, None);
            assert_all_kernels_match_dense_reference(&cm, &pairs, &st);
        }
    }

    #[test]
    fn particles_planted_at_the_support_of_the_partner_box_match_reference_bitwise() {
        // A cluster whose box starts at x = 6.5 with its corner particle
        // first; lanes planted on the corner's y, z exactly one support
        // (2h) from it, one ulp either side, past the cull margin and well
        // inside, in a leaf of their own one bin below. Once the planted
        // lanes hold the larger h (their reach decides), once the cluster
        // does (the partner box's largest reach decides).
        for (h_lane, h_cluster) in [(1.25, 0.6), (0.6, 1.25)] {
            let support = 2.0 * f64::max(h_lane, h_cluster);
            let mut rng = rand::rngs::StdRng::seed_from_u64(31);
            let mut pos = vec![[6.5, 5.0, 5.0]];
            for _ in 0..50 {
                pos.push([
                    rng.gen_range(6.5..9.0),
                    rng.gen_range(4.0..6.0),
                    rng.gen_range(4.0..6.0),
                ]);
            }
            let n_cluster = pos.len();
            let on = 6.5 - support;
            for x in [on.next_up(), on, on.next_down(), on * (1.0 - 1e-9), on + 0.5, on - 1.0] {
                pos.push([x, 5.0, 5.0]);
            }
            let cm = ChainingMesh::build(
                &pos,
                [0.0; 3],
                [12.0; 3],
                &CmConfig { bin_width: 3.0, max_leaf: 64 },
            );
            let st = kernel_states(&pos, &cm, &mut rng, |i, _| {
                if i < n_cluster { h_cluster } else { h_lane }
            });
            let pairs = cm.interaction_pairs(support, None);
            let (evaluated, culled) = assert_all_kernels_match_dense_reference(&cm, &pairs, &st);
            assert!(evaluated > 0 && culled > 0, "{evaluated} evaluated, {culled} culled");
        }
    }
}
