//! The layer census: one PM step replayed from outside the program.
//!
//! Inside `World::run_with` every rank builds the step-0 state the driver
//! would (`generate_ics` → `migrate` → `exchange_overload`), then calls
//! each layer's **public** functions in driver order, each call wrapped in
//! a span and counted at the boundary (return values, `comm.telemetry()`
//! deltas, the counting allocator). Nothing inside the program is
//! instrumented and nothing modeled (MI250X seconds, utilization) is
//! reported: every second here is host-measured, every FLOP or byte count
//! is the program's own counter and is labeled as a count.
//!
//! The driver's step-loop glue that is private to `hacc_core::driver`
//! (domain bounds, the `1.75 × spacing` smoothing cap, the `7 r_s`
//! cutoff, the checkpoint block list) is mirrored here; if the driver
//! changes those, `trace.attributed_frac` drifts from 1 and says so.

use crate::alloc;
use crate::stats::p25;
use crate::trace::{Recorder, Span};
use hacc_analysis::{correlation_function, fof_halos, measure_power, Lbvh};
use hacc_core::ic::generate_ics;
use hacc_core::kicks::KickDrift;
use hacc_core::overload::{exchange_overload, migrate};
use hacc_core::timestep::n_substeps;
use hacc_core::{ParticleStore, Physics, SimConfig, SimReport, Species};
use hacc_gpusim::{
    execute_leaf_pair, execute_leaf_self, DeviceSpec, ExecMode, KernelCounters, PairFlops,
    SplitKernel,
};
use hacc_grav::{grav_step, GravConfig, GravState, GravityKernel};
use hacc_iosim::format::{encode_blocks, Block};
use hacc_iosim::{TieredConfig, TieredWriter};
use hacc_mesh::poisson::{apply_greens_gradient, GreensOptions};
use hacc_mesh::{cic, PmConfig, PmSolver};
use hacc_ranks::{smoke::smoke, CartDecomp, Comm, World};
use hacc_sph::hydro::{DensityKernel, ForceState, GeomState, MomentsKernel};
use hacc_sph::pipeline::{sph_step, SphConfig, SphInput};
use hacc_sph::{CubicSpline, ForceKernel, SphKernel};
use hacc_subgrid::CoolingModel;
use hacc_swfft::{Complex64, DistFft3d, FftPlan, PencilFft3d};
use hacc_tree::{ChainingMesh, CmConfig, LeafId};
use hacc_units::constants::G_NEWTON;
use hacc_units::Background;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Mirrors of constants private to `hacc_core::driver`.
const H_CAP_SPACING: f64 = 1.75;
pub const MAX_LEAF: usize = 128;

/// Named seconds or counts gathered on one rank.
type Bag = BTreeMap<&'static str, f64>;

/// How often each driver-step ingredient runs per PM step in the measured
/// run — taken from an untraced repetition's `SimReport` in the same
/// process, so adaptive rungs are accounted as they actually fell.
#[derive(Debug, Clone, Copy)]
pub struct Multiplicity {
    /// Force evaluations per PM step: mean `substeps + 1`.
    pub kicks: f64,
    /// Mean substeps per PM step (drift, subgrid, `grow_aabbs`).
    pub substeps: f64,
    /// Checkpoints per PM step.
    pub checkpoints: f64,
    /// In-situ analysis passes per PM step.
    pub analyses: f64,
}

impl Multiplicity {
    pub fn of(cfg: &SimConfig, report: &SimReport) -> Self {
        let steps = report.steps.len().max(1) as f64;
        let substeps = report
            .steps
            .iter()
            .map(|s| f64::from(s.substeps))
            .sum::<f64>()
            / steps;
        let every = |k: usize| {
            if k == 0 {
                0.0
            } else {
                (1..=report.steps.len()).filter(|s| s % k == 0).count() as f64 / steps
            }
        };
        Self {
            kicks: substeps + 1.0,
            substeps,
            checkpoints: every(cfg.checkpoint_every),
            analyses: every(cfg.analysis_every),
        }
    }
}

/// Census settings.
pub struct Plan<'a> {
    pub workload: &'static str,
    /// Repetitions of a short call (its p25 is recorded); 1 in `--quick`.
    pub reps: usize,
    /// Scratch directory for the checkpoint census (under `--out`).
    pub io_dir: &'a Path,
    pub mult: Multiplicity,
    /// Seed of the benchmark's own payload generator (`smoke`).
    pub seed: u64,
}

/// The census of one workload, reduced over ranks: a layer's seconds are
/// the maximum over ranks, a count is the sum, and a rate (or a ratio of
/// two of one rank's timings) is the mean over the ranks that had the
/// work — a per-rank rate, comparable with the single-thread kernel
/// micro-benchmarks whatever the rank count.
pub struct Census {
    pub secs: Bag,
    pub counts: Bag,
    pub rates: Bag,
    /// Census-predicted step seconds per rank (see [`predicted_step`]).
    pub step_by_rank: Vec<f64>,
    /// `(short-range, long-range)` seconds of the slowest rank's step.
    pub critical_split: (f64, f64),
    /// Smallest / largest smoothing length of the census gas (0 if none).
    pub h_range: (f64, f64),
    pub spans: Vec<Span>,
}

struct RankCensus {
    secs: Bag,
    counts: Bag,
    rates: Bag,
    h_range: (f64, f64),
    spans: Vec<Span>,
}

/// Run the census on `ranks` ranks of the cooperative backend.
pub fn run(cfg: &SimConfig, ranks: usize, plan: &Plan<'_>, epoch: Instant) -> Census {
    alloc::arm();
    let per_rank = World::run_with(cfg.rank_backend(), ranks, |comm| {
        rank_census(cfg, comm, plan, epoch)
    });
    alloc::disarm();

    let mut census = Census {
        secs: Bag::new(),
        counts: Bag::new(),
        rates: Bag::new(),
        step_by_rank: Vec::with_capacity(ranks),
        critical_split: (0.0, 0.0),
        h_range: (f64::INFINITY, 0.0),
        spans: Vec::new(),
    };
    let mut rate_ranks = Bag::new();
    for r in per_rank {
        let (step, short, long) = predicted_step(&r.secs, &plan.mult);
        if census.step_by_rank.iter().all(|&s| step > s) {
            census.critical_split = (short, long);
        }
        census.step_by_rank.push(step);
        for (k, v) in r.secs {
            let e = census.secs.entry(k).or_insert(0.0);
            *e = e.max(v);
        }
        for (k, v) in r.counts {
            *census.counts.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in r.rates {
            *census.rates.entry(k).or_insert(0.0) += v;
            *rate_ranks.entry(k).or_insert(0.0) += 1.0;
        }
        census.h_range = (
            census.h_range.0.min(r.h_range.0),
            census.h_range.1.max(r.h_range.1),
        );
        census.spans.extend(r.spans);
    }
    if !census.h_range.0.is_finite() {
        census.h_range = (0.0, 0.0);
    }
    for (k, v) in census.rates.iter_mut() {
        *v /= rate_ranks[k];
    }
    census
}

/// One rank's PM step as the census predicts it, from that rank's own
/// layer seconds and the measured run's multiplicities:
///
/// `migrate + overload + 2·PM + tree build + kicks·(grav [+ gas tree +
/// sph]) + substeps·(grow [+ cooling]) + checkpoints·write +
/// analyses·FOF`
///
/// Returns `(step, short-range part, long-range part)`. The short-range
/// block has no collective inside it, so ranks run it unsynchronised and
/// the step is the slowest rank's *sum*, not the sum of per-layer maxima.
/// A site that did not run (no gas on a gravity-only workload) counts 0.
fn predicted_step(secs: &Bag, m: &Multiplicity) -> (f64, f64, f64) {
    let s = |k: &str| secs.get(k).copied().unwrap_or(0.0);
    let per_kick = s("grav.step") + s("tree.build_gas") + s("sph.step");
    let per_substep = s("tree.grow") + s("subgrid.cool");
    let short = m.kicks * per_kick + m.substeps * per_substep;
    let long = 2.0 * s("mesh.pm_accel");
    let step = s("core.migrate")
        + s("core.overload")
        + long
        + s("tree.build")
        + short
        + m.checkpoints * s("iosim.ckpt_write")
        + m.analyses * s("analysis.fof");
    (step, short, long)
}

/// Time `f` as `reps` spans named `name`; the lower quartile is recorded
/// and the last call's value returned (so the call cannot be optimised
/// away even when the caller drops it).
fn timed<T>(
    tr: &mut Recorder,
    secs: &mut Bag,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> T {
    let mut samples = Vec::with_capacity(reps.max(1));
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (value, seconds) = tr.span(name, &mut f);
        samples.push(seconds);
        last = Some(std::hint::black_box(value));
    }
    secs.insert(name, p25(&samples));
    last.expect("at least one repetition ran")
}

/// Like [`timed`] for a call that consumes its input in place: each
/// repetition works on a fresh copy of `src`, made outside the span.
/// Returns the last repetition's buffer.
fn timed_on_copy<T: Clone>(
    tr: &mut Recorder,
    secs: &mut Bag,
    name: &'static str,
    reps: usize,
    src: &[T],
    mut f: impl FnMut(&mut Vec<T>),
) -> Vec<T> {
    let mut buf = Vec::new();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            buf.clear();
            buf.extend_from_slice(src);
            tr.span(name, || f(&mut buf)).1
        })
        .collect();
    secs.insert(name, p25(&samples));
    buf
}

/// The null kernel: does the executor's traversal and nothing else but
/// decide whether the pair is inside either particle's reach. Its time
/// per pair is the floor under every real kernel; its count is the
/// numerator of the useful-pair fractions.
struct ReachKernel;

#[derive(Clone, Copy)]
struct ReachState {
    pos: [f64; 3],
    /// Squared interaction radius of this particle.
    reach2: f64,
}

impl SplitKernel for ReachKernel {
    type State = ReachState;
    type Partial = ();
    type Accum = u64;

    fn name(&self) -> &'static str {
        "bench_null_reach"
    }
    fn state_words(&self) -> u64 {
        4
    }
    fn partial_words(&self) -> u64 {
        0
    }
    fn accum_words(&self) -> u64 {
        1
    }
    fn partial_flops(&self) -> PairFlops {
        PairFlops::default()
    }
    fn pair_flops(&self) -> PairFlops {
        // dr (3 add); r2 (1 mul + 2 fma). The reach test is a compare.
        PairFlops {
            adds: 3,
            muls: 1,
            fmas: 2,
            trans: 0,
        }
    }
    fn partial(&self, _s: &ReachState) {}

    /// Counts the pair on the `i` side only, so the accumulator sum over
    /// a sweep is the number of unordered pairs within reach.
    #[inline]
    fn interact(&self, si: &ReachState, _: &(), sj: &ReachState, _: &(), out: &mut u64) {
        let dx = si.pos[0] - sj.pos[0];
        let dy = si.pos[1] - sj.pos[1];
        let dz = si.pos[2] - sj.pos[2];
        let r2 = dx * dx + dy * dy + dz * dz;
        *out += (r2 < si.reach2.max(sj.reach2)) as u64;
    }

    #[inline]
    fn interact_pair(
        &self,
        si: &ReachState,
        pi: &(),
        sj: &ReachState,
        pj: &(),
        out_i: &mut u64,
        _out_j: &mut u64,
    ) {
        self.interact(si, pi, sj, pj, out_i);
    }
}

/// Run `kernel` over every leaf pair of the interaction list, exactly as
/// the `grav`/`sph` pipelines do; `states`/`accums` are in tree-slot order.
#[allow(clippy::too_many_arguments)]
fn sweep<K: SplitKernel>(
    kernel: &K,
    dev: &DeviceSpec,
    mode: ExecMode,
    cm: &ChainingMesh,
    pairs: &[(LeafId, LeafId)],
    states: &[K::State],
    accums: &mut [K::Accum],
) -> KernelCounters {
    let mut counters = KernelCounters::default();
    for &(a, b) in pairs {
        let ra = cm.leaves[a as usize].range();
        if a == b {
            execute_leaf_self(
                kernel,
                dev,
                mode,
                &states[ra.clone()],
                &mut accums[ra],
                &mut counters,
            );
        } else {
            let rb = cm.leaves[b as usize].range();
            let (left, right) = accums.split_at_mut(rb.start);
            execute_leaf_pair(
                kernel,
                dev,
                mode,
                &states[ra.clone()],
                &states[rb.clone()],
                &mut left[ra],
                &mut right[..rb.len()],
                &mut counters,
            );
        }
    }
    counters
}

/// Time one sweep of `kernel`; records seconds under `name` and returns
/// the counters of the last sweep.
#[allow(clippy::too_many_arguments)]
fn timed_sweep<K: SplitKernel>(
    tr: &mut Recorder,
    secs: &mut Bag,
    name: &'static str,
    reps: usize,
    kernel: &K,
    cfg: &SimConfig,
    cm: &ChainingMesh,
    pairs: &[(LeafId, LeafId)],
    states: &[K::State],
) -> (KernelCounters, Vec<K::Accum>) {
    timed(tr, secs, name, reps, || {
        let mut accums = vec![K::Accum::default(); states.len()];
        let counters = sweep(
            kernel,
            &cfg.device,
            cfg.exec_mode,
            cm,
            pairs,
            states,
            &mut accums,
        );
        (counters, accums)
    })
}

/// Allocator traffic of `f` on this thread: `(calls, bytes)`.
fn counting<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = alloc::thread_counts();
    let out = f();
    let after = alloc::thread_counts();
    (out, (after.0 - before.0, after.1 - before.1))
}

/// The full restart state as checkpoint blocks (the driver's layout).
fn checkpoint_blocks(store: &ParticleStore, box_size: f64) -> Vec<Block> {
    let n = store.n_owned;
    let col = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..n).map(f).collect() };
    let ucol = |f: &dyn Fn(usize) -> u64| -> Vec<u64> { (0..n).map(f).collect() };
    vec![
        Block::from_f64("x", &col(&|i| store.pos[i][0].rem_euclid(box_size))),
        Block::from_f64("y", &col(&|i| store.pos[i][1].rem_euclid(box_size))),
        Block::from_f64("z", &col(&|i| store.pos[i][2].rem_euclid(box_size))),
        Block::from_f64("vx", &col(&|i| store.vel[i][0])),
        Block::from_f64("vy", &col(&|i| store.vel[i][1])),
        Block::from_f64("vz", &col(&|i| store.vel[i][2])),
        Block::from_f64("mass", &col(&|i| store.mass[i])),
        Block::from_f64("u", &col(&|i| store.u[i])),
        Block::from_f64("metals", &col(&|i| store.metals[i])),
        Block::from_f64("h", &col(&|i| store.h[i])),
        Block::from_u64("id", &store.id[..n]),
        Block::from_u64("species", &ucol(&|i| store.species[i] as u64)),
        Block::from_u64("rung", &ucol(&|i| u64::from(store.rung[i]))),
    ]
}

#[allow(clippy::too_many_lines)]
fn rank_census(cfg: &SimConfig, comm: &mut Comm, plan: &Plan<'_>, epoch: Instant) -> RankCensus {
    let mut tr = Recorder::new(epoch, plan.workload, comm.rank());
    let mut secs = Bag::new();
    let mut counts = Bag::new();
    let reps = plan.reps;
    // The PM/FFT sites and calls of 0.1–0.5 s repeat less. Repeat counts
    // are constants, so every rank makes the same collective calls.
    let heavy = reps.min(3);
    tr.open("census");

    // ---- core: the step-0 state ----
    let bg = Background::new(cfg.cosmology);
    let kd = KickDrift::new(cfg.cosmology);
    let decomp = CartDecomp::new(comm.size());
    let mut store = timed(&mut tr, &mut secs, "core.ic", 1, || {
        generate_ics(cfg, &bg, &decomp, comm.rank())
    });
    let overload_width = cfg.overload_cells * cfg.cell_size();
    // Both are idempotent on a homed, wrapped store, so they repeat.
    timed(&mut tr, &mut secs, "core.migrate", reps, || {
        migrate(comm, &decomp, &mut store, cfg.box_size)
    });
    timed(&mut tr, &mut secs, "core.overload", reps, || {
        exchange_overload(comm, &decomp, &mut store, cfg.box_size, overload_width)
    });
    let owned = store.n_owned;
    counts.insert("owned", owned as f64);
    counts.insert("ghosts", (store.len() - owned) as f64);

    // ---- mesh + swfft: the long-range solve, whole and in parts ----
    let n = cfg.ngrid;
    let pm = PmSolver::new(
        comm,
        PmConfig {
            n,
            box_size: cfg.box_size,
            prefactor: 4.0 * std::f64::consts::PI * G_NEWTON,
            split_scale: cfg.split_scale(),
            deconvolve_cic: true,
        },
    );
    let lr_pos = store.pos[..owned].to_vec();
    let lr_mass = store.mass[..owned].to_vec();
    timed(&mut tr, &mut secs, "mesh.pm_accel", heavy, || {
        pm.accelerations(comm, &lr_pos, &lr_mass)
    });
    let mass_grid = timed(&mut tr, &mut secs, "mesh.deposit", heavy, || {
        pm.mass_slab(comm, &lr_pos, &lr_mass)
    });
    let cell_vol = cfg.cell_size().powi(3);
    let rho: Vec<Complex64> = mass_grid
        .iter()
        .map(|&m| Complex64::new(m / cell_vol, 0.0))
        .collect();
    drop(mass_grid);

    let fft = DistFft3d::new(comm, n);
    let sent_before = comm.telemetry().bytes_sent;
    let rho_k = timed_on_copy(&mut tr, &mut secs, "swfft.fwd3d", heavy, &rho, |buf| {
        fft.forward(comm, buf)
    });
    // One forward transform is one transpose (an all-to-all).
    let sent = comm.telemetry().bytes_sent - sent_before;
    counts.insert("transpose_bytes", (sent / heavy.max(1) as u64) as f64);
    let greens = GreensOptions {
        prefactor: pm.config().prefactor,
        split_scale: pm.config().split_scale,
        deconvolve_cic: true,
    };
    let [fx, _, _] = timed(&mut tr, &mut secs, "mesh.greens", heavy, || {
        apply_greens_gradient(&rho_k, n, fft.y0, fft.ny, cfg.box_size, &greens)
    });
    drop(rho_k);
    let comp = timed_on_copy(&mut tr, &mut secs, "swfft.inv3d", heavy, &fx, |buf| {
        fft.inverse(comm, buf)
    });
    drop(fx);
    let real: Vec<f64> = comp.iter().map(|c| c.re).collect();
    drop(comp);
    let needed = cic::needed_planes(n, cfg.box_size, &lr_pos);
    timed(&mut tr, &mut secs, "mesh.interp", heavy, || {
        let planes = cic::gather_planes(comm, n, &real, &needed);
        cic::interpolate(n, cfg.box_size, &lr_pos, &planes)
    });
    drop(real);

    // One pass of 1-D FFTs over every local line (contiguous rows).
    let plan1d = FftPlan::new(n);
    let mut lines = rho.clone();
    timed(&mut tr, &mut secs, "swfft.fft1d", heavy, || {
        for row in lines.chunks_exact_mut(n) {
            plan1d.forward(row);
        }
    });
    counts.insert("fft1d_lines", (lines.len() / n) as f64);
    drop(lines);

    // The other distributed FFT on the same grid (ROADMAP 4a).
    let pencil = PencilFft3d::new(comm, n);
    let pencil_in: Vec<Complex64> = (0..pencil.local_len())
        .map(|i| Complex64::new((i % 251) as f64 / 251.0, 0.0))
        .collect();
    timed_on_copy(
        &mut tr,
        &mut secs,
        "swfft.pencil_fwd3d",
        heavy,
        &pencil_in,
        |buf| pencil.forward(comm, buf),
    );
    drop(pencil_in);
    drop(rho);

    // ---- tree + grav: one force evaluation over the overloaded domain ----
    let hydro = cfg.physics != Physics::GravityOnly;
    let spacing = cfg.particle_spacing();
    let r_cut = 7.0 * cfg.split_scale();
    let cutoff = if hydro {
        r_cut.max(2.0 * H_CAP_SPACING * spacing)
    } else {
        r_cut
    };
    let (lo, hi) = decomp.subdomain(comm.rank());
    let dom_lo = lo.map(|x| x * cfg.box_size - overload_width);
    let dom_hi = hi.map(|x| x * cfg.box_size + overload_width);
    let cm_cfg = CmConfig {
        bin_width: cutoff.max(1e-3),
        max_leaf: MAX_LEAF,
    };
    let mut cm = timed(&mut tr, &mut secs, "tree.build", reps, || {
        ChainingMesh::build(&store.pos, dom_lo, dom_hi, &cm_cfg)
    });
    let grav_cfg = {
        let mut g = GravConfig::new(G_NEWTON, cfg.split_scale(), cfg.softening_frac * spacing);
        g.device = cfg.device;
        g.mode = cfg.exec_mode;
        g
    };
    let pairs = timed(&mut tr, &mut secs, "tree.pairs", reps, || {
        cm.interaction_pairs(grav_cfg.table().r_cut(), None)
    });
    counts.insert("tree.leaves", cm.n_leaves() as f64);
    counts.insert("tree.leaf_pairs", pairs.len() as f64);
    counts.insert("tree.particles", store.len() as f64);

    let (g, grav_allocs) = counting(|| grav_step(&store.pos, &store.mass, &cm, &grav_cfg));
    counts.insert("grav.allocs", grav_allocs.0 as f64);
    counts.insert("grav.alloc_bytes", grav_allocs.1 as f64);
    counts.insert("grav.pairs", g.counters.pairs as f64);
    counts.insert("grav.flops", g.counters.flops as f64);
    counts.insert("grav.masked_flops", g.counters.masked_lane_flops as f64);
    drop(g);
    timed(&mut tr, &mut secs, "grav.step", heavy, || {
        grav_step(&store.pos, &store.mass, &cm, &grav_cfg)
    });
    timed(&mut tr, &mut secs, "tree.grow", reps, || {
        cm.grow_aabbs(&store.pos, None)
    });

    // Kernel-only sweeps over the same interaction list.
    let grav_states: Vec<GravState> = cm
        .order
        .iter()
        .map(|&i| GravState {
            pos: store.pos[i as usize],
            mass: store.mass[i as usize],
        })
        .collect();
    let grav_kernel = GravityKernel {
        table: grav_cfg.table().clone(),
    };
    let (kc, _) = timed_sweep(
        &mut tr,
        &mut secs,
        "grav.kernel_sweep",
        heavy,
        &grav_kernel,
        cfg,
        &cm,
        &pairs,
        &grav_states,
    );
    counts.insert("grav.sweep_pairs", kc.pairs as f64);
    let reach2 = grav_cfg.table().r_cut().powi(2);
    let reach_states: Vec<ReachState> = grav_states
        .iter()
        .map(|s| ReachState { pos: s.pos, reach2 })
        .collect();
    let (nc, within) = timed_sweep(
        &mut tr,
        &mut secs,
        "gpusim.null_sweep",
        heavy,
        &ReachKernel,
        cfg,
        &cm,
        &pairs,
        &reach_states,
    );
    counts.insert("null.pairs", nc.pairs as f64);
    counts.insert("grav.useful_pairs", within.iter().sum::<u64>() as f64);
    drop((grav_states, reach_states, pairs));

    // ---- sph (+ gas tree, subgrid cooling): one hydro evaluation ----
    let mut h_range = (f64::INFINITY, 0.0f64);
    let gas_idx = store.indices_of_all(Species::Gas);
    if hydro && !gas_idx.is_empty() {
        let a = cfg.a_init;
        let pos: Vec<[f64; 3]> = gas_idx.iter().map(|&i| store.pos[i]).collect();
        let vpec: Vec<[f64; 3]> = gas_idx
            .iter()
            .map(|&i| store.vel[i].map(|v| v / a))
            .collect();
        let mass: Vec<f64> = gas_idx.iter().map(|&i| store.mass[i]).collect();
        let u: Vec<f64> = gas_idx.iter().map(|&i| store.u[i]).collect();
        let mut h: Vec<f64> = gas_idx.iter().map(|&i| store.h[i]).collect();
        let gas_cm = timed(&mut tr, &mut secs, "tree.build_gas", reps, || {
            ChainingMesh::build(&pos, dom_lo, dom_hi, &cm_cfg)
        });
        let sph_cfg: SphConfig<CubicSpline> = SphConfig {
            kernel: CubicSpline,
            eos: Default::default(),
            opts: Default::default(),
            device: cfg.device,
            mode: cfg.exec_mode,
        };
        // The opening kick's evaluation sets every owned particle's
        // smoothing length from its fresh density, as the driver does;
        // the timed evaluations then see the h spread the run sees.
        let first = sph_step(
            &SphInput {
                pos: &pos,
                vel: &vpec,
                mass: &mass,
                h: &h,
                u: &u,
            },
            &gas_cm,
            &sph_cfg,
        );
        for (gi, &i) in gas_idx.iter().enumerate() {
            if i < owned {
                let target = cfg.sph_eta * (mass[gi] / first.rho[gi].max(1e-30)).cbrt();
                h[gi] = target.clamp(0.5 * spacing, H_CAP_SPACING * spacing);
            }
        }
        drop(first);
        for &hv in &h {
            h_range = (h_range.0.min(hv), h_range.1.max(hv));
        }
        let input = SphInput {
            pos: &pos,
            vel: &vpec,
            mass: &mass,
            h: &h,
            u: &u,
        };
        let (r, sph_allocs) = counting(|| sph_step(&input, &gas_cm, &sph_cfg));
        counts.insert("sph.allocs", sph_allocs.0 as f64);
        counts.insert("sph.alloc_bytes", sph_allocs.1 as f64);
        let merged = r.counters.merged();
        counts.insert("sph.pairs", merged.pairs as f64);
        counts.insert("sph.flops", r.counters.total_flops() as f64);
        counts.insert("sph.masked_flops", merged.masked_lane_flops as f64);
        timed(&mut tr, &mut secs, "sph.step", heavy, || {
            sph_step(&input, &gas_cm, &sph_cfg)
        });

        // The three kernels alone, states rebuilt from the result.
        let kernel = CubicSpline;
        let support = kernel.support();
        let sph_pairs = gas_cm.interaction_pairs(support * h_range.1, None);
        let slot = |s: usize| gas_cm.order[s] as usize;
        let slots = 0..gas_cm.order.len();
        let geom: Vec<GeomState> = slots
            .clone()
            .map(|s| GeomState {
                pos: pos[slot(s)],
                h: h[slot(s)],
                m_or_v: mass[slot(s)],
            })
            .collect();
        let (dc, _) = timed_sweep(
            &mut tr,
            &mut secs,
            "sph.density_sweep",
            heavy,
            &DensityKernel { kernel },
            cfg,
            &gas_cm,
            &sph_pairs,
            &geom,
        );
        counts.insert("sph.list_pairs", dc.pairs as f64);
        let geom_v: Vec<GeomState> = slots
            .clone()
            .map(|s| GeomState {
                pos: pos[slot(s)],
                h: h[slot(s)],
                m_or_v: r.vol[slot(s)],
            })
            .collect();
        timed_sweep(
            &mut tr,
            &mut secs,
            "sph.moments_sweep",
            heavy,
            &MomentsKernel { kernel },
            cfg,
            &gas_cm,
            &sph_pairs,
            &geom_v,
        );
        let force_states: Vec<ForceState> = slots
            .clone()
            .map(|s| {
                let i = slot(s);
                ForceState {
                    pos: pos[i],
                    vel: vpec[i],
                    h: h[i],
                    p: r.pressure[i],
                    rho: r.rho[i],
                    cs: r.cs[i],
                    vol: r.vol[i],
                    balsara: 1.0,
                    corr: r.corr[i],
                }
            })
            .collect();
        let force_kernel = ForceKernel {
            kernel,
            opts: sph_cfg.opts,
        };
        timed_sweep(
            &mut tr,
            &mut secs,
            "sph.force_sweep",
            heavy,
            &force_kernel,
            cfg,
            &gas_cm,
            &sph_pairs,
            &force_states,
        );
        let reach: Vec<ReachState> = slots
            .map(|s| ReachState {
                pos: pos[slot(s)],
                reach2: (support * h[slot(s)]).powi(2),
            })
            .collect();
        let mut useful = vec![0u64; reach.len()];
        sweep(
            &ReachKernel,
            &cfg.device,
            cfg.exec_mode,
            &gas_cm,
            &sph_pairs,
            &reach,
            &mut useful,
        );
        counts.insert("sph.useful_pairs", useful.iter().sum::<u64>() as f64);

        // Cooling over the owned gas, at the driver's cheap density
        // estimate `m (eta / h)^3`.
        let cooling = CoolingModel::new(cfg.cosmology.h);
        let da_sub = cfg.da_pm() / f64::from(n_substeps(cfg.max_rung));
        let dt_gyr = kd.dt_gyr(a, a + da_sub);
        let owned_gas: Vec<usize> = (0..gas_idx.len())
            .filter(|&gi| gas_idx[gi] < owned)
            .collect();
        timed(&mut tr, &mut secs, "subgrid.cool", reps, || {
            owned_gas
                .iter()
                .map(|&gi| {
                    let rho = mass[gi] * (1.6 / h[gi].max(1e-6)).powi(3);
                    cooling.cool_particle(rho, u[gi], 0.0, a + 0.5 * da_sub, dt_gyr)
                })
                .sum::<f64>()
        });
        counts.insert("cooled", owned_gas.len() as f64);
    }

    // ---- iosim: one checkpoint through the tiers, and back ----
    let blocks = checkpoint_blocks(&store, cfg.box_size);
    let encoded_len = timed(&mut tr, &mut secs, "iosim.encode", reps, || {
        encode_blocks(&blocks).len()
    });
    counts.insert("iosim.ckpt_bytes", encoded_len as f64);
    let pfs_dir = plan
        .io_dir
        .join("pfs")
        .join(format!("rank-{}", comm.rank()));
    let tiers = TieredConfig {
        local_dir: plan.io_dir.join(format!("nvme-{}", comm.rank())),
        pfs_dir: pfs_dir.clone(),
        window: cfg.checkpoint_window.max(1),
        ..TieredConfig::frontier(plan.io_dir)
    };
    match TieredWriter::new(tiers) {
        Ok(mut writer) => {
            let mut step = 0u64;
            let mut write_failed = false;
            timed(&mut tr, &mut secs, "iosim.ckpt_write", reps, || {
                write_failed |= writer.write_checkpoint(step, &blocks, 0.0, 1.0).is_err();
                step += 1;
            });
            timed(&mut tr, &mut secs, "iosim.ckpt_drain", 1, || writer.drain());
            let loaded = timed(&mut tr, &mut secs, "iosim.ckpt_load", reps, || {
                TieredWriter::load_latest_valid(&pfs_dir).is_some()
            });
            counts.insert("iosim.failed", f64::from(u8::from(write_failed || !loaded)));
            writer.finish();
        }
        Err(_) => {
            counts.insert("iosim.failed", 1.0);
        }
    }
    drop(blocks);

    // ---- analysis: the in-situ products ----
    let vel = store.vel[..owned].to_vec();
    let b_link = 0.2 * spacing;
    let n_halos = timed(&mut tr, &mut secs, "analysis.fof", heavy, || {
        fof_halos(&lr_pos, &vel, &lr_mass, b_link, 10).len()
    });
    counts.insert("analysis.halos", n_halos as f64);
    let pm_power = PmSolver::new(
        comm,
        PmConfig {
            n,
            box_size: cfg.box_size,
            prefactor: 1.0,
            split_scale: 0.0,
            deconvolve_cic: false,
        },
    );
    timed(&mut tr, &mut secs, "analysis.power", heavy, || {
        let (delta_k, y0, ny) = pm_power.density_k(comm, &lr_pos, &lr_mass);
        measure_power(comm, &delta_k, n, y0, ny, cfg.box_size)
    });
    if comm.rank() == 0 && lr_pos.len() > 50 {
        // The driver's rank-0 subsample.
        let stride = (lr_pos.len() / 1500).max(1);
        let sample: Vec<[f64; 3]> = lr_pos.iter().step_by(stride).copied().collect();
        timed(&mut tr, &mut secs, "analysis.xi", heavy, || {
            correlation_function(&sample, cfg.box_size, 0.3 * spacing, 0.25 * cfg.box_size, 8)
        });
    }
    timed(&mut tr, &mut secs, "analysis.bvh_build", reps, || {
        Lbvh::build(&lr_pos)
    });

    // ---- ranks: the collectives the step leans on ----
    let size = comm.size();
    timed(&mut tr, &mut secs, "ranks.a2av", reps * 4, || {
        comm.all_to_allv(vec![vec![comm.rank() as u64]; size])
    });
    const ALLREDUCE_BATCH: usize = 50;
    timed(&mut tr, &mut secs, "ranks.allreduce_batch", reps, || {
        (0..ALLREDUCE_BATCH)
            .map(|_| comm.all_reduce_f64(1.0, f64::max))
            .sum::<f64>()
    });
    secs.insert(
        "ranks.allreduce",
        secs["ranks.allreduce_batch"] / ALLREDUCE_BATCH as f64,
    );
    let sends_before = comm.telemetry().sends;
    timed(&mut tr, &mut secs, "ranks.smoke", 1, || {
        smoke(comm, plan.seed, 2)
    });
    counts.insert("smoke.hops", (comm.telemetry().sends - sends_before) as f64);

    tr.close();
    let rates = rank_rates(&secs, &counts, n);
    RankCensus {
        secs,
        counts,
        rates,
        h_range,
        spans: tr.into_spans(),
    }
}

/// One rank's rates and timing ratios, from its own seconds and counts.
/// A quantity whose work this rank did not have is left out.
fn rank_rates(secs: &Bag, counts: &Bag, ngrid: usize) -> Bag {
    let s = |k: &str| secs.get(k).copied().unwrap_or(0.0);
    let c = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let mut rates = Bag::new();
    let mut put = |name: &'static str, num: f64, den: f64| {
        if num > 0.0 && den > 0.0 {
            rates.insert(name, num / den);
        }
    };
    // Computed operation count of a length-n complex FFT: 5 n log2 n.
    let fft_flops = 5.0 * ngrid as f64 * (ngrid as f64).log2();
    put(
        "swfft.fft1d_gflops",
        c("fft1d_lines") * fft_flops / 1e9,
        s("swfft.fft1d"),
    );
    put(
        "gpusim.null_ns_per_pair",
        s("gpusim.null_sweep") * 1e9,
        c("null.pairs"),
    );
    put("grav.pairs_per_s", c("grav.pairs"), s("grav.step"));
    put(
        "grav.kernel_pairs_per_s",
        c("grav.sweep_pairs"),
        s("grav.kernel_sweep"),
    );
    put("grav.host_gflops", c("grav.flops") / 1e9, s("grav.step"));
    put(
        "grav.in_kernel_frac",
        s("grav.kernel_sweep"),
        s("grav.step"),
    );
    put("sph.pairs_per_s", c("sph.pairs"), s("sph.step"));
    put(
        "sph.density_pairs_per_s",
        c("sph.list_pairs"),
        s("sph.density_sweep"),
    );
    put(
        "sph.moments_pairs_per_s",
        c("sph.list_pairs"),
        s("sph.moments_sweep"),
    );
    put(
        "sph.force_pairs_per_s",
        c("sph.list_pairs"),
        s("sph.force_sweep"),
    );
    put("sph.host_gflops", c("sph.flops") / 1e9, s("sph.step"));
    put(
        "sph.in_kernel_frac",
        s("sph.density_sweep") + s("sph.moments_sweep") + s("sph.force_sweep"),
        s("sph.step"),
    );
    put(
        "subgrid.cool_ns_per_particle",
        s("subgrid.cool") * 1e9,
        c("cooled"),
    );
    put(
        "iosim.encode_mb_per_s",
        c("iosim.ckpt_bytes") / 1e6,
        s("iosim.encode"),
    );
    rates
}

impl Census {
    /// A per-rank rate (mean over ranks); 0 if no rank had the work.
    pub fn r(&self, name: &str) -> f64 {
        self.rates.get(name).copied().unwrap_or(0.0)
    }

    /// Seconds of a census site (max over ranks); 0 if it did not run.
    pub fn s(&self, name: &str) -> f64 {
        self.secs.get(name).copied().unwrap_or(0.0)
    }

    /// A summed count; 0 if absent.
    pub fn c(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}
