//! The full simulation driver: the per-PM-step loop of Fig. 2.
//!
//! A PM step inherits the particle store and one scalar — the substep
//! count of the step before, when that step left its closing half-kicks
//! to this one — so a step restarted from its checkpoint is the step the
//! uninterrupted run took, bit for bit, in every physics mode.
//!
//! A fresh start (and a supervisor cold start) builds the store with
//! [`distributed_ics`], a collective: step 0 starts after the IC's two
//! all-to-alls, and its migrate homes the particles, each made by the rank
//! holding its lattice plane. The cosmology and force-split tables are
//! built once per run, in `supervise`, and lent to every rank.
//!
//! Per global PM step, one fn per stage over a rank's two contexts, `Run`
//! (what the stages read) and `RankState` (what they write):
//!
//! 1. `migrate_and_refresh`: migrate + overload refresh (all-to-all; phase `Misc`);
//! 2. `long_range_kick`: long-range spectral solve and kick
//!    (`LongRange`): the step before's closing half-kick and this step's
//!    opening one, from one solve;
//! 3. `build_mesh`: one chaining-mesh/tree build (`TreeBuild`);
//! 4. `short_range_block`: gravity + CRKSPH + subgrid (`ShortRange`):
//!    opening forces → CFL rungs of the owned gas from *their* signal
//!    velocities → the deepest rung any rank holds, all-reduced into the
//!    step's one subcycle depth → one kick of the step before's last
//!    closing half-width plus this step's opening half-width → chained KDK
//!    at that depth, ending on the last drift. Forces are computed for the
//!    step's `Sinks`, the owned particles — the overload ghosts are
//!    sources; each star-formation draw comes from a stream keyed by
//!    `(seed, particle id, PM step, substep)`;
//! 5. `in_situ_analysis`: in-situ analysis at its cadence (`Analysis`);
//! 6. `close_step`: the final step only, its closing long-range half-kick
//!    (its closing short-range one ends stage 4);
//! 7. `write_checkpoint`: a full tiered checkpoint every step (`Io`);
//!    then `reduce_ledger`, the conservation ledger's end-of-step totals.
//!
//! Integration note: in a kick–drift–kick leapfrog the closing half-kick
//! of one step and the opening half-kick of the next read forces at the
//! same positions, so every PM-step boundary is one synchronisation point
//! with one long-range and one short-range solve ([`closing_widths`]
//! gives the widths the step before owes). Between steps — in a non-final
//! checkpoint, ledger record or in-situ analysis — velocities, `u` and `h`
//! are one closing half-kick behind the positions; the final state is
//! synchronised. (Documented reproduction simplification:) the rung
//! machinery assigns per-particle rungs and drives all workload and
//! utilization accounting, but the *executed* integration advances every
//! particle at the deepest occupied rung — the paper's own "low-z Flat"
//! mode. Block-selective kicks change integration error, not the
//! architecture under study. The rungs are scratch of the step that
//! assigns them, neither shipped with a particle nor checkpointed.

use crate::config::{Physics, SimConfig, H_CAP_SPACING};
use crate::ic::distributed_ics;
use crate::kicks::KickDrift;
use crate::overload::{exchange_overload, migrate, wrapped_axes};
use crate::particles::{ParticleRecord, ParticleStore, Species};
use crate::timers::{Phase, Timers, PHASES};
use crate::timestep::{n_substeps, rung_for, RungStats};
use hacc_analysis::power::PowerBin;
use hacc_analysis::twopoint::XiBin;
use hacc_analysis::{
    compton_y_map, correlation_function, fof_halos, measure_power, populate, HodParams, Lbvh,
};
use hacc_fault::{FaultPlan, FaultProbe, FaultState};
use hacc_gpusim::{execute_with_relaunch, ExecutionModel, KernelCounters, ProfileTable};
use hacc_grav::{grav_step_sinks, GravConfig, CUTOFF_SPLIT_SCALES};
use hacc_iosim::format::Block;
use hacc_iosim::{IoStats, TieredConfig, TieredWriter};
use hacc_mesh::{PmConfig, PmSolver};
use hacc_ranks::{CartDecomp, Comm, World};
use hacc_telem::{
    CommCounters, ConservationLedger, FaultCounters, FaultKind, GpuKernelRow, LedgerRecord,
    RankTelemetry, Span, TelemetryReport, Tracer,
};
use hacc_sph::pipeline::{cfl_timestep, sph_step_sinks, SphConfig, SphInput, SphResult};
use hacc_sph::CubicSpline;
use hacc_subgrid::{CoolingModel, StarFormationModel, SupernovaModel};
use hacc_tree::{ChainingMesh, CmConfig, MAX_LEAF};
use hacc_units::constants::G_NEWTON;
use hacc_units::{Background, LinearPower};
use hacc_rt::rand::rngs::StdRng;
use std::path::{Path, PathBuf};

/// Per-PM-step record.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Step index.
    pub step: usize,
    /// Scale factor at step start.
    pub a: f64,
    /// Redshift at step start.
    pub z: f64,
    /// Substeps executed.
    pub substeps: u32,
    /// Adaptive-vs-flat workload statistics of the rung assignment.
    pub rung_stats: RungStats,
    /// Owned particles on this rank at step start (rank 0's view of the
    /// global sum).
    pub particles: u64,
    /// Stars formed this step (global).
    pub stars_formed: u64,
    /// Modeled GPU kernel seconds this step (max over ranks).
    pub gpu_seconds_modeled: f64,
    /// Wall-clock solver seconds this step (max over ranks).
    pub wall_seconds: f64,
}

/// End-of-run report (assembled on rank 0).
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Rank count the run used.
    pub n_ranks: usize,
    /// Global particle count.
    pub total_particles: u64,
    /// Per-step records.
    pub steps: Vec<StepRecord>,
    /// Wall-clock timers, summed over ranks.
    pub timers: Timers,
    /// Merged GPU counters across ranks.
    pub counters: KernelCounters,
    /// Per-kernel profile (rocprof-style), merged across ranks.
    pub profile: ProfileTable,
    /// Per-rank modeled device utilizations (Fig. 6 distributions).
    pub utilizations: Vec<f64>,
    /// I/O statistics (rank 0's writer, machine-scaled).
    pub io: IoStats,
    /// Final matter power spectrum.
    pub power: Vec<PowerBin>,
    /// FOF halo count at the final analysis.
    pub n_halos: usize,
    /// Mass of the largest halo (M_sun/h; zero when none).
    pub largest_halo: f64,
    /// Two-point correlation function of the final matter field
    /// (rank-0 subsample).
    pub xi: Vec<XiBin>,
    /// Mock galaxies from the HOD population of the final halo catalog.
    pub n_galaxies: u64,
    /// Concentration of the final Compton-y map (fraction of the SZ
    /// signal in the brightest 1% of pixels) — the halo-dominance
    /// diagnostic behind the mm-wave mocks.
    pub y_map_concentration: f64,
    /// Stars formed over the whole run (global).
    pub total_stars: u64,
    /// Particle updates over the run, summed over ranks: one update is one
    /// kick term an owned particle receives (a step's opening half-kick,
    /// each substep's closing kick), so this equals
    /// `Σ_steps particles × (substeps + 1)`. A kick at a PM-step boundary
    /// applies two terms — the step before's closing half and the next
    /// step's opening half — with one solve.
    pub particle_updates: u64,
    /// Particle updates per second of solver wall time (aggregate).
    pub particles_per_second: f64,
    /// Total momentum at the end (conservation diagnostic).
    pub total_momentum: [f64; 3],
    /// Gross momentum scale `sum m |p|` (denominator for the diagnostic).
    pub momentum_scale: f64,
    /// Per-step conservation ledger, globally reduced in rank order
    /// (identical on every rank).
    pub ledger: ConservationLedger,
    /// The unified telemetry bundle: per-rank spans and counters, merged
    /// GPU kernel rows, the ledger, and the non-golden wall-clock phases.
    pub telemetry: TelemetryReport,
    /// FNV-1a hash over the id-sorted final particle state (exact f64
    /// bit patterns) — the bitwise recovery contract: a supervised run
    /// that survived faults must report the same hash as an
    /// uninterrupted same-seed run.
    pub final_state_hash: u64,
    /// Supervisor attempts this run took (1 = no fatal fault).
    pub attempts: u64,
    /// Rollback recoveries the supervisor performed.
    pub rollbacks: u64,
    /// Dynamic sanitizer report (`cfg.sanitize`); `None` when the run
    /// was not sanitized.
    pub sanitizer: Option<hacc_san::SanReport>,
}

/// Where a rank's chaining meshes bin: its subdomain grown by the
/// overload, or one period `[0, box)` along the axes it spans whole
/// ([`wrapped_axes`]), in bins the short-range cutoff wide.
struct MeshDomain {
    lo: [f64; 3],
    hi: [f64; 3],
    wrap: [bool; 3],
    cm_cfg: CmConfig,
}

impl MeshDomain {
    fn new(cfg: &SimConfig, decomp: &CartDecomp, rank: usize) -> Self {
        let width = cfg.overload_cells * cfg.cell_size();
        let wrap = wrapped_axes(decomp, cfg.box_size, width);
        let (lo, hi) = decomp.subdomain(rank);
        let pad = wrap.map(|w| if w { 0.0 } else { width });
        let r_cut = CUTOFF_SPLIT_SCALES * cfg.split_scale();
        // Smoothing lengths are clamped to H_CAP x spacing (in the kick),
        // so the bin width is fixed for the whole run.
        let h_cap = H_CAP_SPACING * cfg.particle_spacing();
        let cutoff = if cfg.physics == Physics::GravityOnly {
            r_cut
        } else {
            r_cut.max(2.0 * h_cap)
        };
        Self {
            lo: [0, 1, 2].map(|d| lo[d] * cfg.box_size - pad[d]),
            hi: [0, 1, 2].map(|d| hi[d] * cfg.box_size + pad[d]),
            wrap,
            cm_cfg: CmConfig {
                bin_width: cutoff.max(1e-3),
                max_leaf: MAX_LEAF,
            },
        }
    }

    fn mesh(&self, pos: &[[f64; 3]]) -> ChainingMesh {
        ChainingMesh::build_wrapped(pos, self.lo, self.hi, self.wrap, &self.cm_cfg)
    }

    /// `p` moved into the period along the wrapped axes.
    fn fold(&self, p: [f64; 3]) -> [f64; 3] {
        [0, 1, 2].map(|d| {
            if self.wrap[d] {
                self.lo[d] + (p[d] - self.lo[d]).rem_euclid(self.hi[d] - self.lo[d])
            } else {
                p[d]
            }
        })
    }
}

/// The short-range forces on the owned particles at one instant: what a
/// kick applies. Evaluated before the kick's width is known — the
/// opening forces also decide the step's subcycle depth.
struct ShortRangeForces {
    /// Short-range gravity of the owned particles (store order).
    grav: Vec<[f64; 3]>,
    /// CRKSPH over the step's gas list; the forces and signal velocities
    /// are the owned gas's. `None` without hydro or without gas.
    sph: Option<SphResult>,
}

/// The sinks of one PM step's short-range solve, the particles whose
/// forces are computed and that are kicked: the owned particles, the
/// store's prefix, and the owned gas, a prefix of the step's gas list.
/// Built once per PM step by [`ShortRange::sinks`]; every loop over sinks
/// reads it.
#[derive(Clone, Copy)]
struct Sinks {
    owned: usize,
    owned_gas: usize,
}

impl Sinks {
    /// Store indices of the owned particles.
    fn particles(self) -> std::ops::Range<usize> {
        0..self.owned
    }

    /// The owned gas of `gas_idx`, the step's gas list.
    fn gas(self, gas_idx: &[usize]) -> &[usize] {
        &gas_idx[..self.owned_gas]
    }
}

/// A rank's short-range solver: the books its kernel launches keep, and
/// the gas list and SoA gather buffers of the hydro solve. The gas is
/// re-gathered every solve (positions drift, `u`/`h` update), but the
/// allocations are step-invariant, so they live across steps.
#[derive(Default)]
struct ShortRange {
    counters: KernelCounters,
    profile: ProfileTable,
    /// Store indices of the step's gas, owned then ghosts, ascending.
    gas_idx: Vec<usize>,
    pos: Vec<[f64; 3]>,
    vpec: Vec<[f64; 3]>,
    mass: Vec<f64>,
    h: Vec<f64>,
    u: Vec<f64>,
}

impl ShortRange {
    /// This PM step's sinks; refills the gas list from `store`.
    // p1: hot-loop
    fn sinks(&mut self, store: &ParticleStore) -> Sinks {
        store.indices_of_all_into(Species::Gas, &mut self.gas_idx);
        // The store keeps owned particles first and `gas_idx` ascends, so
        // the owned gas is a prefix of it.
        let owned_gas = self.gas_idx.partition_point(|&i| i < store.n_owned);
        Sinks { owned: store.n_owned, owned_gas }
    }

    /// The short-range forces on `sinks` at scale factor `a`, sourced by
    /// every particle `cm` bins.
    // p1: hot-loop
    fn forces(
        &mut self,
        run: &Run,
        store: &ParticleStore,
        cm: &ChainingMesh,
        a: f64,
        sinks: Sinks,
    ) -> ShortRangeForces {
        // Short-range gravity on the owned particles, sourced by everyone
        // (the ghosts' own accelerations have no reader, so ghost-only
        // leaf pairs are never swept). Launches go through the relaunch
        // harness: an injected launch failure discards the attempt and
        // recomputes — deterministic inputs make the retry bit-identical,
        // so physics is unaffected.
        let mut launch_counters = KernelCounters::default();
        let g = execute_with_relaunch(
            4,
            &mut launch_counters,
            |_| run.probe.as_ref().map(|p| p.fire(FaultKind::GpuLaunch)).unwrap_or(false),
            || {
                let g = grav_step_sinks(&store.pos, &store.mass, cm, &run.tables.grav, sinks.owned);
                let c = g.counters.clone();
                (g, c)
            },
        );
        if let Some(p) = &run.probe {
            for _ in 0..launch_counters.relaunches {
                p.recovered(FaultKind::GpuLaunch);
            }
        }
        self.counters.merge(&launch_counters);
        self.profile.record("grav_short_range", &launch_counters);
        // CRKSPH for the gas: forces on the owned gas, density and
        // corrections for the ghosts that source them too.
        let sph = run.sph.as_ref().filter(|_| !self.gas_idx.is_empty()).map(|sph_cfg| {
            self.gather(store, a, &run.domain);
            let input = SphInput {
                pos: &self.pos,
                vel: &self.vpec,
                mass: &self.mass,
                h: &self.h,
                u: &self.u,
            };
            let r = sph_step_sinks(&input, &run.domain.mesh(&self.pos), sph_cfg, sinks.owned_gas);
            self.counters.merge(&r.counters.merged());
            r.counters.record_into(&mut self.profile);
            r
        });
        ShortRangeForces { grav: g.accel, sph }
    }

    /// Refill the gather buffers from `store` at the gas indices;
    /// velocities are converted to peculiar (`v / a`) on the way in, and
    /// positions folded into the period along `domain`'s wrapped axes, so
    /// that drift across the seam since the step's migrate leaves no gas
    /// outside the bins.
    fn gather(&mut self, store: &ParticleStore, a: f64, domain: &MeshDomain) {
        self.pos.clear();
        self.vpec.clear();
        self.mass.clear();
        self.h.clear();
        self.u.clear();
        for &i in &self.gas_idx {
            self.pos.push(domain.fold(store.pos[i]));
            let v = store.vel[i];
            self.vpec.push([v[0] / a, v[1] / a, v[2] / a]);
            self.mass.push(store.mass[i]);
            self.h.push(store.h[i]);
            self.u.push(store.u[i]);
        }
    }

    /// Kick `sinks` by the forces `f` evaluated at `a` over the kick
    /// factor `width`; the owned gas also takes a smoothing length from
    /// its fresh density.
    // p1: hot-loop
    fn kick(
        &self,
        run: &Run,
        store: &mut ParticleStore,
        f: &ShortRangeForces,
        a: f64,
        width: f64,
        sinks: Sinks,
    ) {
        for i in sinks.particles() {
            for d in 0..3 {
                store.vel[i][d] += f.grav[i][d] / a * width;
            }
        }
        let Some(r) = &f.sph else { return };
        let (cfg, spacing) = (run.cfg, run.cfg.particle_spacing());
        for (gi, &i) in sinks.gas(&self.gas_idx).iter().enumerate() {
            for d in 0..3 {
                store.vel[i][d] += r.accel[gi][d] * width;
            }
            store.u[i] = (store.u[i] + r.du_dt[gi] * width).max(1e-10);
            let target = cfg.sph_eta * (store.mass[i] / r.rho[gi].max(1e-30)).cbrt();
            store.h[i] = target.clamp(0.5 * spacing, H_CAP_SPACING * spacing);
        }
    }
}

struct RankOutput {
    steps: Vec<StepRecord>,
    spans: Vec<Span>,
    comm: CommCounters,
    ledger: ConservationLedger,
    counters: KernelCounters,
    profile: ProfileTable,
    io: Option<IoStats>,
    power: Vec<PowerBin>,
    n_halos: usize,
    largest_halo: f64,
    xi: Vec<XiBin>,
    n_galaxies: u64,
    y_map_concentration: f64,
    /// The end-of-run [`owned_totals`].
    totals: [f64; 7],
    faults: FaultCounters,
    state_hash: u64,
}

/// Where a rank's initial state comes from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ResumeMode {
    /// Fresh start from initial conditions.
    Fresh,
    /// Resume from the newest checkpoint that is CRC-valid on *every*
    /// rank (a torn or corrupted file on one rank invalidates that step
    /// globally). When no common step survives, a supervisor rollback
    /// cold-starts from the initial conditions; the CLI `--resume` path
    /// (`or_cold_start: false`) escalates instead.
    Consistent { or_cold_start: bool },
}

/// A failure in the step loop's checkpoint/IO path, carried to the
/// fault supervisor as a typed panic payload instead of an anonymous
/// `.expect` string. [`supervise`] downcasts the payload on catch to log
/// which path failed before rolling back.
#[derive(Debug, Clone)]
enum StepError {
    /// `--resume` found no checkpoint step that is CRC-valid on every
    /// rank's PFS.
    NoValidCheckpoint,
    /// A checkpoint step validated in the cross-rank intersection could
    /// not be decoded when actually loaded.
    CheckpointLoad { step: u64 },
    /// A CRC-valid checkpoint decoded, but a required block, named by
    /// `field`, is missing (format-version mismatch) or malformed: a
    /// particle column not as long as `x`, a species code that is no
    /// [`Species`], a run-level block of the wrong length.
    CheckpointDecode { field: String },
    /// `--resume` found a checkpoint written on another PM-step schedule
    /// than the resumed run's: its steps are not this run's steps.
    ScheduleMismatch { checkpoint: Schedule, run: Schedule },
    /// The tiered writer could not create its staging directories.
    IoSetup(String),
    /// Writing a checkpoint failed mid-run.
    CheckpointWrite { step: u64, cause: String },
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::NoValidCheckpoint => {
                write!(f, "no valid checkpoint to resume from")
            }
            StepError::CheckpointLoad { step } => {
                write!(f, "checkpoint for step {step} failed to load after validating")
            }
            StepError::CheckpointDecode { field } => {
                write!(f, "checkpoint field `{field}` is missing or malformed")
            }
            StepError::ScheduleMismatch { checkpoint, run } => {
                write!(f, "checkpoint was written on the schedule {checkpoint}, not this run's {run}")
            }
            StepError::IoSetup(e) => write!(f, "tiered writer setup failed: {e}"),
            StepError::CheckpointWrite { step, cause } => {
                write!(f, "checkpoint write at step {step} failed: {cause}")
            }
        }
    }
}

/// A run's PM-step schedule: `pm_steps` equal steps in `a` from `a_init`
/// to `a_final`. Its checkpoints record it, and a resume must match it
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Schedule {
    a_init: f64,
    a_final: f64,
    pm_steps: usize,
}

impl Schedule {
    fn of(cfg: &SimConfig) -> Self {
        Self { a_init: cfg.a_init, a_final: cfg.a_final, pm_steps: cfg.pm_steps }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Schedule { a_init, a_final, pm_steps } = self;
        write!(f, "a = {a_init} -> {a_final} in {pm_steps} PM steps")
    }
}

/// Abort the current attempt with a typed payload the supervisor can
/// identify. Unwinding is the only exit from `rank_main` that reaches
/// the `catch_unwind` in [`supervise`], so the escalation is a panic by
/// design — but one carrying a [`StepError`] the supervisor downcasts,
/// not a bare string. The message is mirrored to stderr for the final
/// attempt, which the supervisor rethrows unlogged.
fn escalate(e: StepError) -> ! {
    eprintln!("step-loop escalation: {e}");
    std::panic::panic_any(e)
}

/// Run the configured simulation on `n_ranks` simulated ranks, under the
/// fault supervisor.
///
/// `cfg.chaos` is parsed into a [`FaultPlan`] and per-rank fault probes
/// are armed through the whole stack (comm transport, tiered writer, GPU
/// launches, step loop). Transient faults recover in place; a fatal
/// fault (rank panic) tears the world down, and the supervisor rolls
/// back to the newest globally consistent checkpoint and re-runs —
/// planned events fire exactly once per run, so the replay converges and
/// the recovered run reports the same `final_state_hash` as an
/// uninterrupted same-seed run. With no chaos spec (or an empty plan)
/// the run is one attempt with no probes armed.
///
/// With `cfg.sanitize` set the world runs under the hacc-san dynamic
/// sanitizer; the findings report is attached to the returned
/// [`SimReport`] and mirrored into the telemetry golden section. A
/// sanitizer abort (confirmed deadlock or payload mismatch) panics with
/// the rendered report, since there are no rank results to assemble.
pub fn run_simulation(cfg: &SimConfig, n_ranks: usize) -> SimReport {
    supervise(cfg, n_ranks, ResumeMode::Fresh)
}

/// Resume an interrupted run from the newest checkpoint step that is
/// CRC-valid on every rank's (simulated) PFS — the paper's
/// fault-tolerance path. The run continues from the following PM step
/// through `cfg.pm_steps`. Panics if no such step exists.
pub fn resume_simulation(cfg: &SimConfig, n_ranks: usize) -> SimReport {
    assert!(
        cfg.io_dir.is_some(),
        "resume requires cfg.io_dir pointing at the interrupted run"
    );
    assert!(!cfg.sanitize, "resume does not combine with cfg.sanitize");
    supervise(cfg, n_ranks, ResumeMode::Consistent { or_cold_start: false })
}

/// The fault plan `cfg.chaos` asks for (empty without a spec), or the
/// one-line reason the spec is malformed — callers that take the spec
/// from a user check it here before starting a world.
pub fn chaos_plan(cfg: &SimConfig, n_ranks: usize) -> Result<FaultPlan, String> {
    match cfg.chaos.as_deref() {
        Some(spec) => FaultPlan::parse(spec, cfg.seed, cfg.pm_steps as u64, n_ranks)
            .map_err(|e| format!("invalid chaos spec: {e}")),
        None => Ok(FaultPlan::empty()),
    }
}

/// The one path from a configuration to a world: every attempt of every
/// run — fresh, resumed, sanitized, or replayed after a rollback — is
/// started here.
fn supervise(cfg: &SimConfig, n_ranks: usize, mut resume_mode: ResumeMode) -> SimReport {
    cfg.validate();
    if let Err(e) = cfg.check_ranks(n_ranks) {
        panic!("{e}");
    }
    let plan = chaos_plan(cfg, n_ranks).unwrap_or_else(|e| panic!("{e}"));
    let io_base = IoBase::resolve(cfg);
    let armed = !plan.is_empty();
    // Each fatal event can kill at most one attempt (consumed flags
    // survive rollbacks), so the event count bounds the retries; +1 for
    // the final clean attempt.
    let max_attempts = plan.events.len() as u64 + 1;
    let state = std::sync::Arc::new(FaultState::new(plan, n_ranks));
    let tables = RunTables::new(cfg);
    loop {
        state.begin_attempt();
        let body = |comm: &mut Comm| {
            let probe =
                armed.then(|| FaultProbe::new(std::sync::Arc::clone(&state), comm.rank()));
            rank_main(cfg, &tables, comm, &io_base.path, resume_mode, probe)
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if !cfg.sanitize {
                return (World::run(n_ranks, body), None);
            }
            let (outputs, report) = World::run_sanitized(n_ranks, body);
            let outputs = outputs.unwrap_or_else(|| {
                panic!("sanitizer aborted the run:\n{}", report.render_text())
            });
            (outputs, Some(report))
        }));
        match result {
            Ok((outputs, sanitizer)) => {
                return assemble_report(
                    cfg,
                    outputs,
                    state.attempts(),
                    state.rollbacks(),
                    sanitizer,
                );
            }
            Err(cause) => {
                if state.attempts() >= max_attempts {
                    std::panic::resume_unwind(cause);
                }
                // Typed escalations from the checkpoint/IO path carry a
                // StepError payload; log the decoded cause so rollback
                // triage doesn't start from an anonymous panic string.
                if let Some(e) = cause.downcast_ref::<StepError>() {
                    eprintln!(
                        "supervisor: attempt {} failed in the checkpoint/IO path: {e}",
                        state.attempts()
                    );
                }
                state.record_rollback();
                resume_mode = ResumeMode::Consistent { or_cold_start: true };
            }
        }
    }
}

/// What a run builds once and lends every rank, as it lends `cfg`: the
/// growth tables, the normalised linear spectrum and the short-range
/// force-split table (8192 erf/exp evaluations). Built per rank, 64 ranks
/// would build them 64 times over, one after another on the host's lanes
/// and ahead of the IC collective every rank waits in.
struct RunTables {
    bg: Background,
    power: LinearPower,
    grav: GravConfig,
}

impl RunTables {
    fn new(cfg: &SimConfig) -> Self {
        let softening = cfg.softening_frac * cfg.particle_spacing();
        let mut grav = GravConfig::new(G_NEWTON, cfg.split_scale(), softening);
        grav.device = cfg.device;
        grav.mode = cfg.exec_mode; // G itself is scaled by 1/a at kick time
        Self {
            bg: Background::new(cfg.cosmology),
            power: LinearPower::new(cfg.cosmology),
            grav,
        }
    }
}

/// A run's I/O root: the directory the caller named, never removed, or —
/// for a run handed none — one of its own under the temp dir, removed
/// when the supervisor returns or unwinds.
struct IoBase {
    path: PathBuf,
    owned: bool,
}

impl IoBase {
    fn resolve(cfg: &SimConfig) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Process id + a process-wide counter: concurrent runs in one
        // process (same seed or not) never share a checkpoint tree.
        static NEXT_RUN: AtomicU64 = AtomicU64::new(0);
        if let Some(dir) = &cfg.io_dir {
            return Self { path: dir.clone(), owned: false };
        }
        // Relaxed: the counter publishes nothing but its own value.
        let run = NEXT_RUN.fetch_add(1, Ordering::Relaxed);
        let name = format!("frontier-sim-{}-{run}", std::process::id());
        Self { path: std::env::temp_dir().join(name), owned: true }
    }
}

impl Drop for IoBase {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

fn assemble_report(
    cfg: &SimConfig,
    outputs: Vec<RankOutput>,
    attempts: u64,
    rollbacks: u64,
    sanitizer: Option<hacc_san::SanReport>,
) -> SimReport {
    let n_ranks = outputs.len();
    let model = ExecutionModel::new(cfg.device);
    let mut timers = Timers::new();
    let mut counters = KernelCounters::default();
    let mut profile = ProfileTable::new();
    let mut utilizations = Vec::with_capacity(n_ranks);
    let mut momentum = [0.0f64; 3];
    let mut momentum_scale = 0.0f64;
    for o in &outputs {
        timers.merge(&Timers::from_spans(&o.spans));
        counters.merge(&o.counters);
        profile.merge(&o.profile);
        utilizations.push(model.utilization(&o.counters));
        momentum_scale += o.totals[4];
        for d in 0..3 {
            momentum[d] += o.totals[1 + d];
        }
    }
    let first = &outputs[0];
    // `StepRecord::particles` is the post-migrate global count, and
    // nothing later in a step changes it.
    let updates: u64 = first.steps.iter().map(|s| s.particles * (u64::from(s.substeps) + 1)).sum();
    let solver_wall = timers.get(Phase::ShortRange).max(1e-12) / n_ranks as f64;

    // Unified telemetry bundle. GPU rows come from the merged profile
    // table; sorted by name so the golden artifact has a stable order.
    let mut gpu: Vec<GpuKernelRow> = profile
        .rows(&model)
        .iter()
        .map(|r| GpuKernelRow {
            name: r.name.clone(),
            launches: r.launches,
            flops: r.flops,
            bytes: r.bytes,
            pairs: r.pairs,
            culled_pairs: r.culled_pairs,
        })
        .collect();
    gpu.sort_by(|a, b| a.name.cmp(&b.name));
    let telemetry = TelemetryReport {
        ranks: outputs
            .iter()
            .enumerate()
            .map(|(rank, o)| RankTelemetry {
                rank,
                spans: o.spans.clone(),
                comm: o.comm.clone(),
                io: o.io.as_ref().map(|s| s.to_telem()).unwrap_or_default(),
                faults: o.faults.clone(),
            })
            .collect(),
        gpu,
        ledger: first.ledger.clone(),
        wall_phases: PHASES
            .iter()
            .map(|&p| (p.name().to_string(), timers.get(p)))
            .collect(),
        attempts,
        rollbacks,
        sanitizer: sanitizer
            .as_ref()
            .map(hacc_san::SanReport::golden_lines)
            .unwrap_or_default(),
    };
    SimReport {
        n_ranks,
        total_particles: cfg.total_particles(),
        steps: first.steps.clone(),
        timers,
        counters,
        profile,
        utilizations,
        io: first.io.clone().unwrap_or_default(),
        power: first.power.clone(),
        n_halos: first.n_halos,
        largest_halo: first.largest_halo,
        xi: first.xi.clone(),
        n_galaxies: outputs.iter().map(|o| o.n_galaxies).sum(),
        y_map_concentration: first.y_map_concentration,
        total_stars: first.steps.iter().map(|s| s.stars_formed).sum(),
        particle_updates: updates,
        particles_per_second: updates as f64 / solver_wall.max(1e-12),
        total_momentum: momentum,
        momentum_scale,
        ledger: first.ledger.clone(),
        telemetry,
        final_state_hash: first.state_hash,
        attempts,
        rollbacks,
        sanitizer,
    }
}

/// What a rank's stages read and none of them writes: the run's
/// configuration and tables, and what the rank builds from them once.
struct Run<'a> {
    cfg: &'a SimConfig,
    tables: &'a RunTables,
    decomp: CartDecomp,
    domain: MeshDomain,
    pm: PmSolver,
    kd: KickDrift,
    /// `None` in a gravity-only run.
    sph: Option<SphConfig<CubicSpline>>,
    /// `None` unless the run has full hydro.
    subgrid: Option<Subgrid>,
    probe: Option<FaultProbe>,
    model: ExecutionModel,
    /// Sanitizer region for this rank's overload (ghost) buffer: the
    /// exchange writes it once per step and the node-local solve reads
    /// it. One region per rank — ghosts are rank-private, and R1 checks
    /// that no other rank touches them.
    ghosts: Option<hacc_san::RegionId>,
}

impl<'a> Run<'a> {
    fn new(
        cfg: &'a SimConfig,
        tables: &'a RunTables,
        comm: &mut Comm,
        probe: Option<FaultProbe>,
    ) -> Self {
        let decomp = CartDecomp::new(comm.size());
        let domain = MeshDomain::new(cfg, &decomp, comm.rank());
        // Long-range PM solver: prefactor 4 pi G; the 1/a of the comoving
        // Poisson equation is applied per step.
        let pm = PmSolver::new(
            comm,
            PmConfig {
                n: cfg.ngrid,
                box_size: cfg.box_size,
                prefactor: 4.0 * std::f64::consts::PI * G_NEWTON,
                split_scale: cfg.split_scale(),
                deconvolve_cic: true,
            },
        );
        let hydro = cfg.physics != Physics::GravityOnly;
        let sph = SphConfig { device: cfg.device, mode: cfg.exec_mode, ..SphConfig::new() };
        Self {
            cfg,
            tables,
            decomp,
            domain,
            pm,
            kd: KickDrift::new(cfg.cosmology),
            sph: hydro.then_some(sph),
            subgrid: (cfg.physics == Physics::Hydro).then(|| Subgrid::new(cfg)),
            probe,
            model: ExecutionModel::new(cfg.device),
            ghosts: hacc_san::armed().then(|| hacc_san::region("ghost-exchange")),
        }
    }
}

/// What a rank's stages write: the particles and what a step hands the
/// next, the rank's telemetry and output, and scratch reused across steps.
struct RankState {
    store: ParticleStore,
    /// The substep count of the last step run when it left its closing
    /// half-kicks to the next step's opening solves; 0 when there is no
    /// such step or it closed itself.
    owed_substeps: u32,
    tracer: Tracer,
    ledger: ConservationLedger,
    writer: Option<TieredWriter>,
    steps: Vec<StepRecord>,
    sr: ShortRange,
    /// The halo-catalog staging columns, refilled in place each step
    /// (lint rule P1).
    halo_cols: [Vec<f64>; 4],
}

impl RankState {
    fn new(
        run: &Run,
        rank: usize,
        io_base: &Path,
        store: ParticleStore,
        owed_substeps: u32,
    ) -> Self {
        let cfg = run.cfg;
        // I/O: every rank stages to its own local dir; rank 0's writer
        // keeps the machine-scale statistics.
        let mut writer = (cfg.checkpoint_every > 0).then(|| {
            let tiered_cfg = TieredConfig {
                local_dir: io_base.join(format!("nvme-{rank}")),
                pfs_dir: pfs_dir(io_base, rank),
                window: cfg.checkpoint_window.max(1),
                ..TieredConfig::frontier(io_base)
            };
            TieredWriter::new(tiered_cfg)
                .unwrap_or_else(|e| escalate(StepError::IoSetup(e.to_string())))
        });
        if let (Some(p), Some(w)) = (&run.probe, writer.as_mut()) {
            w.arm_faults(p.clone());
        }
        Self {
            store,
            owed_substeps,
            tracer: Tracer::new(rank),
            ledger: ConservationLedger::new(),
            writer,
            steps: Vec::with_capacity(cfg.pm_steps),
            sr: ShortRange::default(),
            halo_cols: Default::default(),
        }
    }
}

/// A rank's checkpoint directory on the (simulated) PFS.
fn pfs_dir(io_base: &Path, rank: usize) -> PathBuf {
    io_base.join("pfs").join(format!("rank-{rank}"))
}

/// One PM step: `[a0, a1]` in the scale factor.
struct PmStep {
    index: usize,
    a0: f64,
    a1: f64,
    /// The run's final step, which closes itself.
    last: bool,
    /// An in-situ analysis step.
    analysis: bool,
    /// What the step before left to this step's opening solves.
    owed: Closing,
}

impl PmStep {
    fn new(run: &Run, index: usize, owed_substeps: u32) -> Self {
        let cfg = run.cfg;
        let a0 = cfg.a_init + index as f64 * cfg.da_pm();
        Self {
            index,
            a0,
            a1: a0 + cfg.da_pm(),
            last: index + 1 == cfg.pm_steps,
            analysis: cfg.analysis_every > 0 && (index + 1).is_multiple_of(cfg.analysis_every),
            owed: index.checked_sub(1).map_or(Closing::NONE, |prev| {
                closing_widths(cfg, &run.kd, prev, owed_substeps)
            }),
        }
    }
}

fn rank_main(
    cfg: &SimConfig,
    tables: &RunTables,
    comm: &mut Comm,
    io_base: &Path,
    resume_mode: ResumeMode,
    probe: Option<FaultProbe>,
) -> RankOutput {
    if let Some(p) = &probe {
        comm.arm_faults(p.clone());
    }
    let pfs = pfs_dir(io_base, comm.rank());
    let (store, start_step, owed_substeps) = initial_state(cfg, tables, comm, &pfs, resume_mode);
    let run = Run::new(cfg, tables, comm, probe);
    let mut st = RankState::new(&run, comm.rank(), io_base, store, owed_substeps);

    // p1: hot-loop
    for index in start_step..cfg.pm_steps {
        let step = PmStep::new(&run, index, st.owed_substeps);
        let gpu_start = run.model.kernel_time_s(&st.sr.counters);
        st.tracer.set_step(index as u64);
        if let Some(p) = &run.probe {
            p.set_step(index as u64);
        }
        // p1: allow: per-step trace label, one small allocation per PM step
        let sp_step = st.tracer.begin("step", &format!("step-{index}"));

        let n_owned_global = migrate_and_refresh(&run, comm, &mut st);
        let opening_pm = step.owed.pm + run.kd.kick_factor(step.a0, step.a1) / 2.0;
        long_range_kick(&run, comm, &mut st, "pm-solve+kick", step.a0, opening_pm);
        let mut cm = build_mesh(&run, &mut st);
        let sinks = st.sr.sinks(&st.store);
        let (nsub, rung_stats, stars) =
            short_range_block(&run, comm, &mut st, &mut cm, sinks, &step);
        in_situ_analysis(&run, &mut st, &step);
        close_step(&run, comm, &mut st, &step, nsub);
        let gpu_s = run.model.kernel_time_s(&st.sr.counters) - gpu_start;
        write_checkpoint(&run, &mut st, &step, gpu_s);
        reduce_ledger(comm, &mut st, &step, n_owned_global);

        let stars_formed = comm.all_reduce_sum_u64(stars);
        let gpu_max = comm.all_reduce_f64(gpu_s, f64::max);
        // The step span is the wall-clock authority here: the tracer is
        // the blessed measurement point (lint rule D1 bans raw
        // Instant::now in the driver) and wall_s stays non-golden.
        let wall = st.tracer.end(sp_step);
        let wall_max = comm.all_reduce_f64(wall, f64::max);
        // p1: allow: appends into capacity preallocated to pm_steps
        st.steps.push(StepRecord {
            step: index,
            a: step.a0,
            z: 1.0 / step.a0 - 1.0,
            substeps: nsub,
            rung_stats,
            particles: n_owned_global,
            stars_formed,
            gpu_seconds_modeled: gpu_max,
            wall_seconds: wall_max,
        });
    }

    // --- final analysis: P(k), FOF, xi(r), HOD galaxies, SZ map ---
    let sp = st.tracer.begin(Phase::Analysis.name(), "final-analysis");
    let (power, n_halos, largest_halo, xi, n_galaxies, y_conc) =
        final_analysis(&run, comm, &st.store);
    st.tracer.end(sp);

    let state_hash = global_state_hash(comm, &st.store, cfg.box_size);
    let faults = run.probe.as_ref().map(|p| p.counters()).unwrap_or_default();
    let io = st.writer.map(|w| w.finish());
    RankOutput {
        steps: st.steps,
        spans: st.tracer.into_spans(),
        comm: comm.telemetry(),
        ledger: st.ledger,
        counters: st.sr.counters,
        profile: st.sr.profile,
        io,
        power,
        n_halos,
        largest_halo,
        xi,
        n_galaxies,
        y_map_concentration: y_conc,
        totals: owned_totals(&st.store),
        faults,
        state_hash,
    }
}

/// A rank's particles at the first step it runs, that step, and the
/// `owed_substeps` (see [`RankState`]) the step inherits.
fn initial_state(
    cfg: &SimConfig,
    tables: &RunTables,
    comm: &mut Comm,
    pfs: &Path,
    resume_mode: ResumeMode,
) -> (ParticleStore, usize, u32) {
    let ics = |comm: &mut Comm| distributed_ics(cfg, &tables.bg, &tables.power, comm);
    let ResumeMode::Consistent { or_cold_start } = resume_mode else {
        return (ics(comm), 0, 0);
    };
    // A checkpoint step only counts if every rank can read it: intersect
    // the per-rank valid sets (deterministic — pure function of the
    // on-disk files).
    let mine = TieredWriter::valid_checkpoint_steps(pfs);
    let all = comm.all_gather(mine);
    let common = all
        .iter()
        .skip(1)
        .fold(all[0].clone(), |acc, v| acc.into_iter().filter(|s| v.contains(s)).collect());
    match common.last() {
        Some(&step) => {
            let blocks = TieredWriter::load_checkpoint_at(pfs, step)
                .unwrap_or_else(|| escalate(StepError::CheckpointLoad { step }));
            let (store, owed) = restart_state(&blocks, Schedule::of(cfg));
            (store, step as usize + 1, owed)
        }
        // No surviving common checkpoint: cold-start from the ICs, a
        // collective every rank enters (`common` is the same on all of
        // them). Convergent because consumed fault events never re-fire
        // on the replay.
        None if or_cold_start => (ics(comm), 0, 0),
        None => escalate(StepError::NoValidCheckpoint),
    }
}

/// Stage 1: migrate + overload refresh. Returns the global owned count.
// p1: hot-loop
fn migrate_and_refresh(run: &Run, comm: &mut Comm, st: &mut RankState) -> u64 {
    let (cfg, decomp) = (run.cfg, &run.decomp);
    let sp = st.tracer.begin(Phase::Misc.name(), "migrate+overload");
    migrate(comm, decomp, &mut st.store, cfg.box_size);
    let overload_width = cfg.overload_cells * cfg.cell_size();
    exchange_overload(comm, decomp, &mut st.store, cfg.box_size, overload_width);
    if let Some(reg) = run.ghosts {
        hacc_san::annotate_write(reg);
    }
    st.tracer.end(sp);
    comm.all_reduce_sum_u64(st.store.n_owned as u64)
}

/// Stage 3: the step's one chaining mesh over everything the rank holds.
// p1: hot-loop
fn build_mesh(run: &Run, st: &mut RankState) -> ChainingMesh {
    let sp = st.tracer.begin(Phase::TreeBuild.name(), "chaining-mesh");
    if let Some(reg) = run.ghosts {
        // The node-local solve starts consuming the ghosts here.
        hacc_san::annotate_read(reg);
    }
    let cm = run.domain.mesh(&st.store.pos);
    st.tracer.end(sp);
    cm
}

/// Stage 4: the short-range block — opening forces, rungs, the step's
/// subcycle depth, chained KDK. Returns the substeps, the rung statistics
/// and the stars this rank formed.
// p1: hot-loop
fn short_range_block(
    run: &Run,
    comm: &mut Comm,
    st: &mut RankState,
    cm: &mut ChainingMesh,
    sinks: Sinks,
    step: &PmStep,
) -> (u32, RungStats, u64) {
    let (cfg, kd, a0) = (run.cfg, &run.kd, step.a0);
    let da_pm = cfg.da_pm();
    // Opening forces first: they do not depend on the kick width, and
    // their signal velocities set it. The depth all-reduce below stays
    // outside the short-range spans, so a rank's wait for its peers'
    // forces is not booked as solver time.
    let sp = st.tracer.begin(Phase::ShortRange.name(), "opening-forces");
    let opening = st.sr.forces(run, &st.store, cm, a0, sinks);
    st.tracer.end(sp);

    // --- rung assignment (owned gas by CFL; everyone else on rung 0) ---
    let store = &mut st.store;
    store.rung.fill(0);
    if let Some(r) = &opening.sph {
        for (gi, &i) in sinks.gas(&st.sr.gas_idx).iter().enumerate() {
            let dt_code = cfl_timestep(&[store.h[i]], &[r.vsig[gi]], &[r.cs[gi]], cfg.cfl);
            let da_desired = dt_code * a0 * kd.hubble(a0);
            store.rung[i] = rung_for(da_desired, da_pm, cfg.max_rung);
        }
    }
    let deepest = if cfg.flat_stepping {
        cfg.max_rung
    } else {
        store.rung[sinks.particles()].iter().copied().max().unwrap_or(0)
    };
    // One subcycle depth per PM step: every rank takes the deepest rung
    // any rank holds, so the substep count the report publishes is the
    // one every rank ran.
    let deepest = comm.all_reduce(deepest, u32::max);
    let rung_stats = RungStats::from_rungs(&store.rung[sinks.particles()], deepest);
    let nsub = n_substeps(deepest);
    let da_s = da_pm / nsub as f64;

    let sp_sr = st.tracer.begin(Phase::ShortRange.name(), "subcycle-block");
    // Planned rank loss fires here — mid-step, after this step's
    // migrate/PM work but before its checkpoint, so the newest checkpoint
    // on disk predates the killed step (the node-loss shape the
    // Frontier-E campaign actually survived).
    if let Some(p) = &run.probe {
        if p.fire(FaultKind::RankPanic) {
            panic!("injected fault: rank {} lost at step {}", comm.rank(), step.index);
        }
    }
    let mut stars = 0u64;
    // The opening forces also close the step before: its last substep's
    // half-kick rides on this step's first.
    let opening_width = step.owed.short_range + kd.kick_factor(a0, a0 + da_s) / 2.0;
    st.sr.kick(run, &mut st.store, &opening, a0, opening_width, sinks);
    drop(opening); // one force set live at a time through the subcycle
    let closing = closing_widths(cfg, kd, step.index, nsub);
    for s in 0..nsub {
        let as0 = a0 + s as f64 * da_s;
        let as1 = as0 + da_s;
        let store = &mut st.store;
        // Drift everyone (owned; ghosts stay frozen within the step,
        // their error bounded by the overload slack).
        let drift = kd.drift_factor(as0, as1);
        for i in sinks.particles() {
            for d in 0..3 {
                store.pos[i][d] += store.vel[i][d] * drift;
            }
        }
        let gas = sinks.gas(&st.sr.gas_idx);
        // Hubble expansion cooling of the gas (hydro runs).
        if run.sph.is_some() {
            let f = kd.hubble_cooling_factor(as0, as1);
            for &i in gas {
                store.u[i] *= f;
            }
        }
        // Subgrid sources at substep granularity.
        if let Some(subgrid) = &run.subgrid {
            let stream_of = |id| draw_stream(cfg.seed, id, step.index, s);
            stars += subgrid.apply(store, gas, kd, stream_of, as0, as1);
        }
        // Closing kick: full between substeps; the last substep's
        // half-kick is left to the next step's opening forces, except in
        // the final step, which closes itself.
        let w = if s + 1 < nsub {
            kd.kick_factor(as0, as1)
        } else if step.last {
            closing.short_range
        } else {
            break;
        };
        // Grow leaf boxes instead of rebuilding (Section IV-B1).
        cm.grow_aabbs(&st.store.pos, None);
        let a = as1.min(step.a1);
        let f = st.sr.forces(run, &st.store, cm, a, sinks);
        st.sr.kick(run, &mut st.store, &f, a, w, sinks);
    }
    st.tracer.end(sp_sr);
    (nsub, rung_stats, stars)
}

/// Stage 5: in-situ analysis at its cadence — the FOF halo catalog of
/// the owned particles — and the catalog through the I/O tiers.
// p1: hot-loop
fn in_situ_analysis(run: &Run, st: &mut RankState, step: &PmStep) {
    if !step.analysis {
        return;
    }
    let cfg = run.cfg;
    let sp = st.tracer.begin(Phase::Analysis.name(), "in-situ-analysis");
    let n = st.store.n_owned;
    let (pos, vel, mass) = (&st.store.pos[..n], &st.store.vel[..n], &st.store.mass[..n]);
    let halos = fof_halos(pos, vel, mass, 0.2 * cfg.particle_spacing(), 10);
    st.tracer.end(sp);
    // Halo catalogs are the paper's ~12 PB science side channel: written
    // through the same tiers, never pruned.
    let Some(w) = st.writer.as_mut() else { return };
    let sp = st.tracer.begin(Phase::Io.name(), "halo-catalog");
    let frac = step.index as f64 / cfg.pm_steps.max(1) as f64;
    let cols = &mut st.halo_cols;
    for c in cols.iter_mut() {
        c.clear();
    }
    cols[0].extend(halos.iter().map(|h| h.mass));
    cols[1].extend(halos.iter().map(|h| h.center[0]));
    cols[2].extend(halos.iter().map(|h| h.center[1]));
    cols[3].extend(halos.iter().map(|h| h.center[2]));
    let blocks = [
        Block::from_f64("mass", &cols[0]),
        Block::from_f64("x", &cols[1]),
        Block::from_f64("y", &cols[2]),
        Block::from_f64("z", &cols[3]),
    ];
    let i = step.index;
    // p1: allow: per-step catalog filename on the I/O path
    let _ = w.write_output(&format!("halos_{i:08}.gio"), &blocks, frac * 0.8, 1.3);
    st.tracer.end(sp);
}

/// Stage 6: the final step's closing long-range half-kick; any other
/// step leaves it, with its last substep's short-range one, to the next
/// step's opening solves.
// p1: hot-loop
fn close_step(run: &Run, comm: &mut Comm, st: &mut RankState, step: &PmStep, nsub: u32) {
    if step.last {
        let closing = closing_widths(run.cfg, &run.kd, step.index, nsub).pm;
        long_range_kick(run, comm, st, "pm-solve+closing-half-kick", step.a1, closing);
    }
    st.owed_substeps = if step.last { 0 } else { nsub };
}

/// Stage 7: the tiered checkpoint of the completed step, at its cadence.
// p1: hot-loop
fn write_checkpoint(run: &Run, st: &mut RankState, step: &PmStep, gpu_s: f64) {
    let cfg = run.cfg;
    let Some(w) = st.writer.as_mut() else { return };
    if !(step.index + 1).is_multiple_of(cfg.checkpoint_every) {
        return;
    }
    let sp = st.tracer.begin(Phase::Io.name(), "checkpoint");
    // Low-z clustering raises PFS contention and grows the node data
    // imbalance toward ~2x (Section VI-B); analysis output steps dip the
    // NVMe bandwidth by up to 30%.
    let frac = step.index as f64 / cfg.pm_steps.max(1) as f64;
    let analysis_dip = if step.analysis { 1.3 } else { 1.0 };
    w.advance_time(gpu_s.max(60.0));
    let mut blocks = st.store.checkpoint_blocks(cfg.box_size);
    blocks.extend(run_blocks(st.owed_substeps, Schedule::of(cfg)));
    let index = step.index as u64;
    if let Err(e) = w.write_checkpoint(index, &blocks, frac * 0.8, (1.0 + frac) * analysis_dip) {
        escalate(StepError::CheckpointWrite {
            step: index,
            // p1: allow: cold path — only runs when a checkpoint write fails, right before unwinding
            cause: e.to_string(),
        });
    }
    st.tracer.end(sp);
}

/// The conservation ledger: globally reduced end-of-step totals.
/// Ownership only changes at migrate (next step's entry), so the count
/// reduced after migration is the end-of-step count too. The f64 sums
/// reduce elementwise in rank order — deterministic for a fixed rank
/// count.
// p1: hot-loop
fn reduce_ledger(comm: &mut Comm, st: &mut RankState, step: &PmStep, count: u64) {
    let sp = st.tracer.begin(Phase::Misc.name(), "ledger-reduce");
    let tot = comm.all_reduce(owned_totals(&st.store), |mut a, b| {
        for (x, y) in a.iter_mut().zip(&b) {
            *x += y;
        }
        a
    });
    // p1: allow: conservation ledger, one bounded record per PM step
    st.ledger.push(LedgerRecord {
        step: step.index as u64,
        count,
        mass: tot[0],
        momentum: [tot[1], tot[2], tot[3]],
        momentum_scale: tot[4],
        kinetic: tot[5],
        internal: tot[6],
    });
    st.tracer.end(sp);
}

/// The owned particles' sums the ledger and the report reduce, in store
/// order: mass, momentum (three components), the momentum scale
/// `Σ m |v_d|`, kinetic energy and the gas's internal energy.
fn owned_totals(store: &ParticleStore) -> [f64; 7] {
    let mut t = [0.0f64; 7];
    for i in 0..store.n_owned {
        let m = store.mass[i];
        t[0] += m;
        let mut v2 = 0.0;
        for d in 0..3 {
            let p = m * store.vel[i][d];
            t[1 + d] += p;
            t[4] += p.abs();
            v2 += store.vel[i][d] * store.vel[i][d];
        }
        t[5] += 0.5 * m * v2;
        if store.species[i] == Species::Gas {
            t[6] += m * store.u[i];
        }
    }
    t
}

/// Stage 2 (and 6's closing half): one long-range kick of `width` at
/// scale factor `a`, in the `LongRange` span `name`: PM accelerations of
/// the owned particles, which are the store's contiguous prefix (the
/// solve must not see overload ghosts).
// p1: hot-loop
fn long_range_kick(run: &Run, comm: &mut Comm, st: &mut RankState, name: &str, a: f64, width: f64) {
    let sp = st.tracer.begin(Phase::LongRange.name(), name);
    let (n, store) = (st.store.n_owned, &mut st.store);
    let acc = run.pm.accelerations(comm, &store.pos[..n], &store.mass[..n]);
    for (vel, acc) in store.vel[..n].iter_mut().zip(&acc) {
        for d in 0..3 {
            vel[d] += acc[d] / a * width;
        }
    }
    st.tracer.end(sp);
}

/// The closing half-kick widths of one PM step.
struct Closing {
    /// Long-range: half the step's kick factor.
    pm: f64,
    /// Short-range: half the kick factor of the step's last substep.
    short_range: f64,
}

impl Closing {
    const NONE: Self = Self { pm: 0.0, short_range: 0.0 };
}

/// The closing half-kick widths of PM step `step` run at `nsub` substeps:
/// what the final step applies itself and what any other step leaves to
/// the next step's opening solves — computed the same way on the running
/// and the resumed path, so restart stays bitwise. `nsub == 0` (a step
/// that closed itself) leaves nothing.
fn closing_widths(cfg: &SimConfig, kd: &KickDrift, step: usize, nsub: u32) -> Closing {
    if nsub == 0 {
        return Closing::NONE;
    }
    let da_pm = cfg.da_pm();
    let a0 = cfg.a_init + step as f64 * da_pm;
    let a1 = a0 + da_pm;
    let da_s = da_pm / nsub as f64;
    let as0 = a0 + (nsub - 1) as f64 * da_s;
    let as1 = as0 + da_s;
    Closing {
        pm: kd.kick_factor(a0, a1) / 2.0,
        short_range: kd.kick_factor(as0, as1) / 2.0,
    }
}

/// Bitwise hash of the global particle state: each owned particle's
/// checkpoint row ([`ParticleRecord::words`](crate::particles::ParticleRecord::words):
/// every column, species included, position box-wrapped) gathered to
/// rank 0, sorted by particle id, and folded with FNV-1a over the
/// little-endian words. The id sort makes the hash independent of
/// ownership and in-rank ordering; the wrap makes it match the
/// checkpoint's canonical form, so a recovered run and its uninterrupted
/// reference agree bit-for-bit or not at all. Every rank returns the same
/// value.
fn global_state_hash(comm: &mut Comm, store: &ParticleStore, box_size: f64) -> u64 {
    let rows: Vec<_> = (0..store.n_owned).map(|i| store.extract(i).words(box_size)).collect();
    let hash = comm.gather(0, rows).map_or(0, |per_rank| {
        let mut rows: Vec<_> = per_rank.into_iter().flatten().collect();
        rows.sort_by_key(|row| row[ParticleRecord::F64_COLUMNS]); // the id word
        hacc_rt::fnv1a(rows.into_iter().flatten())
    });
    comm.broadcast(0, hash)
}

/// The generator a random draw comes from: a stream of the run's seed
/// keyed by who draws (`id` below 2^40), the PM step (below 2^13) and the
/// substep (below 2^11). Built where the draw is made from what is in
/// hand, so a draw is a function of its subject — not of which rank holds
/// it or how many draws that rank made before — and there is no generator
/// position to checkpoint.
fn draw_stream(seed: u64, id: u64, step: usize, substep: u32) -> StdRng {
    StdRng::stream(seed, ((step as u64) << 11 | u64::from(substep)) << 40 | id)
}

/// The subgrid models of a full-hydro run.
struct Subgrid {
    cooling: CoolingModel,
    sf: StarFormationModel,
    sn: SupernovaModel,
}

impl Subgrid {
    fn new(cfg: &SimConfig) -> Self {
        let mut sf = StarFormationModel::new(cfg.cosmology.h);
        sf.nh_threshold = cfg.sf_nh_threshold;
        Self { cooling: CoolingModel::new(cfg.cosmology.h), sf, sn: SupernovaModel::new() }
    }

    /// Cooling, star formation, and SN feedback of the owned gas `gas`
    /// over one substep; `stream_of(id)` is the generator of that
    /// particle's draw. Returns the stars formed.
    fn apply(
        &self,
        store: &mut ParticleStore,
        gas: &[usize],
        kd: &KickDrift,
        stream_of: impl Fn(u64) -> StdRng,
        a0: f64,
        a1: f64,
    ) -> u64 {
        let dt_gyr = kd.dt_gyr(a0, a1);
        let a = 0.5 * (a0 + a1);
        // Approximate local comoving density from the smoothing length
        // (rho = m (eta/h)^3) — the cheap estimate the subgrid models key on.
        let rho_of = |store: &ParticleStore, i: usize, eta: f64| {
            let h = store.h[i].max(1e-6);
            store.mass[i] * (eta / h).powi(3)
        };
        let eta = 1.6;
        let mut new_stars: Vec<usize> = Vec::new();
        for &i in gas {
            let rho = rho_of(store, i, eta);
            let z_metal = store.metals[i];
            store.u[i] = self.cooling.cool_particle(rho, store.u[i], z_metal, a, dt_gyr);
            // The gas list is frozen for the PM step: a particle converted
            // at an earlier substep is still listed, and must not be drawn
            // again.
            if store.species[i] == Species::Gas
                && self.sf.try_form_star(&mut stream_of(store.id[i]), rho, store.u[i], a, dt_gyr)
            {
                new_stars.push(i);
            }
        }
        // Convert and inject feedback.
        let stars = new_stars.len() as u64;
        if !new_stars.is_empty() {
            // Gas positions for the neighbor search.
            let pos: Vec<[f64; 3]> = gas.iter().map(|&i| store.pos[i]).collect();
            let bvh = Lbvh::build(&pos);
            for &i in &new_stars {
                store.species[i] = Species::Star;
                let m_star = store.mass[i];
                let neighbors = bvh.query_radius(&store.pos[i], 2.0 * store.h[i]);
                let targets: Vec<usize> = neighbors
                    .iter()
                    .map(|&g| gas[g as usize])
                    .filter(|&j| j != i && store.species[j] == Species::Gas)
                    .collect();
                if targets.is_empty() {
                    continue;
                }
                let weights = vec![1.0; targets.len()];
                let masses: Vec<f64> = targets.iter().map(|&j| store.mass[j]).collect();
                let (du, dz) = self.sn.distribute(m_star, &weights, &masses);
                for (k, &j) in targets.iter().enumerate() {
                    store.u[j] += du[k];
                    store.metals[j] =
                        (store.metals[j] * store.mass[j] + dz[k]) / store.mass[j];
                }
            }
        }
        stars
    }
}

/// Final-state analysis.
fn final_analysis(
    run: &Run,
    comm: &mut Comm,
    store: &ParticleStore,
) -> (Vec<PowerBin>, usize, f64, Vec<XiBin>, u64, f64) {
    let cfg = run.cfg;
    let n = store.n_owned;
    let (pos, vel, mass) = (&store.pos[..n], &store.vel[..n], &store.mass[..n]);
    // P(k) over all ranks through the PM deposit path (`density_k` reads
    // only the solver's grid size and box).
    let (delta_k, y0, ny) = run.pm.density_k(comm, pos, mass);
    let power = measure_power(comm, &delta_k, cfg.ngrid, y0, ny, cfg.box_size);
    // Local FOF (per-rank; the global count is the reduced sum).
    let b_link = 0.2 * cfg.particle_spacing();
    let halos = fof_halos(pos, vel, mass, b_link, 10);
    let local_max = halos.first().map(|h| h.mass).unwrap_or(0.0);
    let n_halos = comm.all_reduce_sum_u64(halos.len() as u64) as usize;
    let largest = comm.all_reduce_f64(local_max, f64::max);

    // HOD galaxy mock: scale M_min to the resolved halo masses (a few
    // tens of particles) so miniature boxes populate at all.
    let m_particle = mass.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut hod = HodParams::fiducial();
    if m_particle.is_finite() && m_particle > 0.0 {
        hod.log_m_min = (20.0 * m_particle).log10();
        hod.log_m0 = hod.log_m_min + 0.2;
        hod.log_m1 = hod.log_m_min + 1.0;
    }
    let spacing = cfg.particle_spacing();
    // Each rank populates its own halos from its own stream: the final
    // analysis draws as "step `pm_steps`", which no particle draws in.
    let mut rng = draw_stream(cfg.seed, comm.rank() as u64, cfg.pm_steps, 0);
    let galaxies = populate(&mut rng, &halos, &hod, |_| spacing);
    let n_galaxies = comm.all_reduce_sum_u64(galaxies.len() as u64);

    // Two-point correlation function on a rank-0 subsample (the
    // decomposition-independent statistic is P(k); xi is a local
    // diagnostic here).
    let xi = if comm.rank() == 0 && pos.len() > 50 {
        let stride = (pos.len() / 1500).max(1);
        let sample: Vec<[f64; 3]> = pos.iter().step_by(stride).copied().collect();
        correlation_function(
            &sample,
            cfg.box_size,
            0.3 * spacing,
            0.25 * cfg.box_size,
            8,
        )
    } else {
        vec![]
    };

    // Compton-y mock map of the gas, for the SZ concentration diagnostic.
    let gas: Vec<usize> = store.indices_of(Species::Gas);
    let y_conc = if gas.len() > 10 {
        let gpos: Vec<[f64; 3]> = gas.iter().map(|&i| store.pos[i]).collect();
        let gmass: Vec<f64> = gas.iter().map(|&i| store.mass[i]).collect();
        let gu: Vec<f64> = gas.iter().map(|&i| store.u[i]).collect();
        compton_y_map(&gpos, &gmass, &gu, cfg.box_size, 64).concentration(0.01)
    } else {
        0.0
    };
    (power, n_halos, largest, xi, n_galaxies, y_conc)
}

/// The checkpoint block holding the one scalar a step inherits besides
/// the store: the substep count of the checkpointed step when it left its
/// closing half-kicks to the next step, 0 when it closed itself.
const CLOSING_SUBSTEPS: &str = "closing_substeps";

/// The checkpoint block holding the [`Schedule`] the run stepped on:
/// `[a_init, a_final, pm_steps]`.
const SCHEDULE: &str = "schedule";

/// The run-level checkpoint blocks written after the particle columns
/// of [`ParticleStore::checkpoint_blocks`]: `closing_substeps` (with the
/// store, the complete restart state: a resumed run reconstructs the step
/// boundary exactly) and the `schedule` those steps belong to.
fn run_blocks(closing_substeps: u32, schedule: Schedule) -> [Block; 2] {
    [
        Block::from_u64(CLOSING_SUBSTEPS, &[u64::from(closing_substeps)]),
        Block::from_f64(
            SCHEDULE,
            &[schedule.a_init,
            schedule.a_final,
            schedule.pm_steps as f64],
        ),
    ]
}

/// Rebuild a particle store and the checkpointed step's
/// `closing_substeps` from checkpoint blocks, for a run on the schedule
/// `run`. A block that is missing or malformed escalates
/// [`StepError::CheckpointDecode`] naming it; a checkpoint of another
/// schedule, [`StepError::ScheduleMismatch`].
fn restart_state(blocks: &[Block], run: Schedule) -> (ParticleStore, u32) {
    fn decode_error(field: &str) -> ! {
        escalate(StepError::CheckpointDecode { field: field.to_string() })
    }
    let find = |name: &str| -> &Block {
        blocks.iter().find(|b| b.name == name).unwrap_or_else(|| decode_error(name))
    };
    let closing_substeps = match find(CLOSING_SUBSTEPS).as_u64()[..] {
        [n] => n as u32,
        _ => decode_error(CLOSING_SUBSTEPS),
    };
    let checkpoint = match find(SCHEDULE).as_f64()[..] {
        [a_init, a_final, pm_steps] => Schedule { a_init, a_final, pm_steps: pm_steps as usize },
        _ => decode_error(SCHEDULE),
    };
    if checkpoint != run {
        escalate(StepError::ScheduleMismatch { checkpoint, run });
    }
    let store = ParticleStore::from_checkpoint(blocks).unwrap_or_else(|field| decode_error(field));
    (store, closing_substeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timers::PHASES;
    use hacc_units::constants::{temperature_to_u, MU_IONIZED};

    fn quick_cfg(np: usize, physics: Physics) -> SimConfig {
        let mut c = SimConfig::small(np);
        c.physics = physics;
        c.pm_steps = 2;
        c.max_rung = 1;
        c.analysis_every = 2;
        c.checkpoint_every = 1;
        c
    }

    #[test]
    fn gravity_only_run_completes_and_conserves_momentum() {
        let cfg = quick_cfg(8, Physics::GravityOnly);
        let report = run_simulation(&cfg, 2);
        assert_eq!(report.steps.len(), 2);
        assert_eq!(report.total_particles, 512);
        // Momentum: the ICs have exactly zero net momentum; forces are
        // pairwise antisymmetric, so the net should stay a small fraction
        // of the gross scale sum m|p| (stale-ghost asymmetry within a PM
        // step bounds it away from roundoff).
        for d in 0..3 {
            assert!(
                report.total_momentum[d].abs() < 0.05 * report.momentum_scale,
                "runaway momentum {:?} vs scale {}",
                report.total_momentum,
                report.momentum_scale
            );
        }
        assert!(report.counters.flops > 0);
        assert!(report.timers.total() > 0.0);
        assert!(!report.power.is_empty());
    }

    #[test]
    fn hydro_run_completes_with_positive_energies() {
        let cfg = quick_cfg(8, Physics::Hydro);
        let report = run_simulation(&cfg, 2);
        assert_eq!(report.steps.len(), 2);
        assert_eq!(report.total_particles, 1024);
        assert!(report.utilizations.len() == 2);
        assert!(report.utilizations.iter().all(|&u| u > 0.0 && u < 1.0));
        assert!(report.io.checkpoints >= 2);
        assert!(report.io.effective_bandwidth_tbs() > 0.0);
    }

    #[test]
    fn particles_stay_in_box() {
        let cfg = quick_cfg(8, Physics::HydroAdiabatic);
        let report = run_simulation(&cfg, 1);
        // The run completing with finite stats is the wrapping check
        // (migrate asserts owners exist for every wrapped position).
        assert!(report.particles_per_second.is_finite());
    }

    #[test]
    fn flat_stepping_forces_max_substeps() {
        let mut cfg = quick_cfg(8, Physics::HydroAdiabatic);
        cfg.flat_stepping = true;
        cfg.max_rung = 2;
        let report = run_simulation(&cfg, 1);
        assert!(report.steps.iter().all(|s| s.substeps == 4));
    }

    #[test]
    fn short_range_dominates_runtime() {
        // The Fig. 2 structural claim at miniature scale: the short-range
        // solver is the largest phase.
        let cfg = quick_cfg(10, Physics::Hydro);
        let report = run_simulation(&cfg, 2);
        let sr = report.timers.get(Phase::ShortRange);
        for p in PHASES {
            if p != Phase::ShortRange {
                assert!(
                    sr >= report.timers.get(p),
                    "{} ({:.3}s) exceeds short-range ({sr:.3}s)",
                    p.name(),
                    report.timers.get(p)
                );
            }
        }
    }

    /// 64 dense cold gas particles, far enough apart that feedback finds
    /// no neighbour, with the subgrid models of `SimConfig::small(8)`.
    /// The closure runs `Subgrid::apply` at PM step 3, substep `s`.
    fn dense_cold_gas() -> (ParticleStore, impl Fn(&mut ParticleStore, &[usize], u32) -> u64) {
        let cfg = SimConfig::small(8);
        let kd = KickDrift::new(cfg.cosmology);
        let subgrid = Subgrid::new(&cfg);
        let mut gas = ParticleStore::new();
        for id in 0..64u64 {
            gas.insert(ParticleRecord {
                pos: [id as f64; 3],
                vel: [0.0; 3],
                mass: 1.0e10,
                species: Species::Gas,
                u: temperature_to_u(5.0e3, MU_IONIZED),
                metals: 0.0,
                h: 0.05,
                id,
            });
        }
        gas.seal_owned();
        let substep = move |store: &mut ParticleStore, gas: &[usize], s: u32| {
            let stream_of = |id| draw_stream(cfg.seed, id, 3, s);
            subgrid.apply(store, gas, &kd, stream_of, 0.5, 0.6)
        };
        (gas, substep)
    }

    fn star_ids(store: &ParticleStore) -> Vec<u64> {
        (0..store.n_owned)
            .filter(|&i| store.species[i] == Species::Star)
            .map(|i| store.id[i])
            .collect()
    }

    #[test]
    fn star_formation_draws_do_not_depend_on_who_drew_before() {
        // Visited in store order and in reverse, the same particles
        // convert, because each draw is keyed by (seed, id, step,
        // substep) and not by how many draws came before it.
        let (gas, substep) = dense_cold_gas();
        let stars_visiting = |gas_idx: Vec<usize>| {
            let mut store = gas.clone();
            let n = substep(&mut store, &gas_idx, 1);
            let stars = star_ids(&store);
            assert_eq!(stars.len() as u64, n);
            stars
        };
        let stars = stars_visiting((0..64).collect());
        assert!(!stars.is_empty() && stars.len() < 64, "{} of 64 converted", stars.len());
        assert_eq!(stars, stars_visiting((0..64).rev().collect()));
    }

    #[test]
    fn a_converted_particle_is_not_drawn_again() {
        // Four substeps over the step-frozen index list: a particle
        // converts once, so the returned counts sum to the star particles.
        let (mut store, substep) = dense_cold_gas();
        let gas_idx: Vec<usize> = (0..64).collect();
        let formed: u64 = (0..4).map(|s| substep(&mut store, &gas_idx, s)).sum();
        assert_eq!(formed, star_ids(&store).len() as u64);
    }

    #[test]
    fn state_hash_sees_a_species_change_alone() {
        // A star formed with no gas neighbour for its feedback changes
        // `species` and nothing else.
        let (gas, _) = dense_cold_gas();
        let mut star = gas.clone();
        star.species[5] = Species::Star;
        let hashes = World::run(1, |comm| {
            [&gas, &star].map(|store| global_state_hash(comm, store, 64.0))
        });
        assert_ne!(hashes[0][0], hashes[0][1]);
    }

    /// The opening short-range forces of a one-rank world of
    /// `SimConfig::small(np)`'s initial conditions moved by `shift`
    /// (mod box), through the step's own stages (migrate + overload, the
    /// mesh build, the short-range solver's `forces` on the owned sinks):
    /// per particle id, gravity and, for the gas, CRKSPH `accel` and
    /// `du_dt`. Also returns the ghosts the overload held.
    fn one_rank_opening_forces(np: usize, shift: [f64; 3]) -> (usize, Vec<(u64, [f64; 7])>) {
        let mut cfg = SimConfig::small(np);
        cfg.checkpoint_every = 0; // no writer: the stages below write no file
        let tables = RunTables::new(&cfg);
        let mut out = World::run(1, |comm| {
            let mut store = distributed_ics(&cfg, &tables.bg, &tables.power, comm);
            for p in &mut store.pos {
                for d in 0..3 {
                    p[d] += shift[d];
                }
            }
            let run = Run::new(&cfg, &tables, comm, None);
            let mut st = RankState::new(&run, 0, Path::new(""), store, 0);
            migrate_and_refresh(&run, comm, &mut st);
            let cm = build_mesh(&run, &mut st);
            let sinks = st.sr.sinks(&st.store);
            let f = st.sr.forces(&run, &st.store, &cm, cfg.a_init, sinks);
            let (store, sph) = (&st.store, f.sph.expect("small(np) runs hydro"));
            let row = |i: usize| {
                let g = f.grav[i];
                (store.id[i], [g[0], g[1], g[2], 0.0, 0.0, 0.0, 0.0])
            };
            let mut forces: Vec<(u64, [f64; 7])> = sinks.particles().map(row).collect();
            for (gi, &i) in sinks.gas(&st.sr.gas_idx).iter().enumerate() {
                forces[i].1[3..6].copy_from_slice(&sph.accel[gi]);
                forces[i].1[6] = sph.du_dt[gi];
            }
            forces.sort_by_key(|&(id, _)| id);
            (store.len() - sinks.owned, forces)
        });
        out.pop().unwrap()
    }

    /// The one-rank world is the integrator's ghost-free reference: its
    /// overload is empty, and where the box's seam falls moves no
    /// short-range force beyond summation-order roundoff. Each field's
    /// largest change stays under 1e-12 of that field's largest value.
    /// With periodic image ghosts instead, the seam's ghosts carried
    /// densities truncated at the overload edge, and the CRKSPH `accel`
    /// and `du_dt` moved by 2.5e-3 to 5.5e-3 of their largest values.
    #[test]
    fn one_rank_short_range_forces_do_not_see_the_seam() {
        for np in [12, 16] {
            let (ghosts, base) = one_rank_opening_forces(np, [0.0; 3]);
            assert_eq!(ghosts, 0, "np {np}");
            let (_, moved) = one_rank_opening_forces(np, [3.3, 7.7, 10.1]);
            assert_eq!(base.len(), moved.len());
            for (field, range) in [("gravity", 0..3), ("accel", 3..6), ("du_dt", 6..7)] {
                let (mut worst, mut scale) = (0.0f64, 0.0f64);
                for ((id, f), (id2, g)) in base.iter().zip(&moved) {
                    assert_eq!(id, id2);
                    for k in range.clone() {
                        worst = worst.max((f[k] - g[k]).abs());
                        scale = scale.max(f[k].abs());
                    }
                }
                assert!(scale > 0.0, "np {np}: no {field}");
                assert!(
                    worst <= 1e-12 * scale,
                    "np {np} {field}: {worst:e} of {scale:e}"
                );
            }
        }
    }

    #[test]
    fn all_rung_zero_steps_report_no_adaptive_speedup() {
        // Gravity-only gas-free steps put every particle on rung 0: flat
        // and adaptive stepping are the same one substep. One rank, so the
        // rank-0 statistics cover every particle.
        let cfg = quick_cfg(8, Physics::GravityOnly);
        let report = run_simulation(&cfg, 1);
        for s in &report.steps {
            assert_eq!(s.substeps, 1);
            assert_eq!(s.rung_stats.flat_updates, s.particles, "step {}", s.step);
            assert_eq!(s.rung_stats.speedup(), 1.0, "step {}", s.step);
        }
    }

    /// Doctored copies of one run's newest checkpoint, each CRC-valid,
    /// fail the resume with a typed error naming the bad block: one
    /// without `closing_substeps` (as an older build wrote it), one whose
    /// `h` column is a word short of `x`, one with a species code of 7.
    #[test]
    fn malformed_checkpoint_fails_with_a_typed_error() {
        let mut cfg = quick_cfg(8, Physics::GravityOnly);
        let dir = std::env::temp_dir()
            .join(format!("frontier-malformed-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        cfg.io_dir = Some(dir.clone());
        run_simulation(&cfg, 1);
        let pfs = dir.join("pfs").join("rank-0");
        let (_, path) = TieredWriter::latest_checkpoint(&pfs).unwrap();
        let written = hacc_iosim::read_blocks(&path).unwrap();
        // Each doctor edits the block it names; clearing the name drops it.
        let doctors: [(&str, fn(&mut Block)); 3] = [
            (CLOSING_SUBSTEPS, |b| b.name.clear()),
            ("h", |b| b.data.truncate(b.data.len() - 8)),
            ("species", |b| b.data[0] = 7),
        ];
        for (field, doctor) in doctors {
            let mut blocks = written.clone();
            blocks.iter_mut().filter(|b| b.name == field).for_each(doctor);
            blocks.retain(|b| !b.name.is_empty());
            hacc_iosim::write_blocks(&path, &blocks).unwrap();
            let cause = std::panic::catch_unwind(|| resume_simulation(&cfg, 1))
                .expect_err("a malformed checkpoint must not resume");
            match cause.downcast_ref::<StepError>() {
                Some(StepError::CheckpointDecode { field: named }) => assert_eq!(named, field),
                other => panic!("{field}: expected a typed CheckpointDecode, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_table_names_the_hot_kernels() {
        let cfg = quick_cfg(8, Physics::Hydro);
        let report = run_simulation(&cfg, 1);
        // All four hydro stages plus gravity are recorded.
        for name in ["grav_short_range", "sph_density", "crk_moments", "crk_force"] {
            assert!(
                report.profile.get(name).map(|c| c.flops > 0).unwrap_or(false),
                "kernel {name} missing from profile"
            );
        }
        // The force kernel dominates the hydro stages (most FLOPs/pair).
        let force = report.profile.get("crk_force").unwrap().flops;
        let dens = report.profile.get("sph_density").unwrap().flops;
        assert!(force > dens, "force {force} should exceed density {dens}");
    }
}
