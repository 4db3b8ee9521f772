//! The traced run (`--trace 1`): the layer census, the serial baseline,
//! and — in the same process — untraced repetitions to hold the census
//! against, alternated with repetitions under the armed allocator to
//! price the instrumentation.

use crate::alloc;
use crate::census::{self, Census, Multiplicity, Plan};
use crate::e2e::{Budget, Rep, Runner};
use crate::json::Json;
use crate::manifest::PER_LAYER;
use crate::report::Outcome;
use crate::stats::{quartiles, ratio};
use crate::trace::{Recorder, Span};
use crate::workloads::Workload;
use hacc_core::SimReport;
use hacc_ranks::World;
use std::path::Path;
use std::time::Instant;

/// `--trace 1`: the per-layer metrics of one workload, and its spans.
pub fn run(
    w: &'static Workload,
    seed: u64,
    budget: &Budget,
    out_dir: &Path,
    quick: bool,
) -> Result<(Outcome, Vec<Span>), String> {
    let started = Instant::now();
    let mut out = Outcome::new(w.name, seed, true);
    let mut runner = Runner::new(w, seed, out_dir, quick);

    // Warm-up; its report also says how the rungs fell at this seed.
    let (_, warm) = runner.repetition()?;
    let mult = Multiplicity::of(&runner.cfg, &warm);

    // A host-speed reading on either side of the census: its seconds are
    // held against repetitions that run later, possibly in another host
    // state (README, "Host states").
    let census_io = out_dir.join(format!("census-{}", w.name));
    let probe_before = runner.host_reading();
    let census = census::run(
        &runner.cfg,
        runner.ranks,
        &Plan {
            workload: w.name,
            reps: if quick { 1 } else { 5 },
            io_dir: &census_io,
            mult,
            seed,
        },
        started,
    );
    // Census sites record their lower quartile, the quiet-mode time; the
    // matching host reading is the quieter of the two.
    let census_probe = probe_before.min(runner.host_reading());
    let _ = std::fs::remove_dir_all(&census_io);
    if census.c("iosim.failed") > 0.0 {
        out.failures
            .push("census: a checkpoint failed to write or to load back".into());
    }

    // Spans of calls made from the main thread sit on their own track,
    // one past the last rank.
    let mut tr = Recorder::new(started, w.name, runner.ranks);
    let spawn: Vec<f64> = (0..if quick { 1 } else { 5 })
        .map(|_| {
            tr.span("rt.spawn", || {
                drop(World::run_with(
                    runner.cfg.rank_backend(),
                    runner.ranks,
                    |_| (),
                ))
            })
            .1
        })
        .collect();

    // The plain single-rank run of the same configuration. With more
    // ranks than cores a wall-clock ratio is not a scaling number, so
    // `ranks-64` reports counts only and leaves these two at 0.
    let serial = if w.ranks == 2 {
        tr.open("core.serial_run");
        let rep = runner.repetition_on(1)?.0;
        tr.close();
        Some(rep)
    } else {
        None
    };

    // Alternate untraced and allocator-armed repetitions in what is left
    // of the budget (at least three of each).
    let (mut plain, mut armed): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let last: SimReport = loop {
        let (rep, report) = runner.repetition()?;
        plain.push(rep);
        alloc::arm();
        let rep = runner.repetition();
        alloc::disarm();
        armed.push(rep?.0);
        let pair_walls: Vec<f64> = plain
            .iter()
            .zip(&armed)
            .map(|(p, a)| p.wall + a.wall)
            .collect();
        if budget.done(started, &pair_walls) {
            break report;
        }
    };

    // Ratios between phases of this run compare each side in units of the
    // host-speed readings taken beside it: a quartile over the repetitions
    // ÷ the same quartile of their probe readings.
    let q = |reps: &[Rep], f: fn(&Rep) -> f64| quartiles(&reps.iter().map(f).collect::<Vec<f64>>());
    let (probe_plain, probe_armed) = (q(&plain, |r| r.probe), q(&armed, |r| r.probe));
    let wall = ratio(q(&plain, |r| r.wall).lower_mid(), probe_plain.lower_mid());
    let wall_armed = ratio(q(&armed, |r| r.wall).lower_mid(), probe_armed.lower_mid());
    let census_step = census.step_by_rank.iter().copied().fold(0.0, f64::max);
    let derived = Derived {
        serial_wall: serial.as_ref().map_or(0.0, |r| r.wall),
        rank_speedup: serial
            .as_ref()
            .map_or(0.0, |r| ratio(ratio(r.wall, r.probe), wall)),
        // Lower quartiles on both sides, like the census sites.
        attributed_frac: ratio(
            ratio(census_step, census_probe),
            ratio(q(&plain, |r| r.step_mean).p25, probe_plain.p25),
        ),
        overhead_frac: ratio(wall_armed, wall) - 1.0,
        spawn: quartiles(&spawn).p25,
    };
    out.quartiles
        .push(("untraced.wall_s", q(&plain, |r| r.wall)));
    out.quartiles.push(("armed.wall_s", q(&armed, |r| r.wall)));
    out.quartiles
        .push(("untraced.step_wall_s", q(&plain, |r| r.step_mean)));
    out.quartiles.push(("rt.spawn_s", quartiles(&spawn)));
    derive_metrics(&mut out, &runner, &census, &last, &derived);
    out.notes
        .push(("census_host_probe_s", Json::num(census_probe)));
    out.notes.push(("kicks_per_step", Json::num(mult.kicks)));
    out.notes
        .push(("substeps_per_step", Json::num(mult.substeps)));
    out.notes
        .push(("checkpoints_per_step", Json::num(mult.checkpoints)));
    out.notes
        .push(("analyses_per_step", Json::num(mult.analyses)));
    out.notes
        .push(("particle_updates", Json::Int(plain[0].updates)));
    let walls = |reps: &[Rep]| Json::Arr(reps.iter().map(|r| Json::num(r.wall)).collect());
    out.notes.push(("untraced_walls_s", walls(&plain)));
    out.notes.push(("armed_walls_s", walls(&armed)));
    // Per-layer seconds are as measured, not host-scaled; the host-speed
    // readings ride along so a disturbed census can be told.
    let probes: Vec<f64> = plain.iter().chain(&armed).map(|r| r.probe).collect();
    out.quartiles.push(("host_probe_s", quartiles(&probes)));
    out.notes.push((
        "census_step_s_by_rank",
        Json::Arr(census.step_by_rank.iter().map(|&s| Json::num(s)).collect()),
    ));
    // Census sites that are not metrics of their own (sweeps, encode…).
    out.notes.push((
        "census_seconds",
        Json::obj(census.secs.iter().map(|(k, v)| (*k, Json::num(*v)))),
    ));
    out.notes.push((
        "census_counts",
        Json::obj(census.counts.iter().map(|(k, v)| (*k, Json::num(*v)))),
    ));

    runner.finish(&mut out);
    out.check_names(PER_LAYER.iter());
    let mut spans = census.spans;
    spans.extend(tr.into_spans());
    Ok((out, spans))
}

/// What the traced run measured outside the census.
struct Derived {
    /// Wall of the 1-rank run, as measured (0 when not run).
    serial_wall: f64,
    rank_speedup: f64,
    attributed_frac: f64,
    overhead_frac: f64,
    /// p25 of `World::run_with` of an empty closure.
    spawn: f64,
}

/// The 84 per-layer metrics, from the census, the last untraced report
/// and the quantities derived from the repetitions.
fn derive_metrics(
    out: &mut Outcome,
    runner: &Runner,
    census: &Census,
    report: &SimReport,
    d: &Derived,
) {
    let (s, c, r) = (
        |k: &str| census.s(k),
        |k: &str| census.c(k),
        |k: &str| census.r(k),
    );
    let cfg = &runner.cfg;

    // core
    out.set("core.ic_s", s("core.ic"));
    out.set("core.migrate_s", s("core.migrate"));
    out.set("core.overload_s", s("core.overload"));
    out.set("core.ghost_ratio", ratio(c("ghosts"), c("owned")));
    out.set("core.serial_wall_s", d.serial_wall);
    out.set("core.rank_speedup", d.rank_speedup);
    let steps = &census.step_by_rank;
    let census_step = steps.iter().copied().fold(0.0, f64::max);
    out.set(
        "core.step_imbalance",
        ratio(census_step, steps.iter().sum::<f64>() / steps.len() as f64),
    );
    // The program's own phase timers, as a cross-check on the census.
    let share = |phase: &str| {
        report
            .timers
            .fractions()
            .iter()
            .find(|(p, _)| p.name() == phase)
            .map_or(0.0, |(_, f)| *f)
    };
    out.set("core.phase_short_range_share", share("short-range"));
    out.set("core.phase_long_range_share", share("long-range"));
    out.set("core.phase_tree_build_share", share("tree-build"));
    out.set("core.phase_analysis_share", share("analysis"));
    out.set("core.phase_io_share", share("io"));
    out.set("core.phase_misc_share", share("misc"));

    // mesh
    let cells = (cfg.ngrid as f64).powi(3);
    out.set("mesh.pm_accel_s", s("mesh.pm_accel"));
    out.set("mesh.deposit_s", s("mesh.deposit"));
    out.set("mesh.greens_s", s("mesh.greens"));
    out.set("mesh.interp_s", s("mesh.interp"));
    out.set("mesh.grid_cells", cells);
    out.set("mesh.cells_per_s", ratio(cells, s("mesh.pm_accel")));

    // swfft
    out.set("swfft.fwd3d_s", s("swfft.fwd3d"));
    out.set("swfft.inv3d_s", s("swfft.inv3d"));
    out.set("swfft.fft1d_s", s("swfft.fft1d"));
    out.set("swfft.fft1d_gflops", r("swfft.fft1d_gflops"));
    out.set("swfft.transpose_bytes", c("transpose_bytes"));
    // A 3-D transform is three passes of 1-D FFTs; the rest is the
    // transpose (pack, all-to-all, unpack) and the strided gathers.
    out.set(
        "swfft.comm_frac",
        (1.0 - ratio(3.0 * s("swfft.fft1d"), s("swfft.fwd3d"))).clamp(0.0, 1.0),
    );
    out.set("swfft.pencil_fwd3d_s", s("swfft.pencil_fwd3d"));

    // tree
    out.set("tree.build_s", s("tree.build"));
    out.set("tree.build_gas_s", s("tree.build_gas"));
    out.set("tree.pairs_s", s("tree.pairs"));
    out.set("tree.grow_s", s("tree.grow"));
    out.set("tree.leaves", c("tree.leaves"));
    out.set("tree.leaf_pairs", c("tree.leaf_pairs"));
    out.set(
        "tree.leaf_fill",
        ratio(
            c("tree.particles"),
            c("tree.leaves") * census::MAX_LEAF as f64,
        ),
    );

    // gpusim
    out.set("gpusim.null_ns_per_pair", r("gpusim.null_ns_per_pair"));

    // grav
    out.set("grav.step_s", s("grav.step"));
    out.set("grav.pairs", c("grav.pairs"));
    out.set("grav.pairs_per_s", r("grav.pairs_per_s"));
    out.set("grav.kernel_pairs_per_s", r("grav.kernel_pairs_per_s"));
    out.set("grav.overhead_frac", overhead(r("grav.in_kernel_frac")));
    out.set(
        "grav.useful_pair_frac",
        ratio(c("grav.useful_pairs"), c("null.pairs")),
    );
    out.set(
        "grav.masked_lane_frac",
        ratio(
            c("grav.masked_flops"),
            c("grav.flops") + c("grav.masked_flops"),
        ),
    );
    out.set("grav.flops", c("grav.flops"));
    out.set("grav.host_gflops", r("grav.host_gflops"));
    out.set("grav.allocs", c("grav.allocs"));
    out.set("grav.alloc_bytes", c("grav.alloc_bytes"));

    // sph
    out.set("sph.step_s", s("sph.step"));
    out.set("sph.pairs", c("sph.pairs"));
    out.set("sph.pairs_per_s", r("sph.pairs_per_s"));
    out.set("sph.density_pairs_per_s", r("sph.density_pairs_per_s"));
    out.set("sph.moments_pairs_per_s", r("sph.moments_pairs_per_s"));
    out.set("sph.force_pairs_per_s", r("sph.force_pairs_per_s"));
    out.set("sph.overhead_frac", overhead(r("sph.in_kernel_frac")));
    out.set(
        "sph.useful_pair_frac",
        ratio(c("sph.useful_pairs"), c("sph.list_pairs")),
    );
    out.set(
        "sph.masked_lane_frac",
        ratio(
            c("sph.masked_flops"),
            c("sph.flops") + c("sph.masked_flops"),
        ),
    );
    out.set("sph.flops", c("sph.flops"));
    out.set("sph.host_gflops", r("sph.host_gflops"));
    out.set("sph.allocs", c("sph.allocs"));
    out.set("sph.alloc_bytes", c("sph.alloc_bytes"));
    out.set("sph.h_spread", ratio(census.h_range.1, census.h_range.0));

    // subgrid
    out.set(
        "subgrid.cool_ns_per_particle",
        r("subgrid.cool_ns_per_particle"),
    );

    // ranks / rt — exact message counts of the measured run.
    let pm_steps = report.steps.len().max(1) as f64;
    let ranks = &report.telemetry.ranks;
    let per_step = |total: u64| total as f64 / pm_steps;
    out.set(
        "ranks.msgs_per_step",
        per_step(ranks.iter().map(|k| k.comm.sends).sum()),
    );
    out.set(
        "ranks.bytes_per_step",
        per_step(ranks.iter().map(|k| k.comm.bytes_sent).sum()),
    );
    out.set(
        "ranks.collectives_per_step",
        per_step(ranks.iter().map(|k| k.comm.total_collectives()).sum()),
    );
    out.set("ranks.a2av_s", s("ranks.a2av"));
    out.set("ranks.allreduce_us", s("ranks.allreduce") * 1e6);
    out.set("ranks.smoke_s", s("ranks.smoke"));
    out.set("ranks.hops_per_s", ratio(c("smoke.hops"), s("ranks.smoke")));
    out.set("rt.spawn_s", d.spawn);
    out.set("rt.lanes", hacc_rt::sched::default_lanes() as f64);

    // iosim
    out.set("iosim.ckpt_write_s", s("iosim.ckpt_write"));
    out.set("iosim.ckpt_bytes", c("iosim.ckpt_bytes"));
    out.set("iosim.ckpt_drain_s", s("iosim.ckpt_drain"));
    out.set("iosim.ckpt_load_s", s("iosim.ckpt_load"));
    out.set("iosim.encode_mb_per_s", r("iosim.encode_mb_per_s"));

    // analysis
    out.set("analysis.fof_s", s("analysis.fof"));
    out.set("analysis.power_s", s("analysis.power"));
    out.set("analysis.xi_s", s("analysis.xi"));
    out.set("analysis.bvh_build_s", s("analysis.bvh_build"));
    out.set("analysis.halos", c("analysis.halos"));

    // trace — does the census sum back to the step measured untraced?
    out.set("trace.census_step_s", census_step);
    out.set("trace.attributed_frac", d.attributed_frac);
    out.set(
        "trace.short_range_share",
        ratio(census.critical_split.0, census_step),
    );
    out.set(
        "trace.long_range_share",
        ratio(census.critical_split.1, census_step),
    );
    out.set("trace.overhead_frac", d.overhead_frac);
}

/// Share of a pipeline call *not* spent in its kernels, from the
/// in-kernel share; 0 when the pipeline did not run.
fn overhead(in_kernel_frac: f64) -> f64 {
    if in_kernel_frac > 0.0 {
        (1.0 - in_kernel_frac).clamp(0.0, 1.0)
    } else {
        0.0
    }
}
