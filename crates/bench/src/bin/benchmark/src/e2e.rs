//! The end-to-end run: repeat one fixed `run_simulation` call in a closed
//! loop, check every repetition's outputs, report lower quartiles.
//!
//! One process, one simulation at a time; the only threads are the
//! program's own ranks. A repetition is one *operation*.

use crate::hostprobe::{Probe, REFERENCE_S};
use crate::json::Json;
use crate::manifest::END_TO_END;
use crate::report::Outcome;
use crate::stats::{quartiles, ratio};
use crate::workloads::Workload;
use hacc_core::{run_simulation, SimConfig, SimReport};
use hacc_iosim::TieredWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`, fixed
/// at 100 on every Linux ABI this runs on).
const CLK_TCK: f64 = 100.0;

/// Process CPU seconds so far: `utime + stime`, over all threads, the
/// exited rank threads included.
pub fn process_cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields 3.. follow
    // the last ')'. utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no ')'")?;
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|s| s.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("/proc/self/stat: field {} unreadable", i + 3))
    };
    Ok((tick(11)? + tick(12)?) / CLK_TCK)
}

/// Reset the kernel's peak-RSS watermark of this process to its current
/// RSS (`echo 5 > /proc/self/clear_refs`), so the next [`peak_rss_mb`]
/// reads the peak of what ran in between. Returns whether the kernel
/// took it; where it does not, the watermark stays the process-lifetime
/// peak and every repetition reads the same, larger, value.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) of this process since the last
/// [`reset_peak_rss`], MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".to_string())
}

/// Timings and exact counts of one repetition.
pub struct Rep {
    /// Wall of the whole `run_simulation` call.
    pub wall: f64,
    /// Mean `StepRecord.wall_seconds` (each the max over ranks).
    pub step_mean: f64,
    /// `wall` minus the sum of step walls: IC generation, world spawn,
    /// plan/table/writer construction, final analysis, report assembly.
    pub setup: f64,
    /// Process CPU seconds spent.
    pub cpu: f64,
    /// Peak resident set while it ran, MB.
    pub peak_rss_mb: f64,
    /// Host-speed probe reading taken just before it ran, seconds.
    pub probe: f64,
    /// `Σ_steps particles × (substeps + 1)`: one update is one particle
    /// receiving one short-range kick.
    pub updates: u64,
}

/// One workload at one seed: runs repetitions and checks their outputs.
pub struct Runner {
    pub cfg: SimConfig,
    pub ranks: usize,
    io_dir: PathBuf,
    probe: Probe,
    check_checkpoint: bool,
    /// `final_state_hash` of the first repetition; every later one must
    /// match it bit for bit (the run-to-run determinism contract). It is
    /// not compared across commits: a later change may legitimately
    /// re-associate a sum.
    reference_hash: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Runner {
    pub fn new(w: &Workload, seed: u64, out: &Path, quick: bool) -> Self {
        let io_dir = out.join(format!("io-{}", w.name));
        let cfg = w.config(seed, &io_dir, quick);
        Self {
            check_checkpoint: w.name == "gravity-io",
            cfg,
            ranks: w.ranks(quick),
            io_dir,
            probe: Probe::new(hacc_rt::sched::default_lanes()),
            reference_hash: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// One host-speed probe reading, now (see `hostprobe`).
    pub fn host_reading(&self) -> f64 {
        self.probe.read()
    }

    /// One timed, checked repetition on the workload's rank count.
    pub fn repetition(&mut self) -> Result<(Rep, SimReport), String> {
        self.repetition_on(self.ranks)
    }

    /// One timed, checked repetition on `ranks` ranks. A rank count other
    /// than the workload's (the serial baseline) is held to every check
    /// except the state hash, which is only bitwise for a fixed
    /// decomposition.
    pub fn repetition_on(&mut self, ranks: usize) -> Result<(Rep, SimReport), String> {
        // Each repetition starts from an empty scratch tree, untimed.
        let _ = std::fs::remove_dir_all(&self.io_dir);
        let probe = self.probe.read();
        reset_peak_rss();
        let cpu0 = process_cpu_seconds()?;
        let t0 = Instant::now();
        let report = run_simulation(&self.cfg, ranks);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = process_cpu_seconds()? - cpu0;
        let peak_rss_mb = peak_rss_mb()?;

        let step_sum: f64 = report.steps.iter().map(|s| s.wall_seconds).sum();
        let rep = Rep {
            wall,
            step_mean: ratio(step_sum, report.steps.len() as f64),
            setup: wall - step_sum,
            cpu,
            peak_rss_mb,
            probe,
            updates: report
                .steps
                .iter()
                .map(|s| s.particles * (u64::from(s.substeps) + 1))
                .sum(),
        };

        let mut why = self.check(&report);
        if ranks == self.ranks {
            match self.reference_hash {
                None => self.reference_hash = Some(report.final_state_hash),
                Some(h) if h != report.final_state_hash => why.push(format!(
                    "final_state_hash {:016x} differs from the first repetition's {h:016x}",
                    report.final_state_hash
                )),
                Some(_) => {}
            }
        }
        self.attempted += 1;
        if !why.is_empty() {
            self.failed += 1;
            self.failures.push(format!(
                "repetition {} ({ranks} ranks): {}",
                self.attempted,
                why.join("; ")
            ));
        }
        Ok((rep, report))
    }

    /// The output checks (bounds are those of `tests/hydro_physics.rs`).
    fn check(&self, r: &SimReport) -> Vec<String> {
        let mut why = Vec::new();
        if r.steps.len() != self.cfg.pm_steps {
            why.push(format!(
                "{} steps recorded, {} configured",
                r.steps.len(),
                self.cfg.pm_steps
            ));
        }
        if !r.ledger.count_conserved() {
            why.push("particle count not conserved".into());
        }
        let (mass, mom, energy) = (
            r.ledger.mass_drift(),
            r.ledger.max_momentum_fraction(),
            r.ledger.energy_drift(),
        );
        // `!below` rather than `>=`, so a NaN fails too.
        let below = |v: f64, bound: f64| v < bound;
        if !below(mass, 1e-12) {
            why.push(format!("mass drift {mass:e}"));
        }
        if !below(mom, 0.05) {
            why.push(format!("net momentum fraction {mom:e}"));
        }
        if !below(energy, 0.9) {
            why.push(format!("energy drift {energy:e}"));
        }
        if self.check_checkpoint {
            let last = self.cfg.pm_steps as u64 - 1;
            let pfs = self.io_dir.join("pfs").join("rank-0");
            if !TieredWriter::valid_checkpoint_steps(&pfs).contains(&last) {
                why.push(format!(
                    "no CRC-valid checkpoint of step {last} in {}",
                    pfs.display()
                ));
            }
        }
        why
    }

    /// Move the failure account into `out` and remove the scratch tree.
    pub fn finish(self, out: &mut Outcome) {
        let _ = std::fs::remove_dir_all(&self.io_dir);
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.failures.extend(self.failures);
    }
}

/// How many repetitions to run, given what has been measured so far.
pub struct Budget {
    pub seconds: f64,
    /// One repetition, whatever the clock says (`--quick`).
    pub single: bool,
}

impl Budget {
    /// Stop when the next repetition (estimated by the fastest so far)
    /// would end past the budget, but never before three samples.
    pub fn done(&self, started: Instant, walls: &[f64]) -> bool {
        if self.single {
            return !walls.is_empty();
        }
        let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
        walls.len() >= 3 && started.elapsed().as_secs_f64() + fastest > self.seconds
    }
}

/// `--trace 0`: the six end-to-end metrics of one workload.
pub fn run(
    w: &'static Workload,
    seed: u64,
    budget: &Budget,
    out_dir: &Path,
    quick: bool,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut out = Outcome::new(w.name, seed, false);
    let mut runner = Runner::new(w, seed, out_dir, quick);

    // Untimed warm-up: page cache, allocator arenas, lazy statics. Its
    // outputs are checked like any other repetition's.
    if !quick {
        runner.repetition()?;
    }
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(runner.repetition()?.0);
        let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
        if budget.done(started, &walls) {
            break;
        }
    }

    let col = |f: fn(&Rep) -> f64| quartiles(&reps.iter().map(f).collect::<Vec<f64>>());
    let updates = reps[0].updates;
    if reps.iter().any(|r| r.updates != updates) {
        runner
            .failures
            .push("particle-update count differs between repetitions".into());
    }
    // Times are reported in seconds of the quiet sizing host: the
    // lower-mid as measured, times the run's host-speed factor (see
    // `hostprobe`). The as-measured quartiles ride along as `raw.*`.
    let host = col(|r| r.probe);
    let scale = ratio(REFERENCE_S, host.lower_mid());
    let wall = col(|r| r.wall);
    let timings = [
        ("wall_s", "raw.wall_s", wall),
        ("step_wall_s", "raw.step_wall_s", col(|r| r.step_mean)),
        ("setup_s", "raw.setup_s", col(|r| r.setup)),
        ("cpu_s", "raw.cpu_s", col(|r| r.cpu)),
    ];
    for (name, raw_name, q) in timings {
        out.set(name, q.lower_mid() * scale);
        out.quartiles.push((raw_name, q));
    }
    out.set(
        "particle_updates_per_s",
        ratio(updates as f64, wall.lower_mid() * scale),
    );
    // Memory noise is one-sided — what the allocator retains from earlier
    // repetitions only ever adds, and in some processes keeps adding — and
    // no host state scales it: the smallest per-repetition peak.
    let rss = col(|r| r.peak_rss_mb);
    out.set("peak_rss_mb", rss.min);
    out.quartiles.push(("peak_rss_mb", rss));
    out.quartiles.push(("host_probe_s", host));
    out.notes.push(("host_scale", Json::num(scale)));
    out.notes.push(("particle_updates", Json::Int(updates)));
    out.notes.push(("ranks", Json::Int(runner.ranks as u64)));
    out.notes
        .push(("particles", Json::Int(runner.cfg.total_particles())));
    out.notes.push((
        "rep_walls_s",
        Json::Arr(reps.iter().map(|r| Json::num(r.wall)).collect()),
    ));
    out.notes.push((
        "rep_probes_s",
        Json::Arr(reps.iter().map(|r| Json::num(r.probe)).collect()),
    ));
    runner.finish(&mut out);
    out.check_names(END_TO_END.iter().map(|(d, _)| d));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_work_on_this_host() {
        let cpu = process_cpu_seconds().expect("cpu");
        assert!(cpu >= 0.0 && cpu.is_finite());
        assert!(peak_rss_mb().expect("rss") > 1.0);
    }

    #[test]
    fn budget_stops_on_the_clock_but_not_before_three_samples() {
        let b = Budget {
            seconds: 0.0,
            single: false,
        };
        let t = Instant::now();
        assert!(!b.done(t, &[1.0, 1.0]));
        assert!(b.done(t, &[1.0, 1.0, 1.0]));
        let b = Budget {
            seconds: 1e9,
            single: false,
        };
        assert!(!b.done(t, &[1.0; 10]));
        let b = Budget {
            seconds: 1e9,
            single: true,
        };
        assert!(b.done(t, &[1.0]));
    }
}
