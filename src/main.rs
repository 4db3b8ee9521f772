//! `frontier-sim` — command-line driver for the CRK-HACC reproduction.
//!
//! ```text
//! frontier-sim run   [--np N] [--ranks R] [--steps S] [--physics hydro|adiabatic|gravity]
//!                    [--zi Z] [--zf Z] [--seed S] [--out DIR] [--flat] [--resume]
//!                    [--telemetry DIR] [--chaos SPEC] [--sanitize]
//! frontier-sim ranks [--ranks R] [--rounds K] [--seed S] [--sanitize]
//! frontier-sim info
//! ```

#![forbid(unsafe_code)]

use frontier_sim::core::driver::chaos_plan;
use frontier_sim::core::{resume_simulation, run_simulation, Physics, SimConfig};
use frontier_sim::ranks::{smoke, World};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("ranks") => cmd_ranks(&args[1..]),
        Some("info") => cmd_info(),
        _ => {
            eprintln!(
                "usage: frontier-sim <run|ranks|info> [options]\n\
                 \n\
                 run options:\n\
                 \x20 --np N          particles per dimension per species (default 12)\n\
                 \x20 --ranks R       simulated ranks (default 2)\n\
                 \x20 --steps S       global PM steps (default 4)\n\
                 \x20 --physics P     hydro | adiabatic | gravity (default hydro)\n\
                 \x20 --zi Z          initial redshift (default 9)\n\
                 \x20 --zf Z          final redshift (default 4)\n\
                 \x20 --seed S        RNG seed\n\
                 \x20 --out DIR       I/O directory (enables restart)\n\
                 \x20 --flat          synchronized deepest-rung stepping\n\
                 \x20 --resume        resume from the newest checkpoint in --out\n\
                 \x20 --telemetry DIR write trace.json + report.txt to DIR\n\
                 \x20 --chaos SPEC    inject faults and supervise recovery;\n\
                 \x20                 SPEC = site@step:rank,... | auto@N with sites\n\
                 \x20                 panic comm-delay comm-dup comm-trunc ckpt-torn\n\
                 \x20                 ckpt-crc nvme-err gpu-launch\n\
                 \x20 --sanitize      run under the hacc-san dynamic sanitizer\n\
                 \x20                 (rank privacy, collective matching, deadlock);\n\
                 \x20                 exit 1 on any finding\n\
                 \n\
                 ranks options (self-checking communication smoke world):\n\
                 \x20 --ranks R       world size (default 256; 4096 works on a laptop)\n\
                 \x20 --rounds K      rounds of the full collective suite (default 2)\n\
                 \x20 --seed S        workload seed (default 2026)\n\
                 \x20 --sanitize      run under hacc-san; output is deterministic and\n\
                 \x20                 byte-comparable across repeated invocations"
            );
            std::process::exit(2);
        }
    }
}

/// Exit 2 on an argument that is neither one of the subcommand's
/// `valued` options, the value following one, nor one of its `flags`
/// (both space-separated).
fn reject_unknown(args: &[String], valued: &str, flags: &str) {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if valued.split_whitespace().any(|o| o == a) {
            it.next();
        } else if !flags.split_whitespace().any(|o| o == a) {
            eprintln!("unknown option {a}");
            std::process::exit(2);
        }
    }
}

fn parse_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_opt<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            let Some(v) = it.next() else {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            };
            if let Ok(parsed) = v.parse() {
                return parsed;
            }
            eprintln!("bad value for {name}: {v}");
            std::process::exit(2);
        }
    }
    default
}

/// `frontier-sim ranks`: stand up an R-rank SPMD world running the
/// self-checking collective smoke workload and print a deterministic
/// summary. Every payload is closed-form in `(seed, size, rank)`, so the
/// digest — and with `--sanitize` the whole report — is byte-identical
/// across repeated runs; the verify scaling tier compares exactly that.
fn cmd_ranks(args: &[String]) {
    reject_unknown(args, "--ranks --rounds --seed", "--sanitize");
    let ranks: usize = parse_opt(args, "--ranks", 256);
    if ranks == 0 {
        eprintln!("invalid configuration: need at least one rank");
        std::process::exit(2);
    }
    let rounds: usize = parse_opt(args, "--rounds", 2);
    let seed: u64 = parse_opt(args, "--seed", 2026);
    println!("# frontier-sim ranks");
    println!("ranks               : {ranks}");
    println!("rounds              : {rounds}");
    println!("seed                : {seed}");
    // Order-sensitive FNV-1a over the per-rank digests.
    let digest_of = |digests: &[u64]| hacc_rt::fnv1a(digests.iter().copied());
    if parse_flag(args, "--sanitize") {
        let (digests, report) =
            World::run_sanitized(ranks, |comm| smoke::smoke(comm, seed, rounds));
        let digests = digests.unwrap_or_else(|| {
            panic!("sanitizer aborted the run:\n{}", report.render_text())
        });
        println!("digest              : {:016x}", digest_of(&digests));
        print!("{}", report.render_text());
        if !report.is_clean() {
            std::process::exit(1);
        }
    } else {
        let digests = World::run(ranks, |comm| smoke::smoke(comm, seed, rounds));
        println!("digest              : {:016x}", digest_of(&digests));
    }
}

/// Create the `--telemetry` directory (none asked for: nothing to do)
/// and prove a file can be written into it, or say why not.
fn writable_dir(dir: &str) -> Result<(), String> {
    if dir.is_empty() {
        return Ok(());
    }
    let probe = std::path::Path::new(dir).join("trace.json");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&probe))
        .map(drop)
        .map_err(|e| format!("cannot write telemetry to {dir}: {e}"))
}

fn cmd_run(args: &[String]) {
    reject_unknown(
        args,
        "--np --ranks --steps --physics --zi --zf --seed --out --telemetry --chaos",
        "--flat --resume --sanitize",
    );
    let np: usize = parse_opt(args, "--np", 12);
    let ranks: usize = parse_opt(args, "--ranks", 2);
    let steps: usize = parse_opt(args, "--steps", 4);
    let physics = match parse_opt(args, "--physics", "hydro".to_string()).as_str() {
        "hydro" => Physics::Hydro,
        "adiabatic" => Physics::HydroAdiabatic,
        "gravity" => Physics::GravityOnly,
        other => {
            eprintln!("unknown physics {other:?} (hydro|adiabatic|gravity)");
            std::process::exit(2);
        }
    };
    let zi: f64 = parse_opt(args, "--zi", 9.0);
    let zf: f64 = parse_opt(args, "--zf", 4.0);

    let mut cfg = SimConfig::small(np);
    cfg.physics = physics;
    cfg.pm_steps = steps;
    cfg.a_init = 1.0 / (1.0 + zi);
    cfg.a_final = 1.0 / (1.0 + zf);
    cfg.seed = parse_opt(args, "--seed", cfg.seed);
    cfg.flat_stepping = parse_flag(args, "--flat");
    let out: String = parse_opt(args, "--out", String::new());
    if !out.is_empty() {
        cfg.io_dir = Some(out.clone().into());
    }
    let chaos: String = parse_opt(args, "--chaos", String::new());
    cfg.chaos = (!chaos.is_empty()).then_some(chaos);
    cfg.sanitize = parse_flag(args, "--sanitize");
    let resume = parse_flag(args, "--resume");
    let telemetry_dir: String = parse_opt(args, "--telemetry", String::new());
    // Reject here, as one line, what the library would refuse by panic
    // and what the run could only discover once its results exist,
    // before any world starts.
    let checked = cfg
        .check()
        .and_then(|()| cfg.check_ranks(ranks))
        .and_then(|()| chaos_plan(&cfg, ranks))
        .and_then(|_| {
            if resume && cfg.io_dir.is_none() {
                Err("--resume requires --out DIR".into())
            } else if resume && cfg.sanitize {
                Err("--resume does not combine with --sanitize (use HACC_SAN=1)".into())
            } else {
                Ok(())
            }
        })
        .and_then(|()| writable_dir(&telemetry_dir));
    if let Err(e) = checked {
        eprintln!("{e}");
        std::process::exit(2);
    }

    println!(
        "frontier-sim: {} particles, {:.0} Mpc/h box, {} PM steps, z = {:.1} -> {:.1}, {} ranks",
        cfg.total_particles(),
        cfg.box_size,
        cfg.pm_steps,
        zi,
        zf,
        ranks
    );
    // d1: allow: CLI-level elapsed-time print on stdout; never enters telemetry artifacts or checkpoints
    let t0 = std::time::Instant::now();
    let report = if resume {
        resume_simulation(&cfg, ranks)
    } else {
        run_simulation(&cfg, ranks)
    };
    let wall = t0.elapsed().as_secs_f64();

    if !telemetry_dir.is_empty() {
        let dir = std::path::Path::new(&telemetry_dir);
        std::fs::write(dir.join("trace.json"), report.telemetry.chrome_trace())
            .expect("write trace.json");
        std::fs::write(dir.join("report.txt"), report.telemetry.text_report())
            .expect("write report.txt");
        println!(
            "telemetry: wrote {} and {}",
            dir.join("trace.json").display(),
            dir.join("report.txt").display()
        );
        if let Some(san) = &report.sanitizer {
            std::fs::write(dir.join("sanitizer.txt"), san.render_text())
                .expect("write sanitizer.txt");
            std::fs::write(
                dir.join("sanitizer.json"),
                frontier_sim::san::render_json(&san.findings),
            )
            .expect("write sanitizer.json");
            println!(
                "telemetry: wrote {} (+ .json)",
                dir.join("sanitizer.txt").display()
            );
        }
    }

    println!("\ncompleted {} step(s) in {wall:.1} s", report.steps.len());
    println!(
        "state hash: {:016x} (attempts {}, rollbacks {})",
        report.final_state_hash, report.attempts, report.rollbacks
    );
    if report.rollbacks > 0 {
        let injected: u64 = report
            .telemetry
            .ranks
            .iter()
            .map(|r| r.faults.total_injected())
            .sum();
        println!("supervisor: recovered from {injected} injected fault(s)");
    }
    // One line per PM step: the subcycle depth decides a hydro step's cost.
    println!("\nsteps:");
    for s in &report.steps {
        println!(
            "  step {:>3}  z {:>7.3}  substeps {:>3}  particles {:>9}  stars {:>5}  wall {:>7.3} s",
            s.step, s.z, s.substeps, s.particles, s.stars_formed, s.wall_seconds
        );
    }
    // What the ranks sent each other, summed over ranks, per PM step.
    let pm_steps = report.steps.len().max(1) as f64;
    let (msgs, bytes) = report
        .telemetry
        .ranks
        .iter()
        .fold((0, 0), |(m, b), r| (m + r.comm.sends, b + r.comm.bytes_sent));
    println!(
        "\ncomm: {:.0} messages, {:.2} MB per PM step (all ranks)",
        msgs as f64 / pm_steps,
        bytes as f64 / pm_steps / 1e6
    );
    println!("\nphase breakdown:");
    for (phase, frac) in report.timers.fractions() {
        println!("  {:<12} {:>5.1}%", phase.name(), frac * 100.0);
    }
    println!("\nper-kernel profile (modeled on {}):", 
        frontier_sim::gpusim::DeviceSpec::mi250x_gcd().name);
    let model = frontier_sim::gpusim::ExecutionModel::new(
        frontier_sim::gpusim::DeviceSpec::mi250x_gcd(),
    );
    // Pairs: offered by the leaf interaction list -> swept by the tiles
    // after lane compaction.
    for r in report.profile.rows(&model) {
        println!(
            "  {:<18} {:>10.2e} FLOPs  {:>9.2e} -> {:>8.2e} pairs  {:>5.1}% util  {:>5.1}% of time",
            r.name,
            r.flops as f64,
            (r.pairs + r.culled_pairs) as f64,
            r.pairs as f64,
            r.utilization * 100.0,
            r.time_share * 100.0
        );
    }
    println!("\nsolver:");
    println!("  FLOPs            : {:.3e}", report.counters.flops);
    println!("  pair interactions: {:.3e}", report.counters.pairs);
    println!(
        "  particles/s      : {:.3e}",
        report.particles_per_second
    );
    let mean_util =
        report.utilizations.iter().sum::<f64>() / report.utilizations.len().max(1) as f64;
    println!("  mean utilization : {:.1}% (modeled)", mean_util * 100.0);
    if report.io.checkpoints > 0 {
        println!("\nI/O (modeled at 9,000 nodes):");
        println!("  checkpoints      : {}", report.io.checkpoints);
        println!(
            "  effective BW     : {:.1} TB/s",
            report.io.effective_bandwidth_tbs()
        );
    }
    println!("\nscience:");
    println!("  FOF halos        : {}", report.n_halos);
    println!("  HOD galaxies     : {}", report.n_galaxies);
    println!("  stars formed     : {}", report.total_stars);
    println!(
        "  SZ concentration : {:.2} (top-1% pixel share)",
        report.y_map_concentration
    );
    if let Some(b) = report.power.first() {
        println!(
            "  P(k={:.3})        : {:.3e} (Mpc/h)^3",
            b.k, b.power
        );
    }
    if let Some(x) = report.xi.first() {
        println!("  xi(r={:.2})        : {:.3}", x.r, x.xi);
    }
    if let Some(san) = &report.sanitizer {
        println!("\nsanitizer:");
        for line in san.render_text().lines() {
            println!("  {line}");
        }
        if !san.is_clean() {
            std::process::exit(1);
        }
    }
}

fn cmd_info() {
    let paper = SimConfig::frontier_e();
    println!("frontier-sim — CRK-HACC / Frontier-E reproduction");
    println!("\npaper configuration (documented, not locally runnable):");
    println!("  particles : {:.2e}", paper.total_particles() as f64);
    println!(
        "  box       : {:.0} Mpc/h ({:.1} Gpc)",
        paper.box_size,
        paper.box_size / 1000.0 / paper.cosmology.h
    );
    println!("  PM mesh   : {}^3", paper.ngrid);
    println!("  PM steps  : {}", paper.pm_steps);
    println!("\ndevice catalog:");
    for d in frontier_sim::gpusim::DeviceSpec::catalog() {
        println!(
            "  {:<28} warp {:>2}, {:>5.1} TFLOPs FP32",
            d.name, d.warp_width, d.peak_tflops_fp32
        );
    }
    println!(
        "\nFrontier partition peak: {:.3} EFLOPs FP32 (9,000 nodes x 8 GCDs)",
        frontier_sim::gpusim::device::frontier::partition_peak_pflops() / 1000.0
    );
}
