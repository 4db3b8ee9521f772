//! `benchmark` — the repository's benchmark (see `BENCHMARK.json` at the
//! repository root and `README.md` beside this package's manifest).
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR] [--quick]
//! benchmark                 # every workload, end-to-end then traced
//! benchmark --aa            # every workload twice, same seed: spread table
//! benchmark --manifest      # print BENCHMARK.json
//! ```
//!
//! The last line of standard output of a single run is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` prints the end-to-end metrics (measured with nothing
//! armed), `--trace 1` the per-layer metrics of the census. Exit status:
//! 0 when every output check passed, 1 when one failed (the metrics are
//! still printed), 2 on a usage or environment error.
//!
//! No environment variable is read here; `--seed` reaches `cfg.seed` and
//! the payload seed of `ranks::smoke`, nothing else. All scratch files
//! live under `--out` and are removed before exit; `results.json` and
//! `trace.json` stay there. The two sweeps start one child process per run
//! (this executable, with the single-run arguments), so every run is
//! exactly a driver run — allocator state and peak RSS included — and
//! leaves its artifacts in `<out>/<workload>.trace<0|1>[.a|.b]/`.

mod alloc;
mod census;
mod e2e;
mod hostprobe;
mod json;
mod manifest;
mod report;
mod stats;
mod trace;
mod traced;
mod workloads;

use e2e::Budget;
use json::Json;
use manifest::{END_TO_END, PER_LAYER, RUN_SECONDS};
use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Span;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Parsed command line.
struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    quick: bool,
    aa: bool,
    manifest: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from(".bench_out"),
        quick: false,
        aa: false,
        manifest: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || {
                    WORKLOADS
                        .iter()
                        .map(|w| w.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                args.workload =
                    Some(workloads::find(name).ok_or_else(|| {
                        format!("unknown workload {name:?} (known: {})", known())
                    })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One run of one workload: its outcome and, when traced, its spans.
fn run_one(
    w: &'static Workload,
    args: &Args,
    traced: bool,
) -> Result<(Outcome, Vec<Span>), String> {
    let budget = Budget {
        seconds: args.seconds,
        single: args.quick,
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("--out {}: {e}", args.out.display()))?;
    if traced {
        traced::run(w, args.seed, &budget, &args.out, args.quick)
    } else {
        e2e::run(w, args.seed, &budget, &args.out, args.quick).map(|o| (o, Vec::new()))
    }
}

/// Print an outcome for a reader: one `name value unit` row per metric,
/// then whatever failed.
fn print_outcome(o: &Outcome) {
    println!(
        "== {} seed {} trace {} ==",
        o.workload,
        o.seed,
        u8::from(o.traced)
    );
    for (name, value) in o.metrics() {
        println!(
            "  {name:<32} {value:>18.6} {}",
            manifest::unit_of(name).unwrap_or("")
        );
    }
    for (key, value) in &o.notes {
        if matches!(value, Json::Int(_) | Json::Num(_)) {
            println!("  ({key} = {})", value.compact());
        }
    }
    println!(
        "  repetitions checked: {}, failed: {}",
        o.attempted, o.failed
    );
    for f in &o.failures {
        println!("  FAILED: {f}");
    }
}

fn write_artifacts(out: &Path, record: &Json, spans: &[Span]) -> Result<(), String> {
    let put = |name: &str, text: String| {
        let path = out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    put("results.json", Json::Arr(vec![record.clone()]).pretty())?;
    if !spans.is_empty() {
        put("trace.json", trace::chrome_trace(spans).compact())?;
    }
    Ok(())
}

/// What a sweep needs back from one child run.
struct ChildRun {
    correct: bool,
    /// Everything the child printed.
    stdout: String,
    /// The child's result line (its last).
    line: String,
    /// The exact update count the child printed, as text.
    particle_updates: String,
}

impl ChildRun {
    /// `"name":{"value":X` of a result line as `Outcome::result_line`
    /// writes it (compact, this program's own writer — not general JSON).
    fn metric(&self, name: &str) -> Option<f64> {
        let key = format!("\"{name}\":{{\"value\":");
        let rest = &self.line[self.line.find(&key)? + key.len()..];
        rest[..rest.find(',')?].parse().ok()
    }
}

/// One run of `w` in a child process — this executable with the
/// single-run arguments, as the driver starts it.
fn run_child(w: &Workload, args: &Args, traced: bool, tag: &str) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = args
        .out
        .join(format!("{}.trace{}{tag}", w.name, u8::from(traced)));
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        w.name,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    cmd.args(["--trace", if traced { "1" } else { "0" }, "--out"])
        .arg(&out);
    if args.quick {
        cmd.arg("--quick");
    }
    let done = cmd
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&done.stdout).into_owned();
    if !matches!(done.status.code(), Some(0 | 1)) {
        return Err(format!(
            "child run of {} failed: {}",
            w.name,
            String::from_utf8_lossy(&done.stderr).trim()
        ));
    }
    let line = stdout.lines().last().unwrap_or_default().to_string();
    let particle_updates = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("(particle_updates = "))
        .map(|v| v.trim_end_matches(')').to_string())
        .unwrap_or_default();
    Ok(ChildRun {
        correct: line.contains("\"correct\":true"),
        stdout,
        line,
        particle_updates,
    })
}

/// `|a − b| ÷ min(a, b)`; 0 when both are 0.
fn spread(a: f64, b: f64) -> f64 {
    let lo = a.abs().min(b.abs());
    if a == b {
        0.0
    } else if lo == 0.0 {
        f64::INFINITY
    } else {
        (a - b).abs() / lo
    }
}

/// Per-layer counts that must repeat exactly between two same-seed runs.
const EXACT_COUNTS: [&str; 4] = [
    "grav.pairs",
    "sph.pairs",
    "ranks.msgs_per_step",
    "tree.leaf_pairs",
];

/// `--aa`: run every workload twice back to back with the same seed and
/// hold the two sets against the benchmark's own bounds. Returns whether
/// every end-to-end metric agreed within its bound, every exact count
/// repeated, and every run was correct.
fn run_aa(args: &Args) -> Result<bool, String> {
    let mut agree = true;
    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut table = vec![
        "| workload | metric | a | b | spread | bound | |".to_string(),
        "|---|---|---|---|---|---|---|".to_string(),
    ];
    for w in selected {
        let mut sets = Vec::new();
        for tag in [".a", ".b"] {
            let e = run_child(w, args, false, tag)?;
            let t = run_child(w, args, true, tag)?;
            agree &= e.correct && t.correct;
            sets.push((e, t));
        }
        let [(ea, ta), (eb, tb)] = [&sets[0], &sets[1]];
        for (d, bound) in &END_TO_END {
            let (a, b) = (
                ea.metric(d.name).unwrap_or(0.0),
                eb.metric(d.name).unwrap_or(0.0),
            );
            let ok = spread(a, b) <= *bound;
            agree &= ok;
            table.push(format!(
                "| {} | {} | {a:.6} | {b:.6} | {:.4} | {bound} | {} |",
                w.name,
                d.name,
                spread(a, b),
                if ok { "ok" } else { "DISAGREE" }
            ));
        }
        let count = |run: &ChildRun, n: &str| {
            run.metric(n)
                .map_or("missing".to_string(), |v| v.to_string())
        };
        let mut exact: Vec<(&str, String, String)> = EXACT_COUNTS
            .iter()
            .map(|n| (*n, count(ta, n), count(tb, n)))
            .collect();
        exact.push((
            "particle_updates",
            ea.particle_updates.clone(),
            eb.particle_updates.clone(),
        ));
        for (name, a, b) in exact {
            let ok = a == b && a != "missing" && !a.is_empty();
            agree &= ok;
            table.push(format!(
                "| {} | {name} (exact) | {a} | {b} | | | {} |",
                w.name,
                if ok { "ok" } else { "DIFFERS" }
            ));
        }
        for name in [
            "trace.attributed_frac",
            "trace.overhead_frac",
            "trace.short_range_share",
            "trace.long_range_share",
        ] {
            table.push(format!(
                "| {} | {name} (reported) | {:.4} | {:.4} | | | |",
                w.name,
                ta.metric(name).unwrap_or(0.0),
                tb.metric(name).unwrap_or(0.0)
            ));
        }
    }
    println!("{}", table.join("\n"));
    Ok(agree)
}

/// No arguments: every workload, end to end first (nothing armed, nothing
/// traced), then the traced run, one child process each.
fn run_sweep(args: &Args) -> Result<bool, String> {
    let mut correct = true;
    for w in &WORKLOADS {
        for traced in [false, true] {
            let run = run_child(w, args, traced, "")?;
            print!("{}", run.stdout);
            correct &= run.correct;
        }
    }
    println!(
        "{} + {} metrics per workload; results.json and trace.json are in {}/<workload>.trace<0|1>/",
        END_TO_END.len(),
        PER_LAYER.len(),
        args.out.display()
    );
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.manifest {
        print!("{}", manifest::benchmark_json().pretty());
        return Ok(true);
    }
    if args.aa {
        return run_aa(&args);
    }
    match args.workload {
        Some(w) => {
            let (outcome, spans) = run_one(w, &args, args.trace)?;
            print_outcome(&outcome);
            write_artifacts(&args.out, &outcome.record(), &spans)?;
            println!("{}", outcome.result_line().compact());
            Ok(outcome.correct())
        }
        None => run_sweep(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests that run simulations arm the process-wide allocator flag and
    /// use scratch directories; they take this lock so they neither
    /// disturb each other nor the allocator's own test.
    pub static HEAVY: Mutex<()> = Mutex::new(());

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn command_line_as_the_driver_writes_it() {
        let a = parse_args(&argv("--workload pm-grid --seed 42 --seconds 20 --trace 1"))
            .expect("parses");
        assert_eq!(a.workload.map(|w| w.name), Some("pm-grid"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (42, 20.0, true, false)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    /// The sweeps read child result lines with a scanner, not a JSON
    /// parser; it has to stay in step with the writer.
    #[test]
    fn child_result_scanner_reads_what_the_writer_writes() {
        let mut o = Outcome::new("w", 1, false);
        o.attempted = 2;
        o.set("wall_s", 1.25);
        o.set("grav.pairs", 39536135.0);
        o.set("trace.overhead_frac", -0.0125);
        let line = o.result_line().compact();
        let run = ChildRun {
            correct: line.contains("\"correct\":true"),
            stdout: String::new(),
            line,
            particle_updates: String::new(),
        };
        assert!(run.correct);
        assert_eq!(run.metric("wall_s"), Some(1.25));
        assert_eq!(run.metric("grav.pairs"), Some(39536135.0));
        assert_eq!(run.metric("trace.overhead_frac"), Some(-0.0125));
        assert_eq!(run.metric("pairs"), None);
    }

    #[test]
    fn spread_is_relative_to_the_smaller_value() {
        assert_eq!(spread(1.0, 1.1), 0.10000000000000009);
        assert_eq!(spread(1.1, 1.0), spread(1.0, 1.1));
        assert_eq!(spread(0.0, 0.0), 0.0);
        assert!(spread(0.0, 1.0).is_infinite());
    }

    /// `--quick` on every workload, both runs: the printed names are
    /// exactly the declared ones (`check_names` fails the run otherwise,
    /// in both directions), every output check passes, nothing is left
    /// behind, and the whole sweep stays a smoke test.
    #[test]
    fn quick_run_of_every_workload_prints_exactly_the_declared_metrics() {
        let _guard = HEAVY.lock().unwrap_or_else(|e| e.into_inner());
        let out = PathBuf::from(".bench_out").join(format!("test-{}", std::process::id()));
        let args = Args {
            workload: None,
            seed: 7,
            seconds: 1.0,
            trace: false,
            out: out.clone(),
            quick: true,
            aa: false,
            manifest: false,
        };
        let started = std::time::Instant::now();
        for w in &WORKLOADS {
            for (traced, declared) in [(false, END_TO_END.len()), (true, PER_LAYER.len())] {
                let (o, spans) = run_one(w, &args, traced).expect("runs");
                assert!(o.correct(), "{} trace {traced}: {:?}", w.name, o.failures);
                assert_eq!(o.metrics().len(), declared);
                assert_eq!(spans.is_empty(), !traced);
                let line = o.result_line().compact();
                assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
                for (name, _) in o.metrics() {
                    assert!(
                        name.chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                        "{name}"
                    );
                }
                if traced {
                    let gas = o.get("sph.pairs").expect("sph.pairs");
                    assert_eq!(
                        gas > 0.0,
                        w.name.starts_with("hydro"),
                        "{}: sph.pairs {gas}",
                        w.name
                    );
                }
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        let left: Vec<_> = std::fs::read_dir(&out)
            .map(|d| d.flatten().map(|e| e.file_name()).collect())
            .unwrap_or_default();
        let _ = std::fs::remove_dir_all(&out);
        let _ = std::fs::remove_dir(".bench_out"); // only if this test created it
        assert!(left.is_empty(), "scratch left under --out: {left:?}");
        assert!(elapsed < 15.0, "--quick sweep took {elapsed:.1} s");
    }
}
