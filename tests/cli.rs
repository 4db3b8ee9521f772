//! Hostile command lines: malformed input is a one-line error and exit
//! code 2 before any rank world starts — never a panic, never a silent
//! fallback to a default.

use std::process::Command;

fn spawn(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_frontier-sim"))
        .args(args)
        .output()
        .expect("spawn frontier-sim")
}

/// Run `frontier-sim <args>`; returns (exit code, stderr).
fn frontier_sim(args: &[&str]) -> (Option<i32>, String) {
    let out = spawn(args);
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn run_prints_one_line_per_pm_step() {
    let out = spawn(&["run", "--np", "8", "--steps", "3", "--ranks", "2"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let steps: Vec<&str> = stdout.lines().filter(|l| l.starts_with("  step ")).collect();
    assert_eq!(steps.len(), 3, "{stdout}");
    assert!(steps.iter().all(|l| l.contains("substeps")), "{stdout}");
    // And one line of the ranks' traffic per PM step.
    let comm: Vec<&str> = stdout.lines().filter(|l| l.starts_with("comm: ")).collect();
    assert_eq!(comm.len(), 1, "{stdout}");
    assert!(comm[0].ends_with(" MB per PM step (all ranks)"), "{stdout}");
    let msgs: f64 = comm[0]["comm: ".len()..].split(' ').next().unwrap().parse().unwrap();
    assert!(msgs > 0.0, "{stdout}");
}

#[test]
fn malformed_chaos_spec_is_a_one_line_error_and_exit_2() {
    let (code, stderr) = frontier_sim(&["run", "--np", "8", "--steps", "1", "--chaos", "bogus@@"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("invalid chaos spec:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn flag_without_a_value_is_rejected_not_defaulted() {
    let (code, stderr) = frontier_sim(&["run", "--np", "8", "--steps", "1", "--seed"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(stderr, "missing value for --seed\n");
}

#[test]
fn sanitize_with_chaos_is_refused_by_the_library_check() {
    let (code, stderr) = frontier_sim(&[
        "run", "--np", "8", "--steps", "1", "--sanitize", "--chaos", "panic@1:0",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(
        stderr,
        "invalid configuration: sanitize does not combine with chaos (use HACC_SAN=1)\n"
    );
}

#[test]
fn rank_counts_the_box_cannot_hold_are_refused_before_any_world_starts() {
    for sub in ["run", "ranks"] {
        let (code, stderr) = frontier_sim(&[sub, "--ranks", "0"]);
        assert_eq!(code, Some(2), "{stderr}");
        assert_eq!(stderr, "invalid configuration: need at least one rank\n");
    }
    // 3 ranks split the 8-cell box 3x1x1: 2.67 cells, under the 4-cell overload.
    let (code, stderr) = frontier_sim(&["run", "--np", "8", "--ranks", "3"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(
        stderr,
        "invalid configuration: overload width 4 exceeds the subdomain extent 2.67 of 3 ranks\n"
    );
}

#[test]
fn misspelt_option_is_rejected_not_ignored() {
    for sub in ["run", "ranks"] {
        let (code, stderr) = frontier_sim(&[sub, "--bogus", "3"]);
        assert_eq!(code, Some(2), "{sub}: {stderr}");
        assert_eq!(stderr, "unknown option --bogus\n", "{sub}");
    }
}

#[test]
fn lint_and_scaling_are_not_subcommands() {
    // The linter is the `hacc-lint` binary; the scaling sweep is the
    // `fig4_scaling` bench.
    for sub in ["lint", "scaling"] {
        let (code, stderr) = frontier_sim(&[sub]);
        assert_eq!(code, Some(2), "{sub}: {stderr}");
        assert!(stderr.starts_with("usage: frontier-sim <run|ranks|info>"), "{sub}: {stderr}");
    }
}

#[test]
fn backend_is_not_an_option() {
    // There is one rank host; nothing selects it.
    for sub in ["run", "ranks"] {
        let (code, stderr) = frontier_sim(&[sub, "--backend", "coop"]);
        assert_eq!(code, Some(2), "{sub}: {stderr}");
        assert_eq!(stderr, "unknown option --backend\n", "{sub}");
    }
}

#[test]
fn unwritable_telemetry_dir_is_refused_before_any_world_starts() {
    // One that cannot be created, one that exists and takes no files.
    for dir in ["/proc/nope/x", "/proc/self"] {
        let out = spawn(&["run", "--np", "8", "--steps", "1", "--telemetry", dir]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{dir}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{dir}: {stderr}");
        assert!(stderr.starts_with("cannot write telemetry to "), "{dir}: {stderr}");
        assert!(!stderr.contains("panicked"), "{dir}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("completed"), "{dir}: {stdout}");
    }
}

#[test]
fn unreadable_san_allow_is_refused_before_any_world_starts() {
    // A workspace root whose san.allow is not text.
    let root = std::env::temp_dir().join(format!("frontier-cli-allow-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(root.join("san.allow"), [0xffu8, 0xfe]).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_frontier-sim"))
        .args(["run", "--np", "8", "--steps", "1", "--sanitize"])
        .current_dir(&root)
        .output()
        .expect("spawn frontier-sim");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("san.allow: "), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("completed"));
    std::fs::remove_dir_all(&root).unwrap();
}
