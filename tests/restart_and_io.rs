//! Integration: the simulation's checkpoints are complete, CRC-valid,
//! restartable artifacts on the (simulated) PFS.

mod common;

use common::TempRunDir;
use frontier_sim::core::{run_simulation, Physics, SimConfig};
use frontier_sim::iosim::TieredWriter;

fn io_cfg(tag: &str) -> (SimConfig, TempRunDir) {
    let mut cfg = SimConfig::small(8);
    cfg.physics = Physics::HydroAdiabatic;
    cfg.pm_steps = 3;
    cfg.max_rung = 1;
    cfg.analysis_every = 0;
    cfg.checkpoint_every = 1;
    let dir = TempRunDir::new(tag);
    cfg.io_dir = Some(dir.path().to_path_buf());
    (cfg, dir)
}

#[test]
fn checkpoints_land_on_pfs_and_reload() {
    let (cfg, dir) = io_cfg("reload");
    let ranks = 2;
    let report = run_simulation(&cfg, ranks);
    assert_eq!(report.io.checkpoints, cfg.pm_steps as u64);
    // Both ranks ran the substep counts the step records publish.
    let kicks: u64 = report
        .steps
        .iter()
        .map(|s| s.particles * (u64::from(s.substeps) + 1))
        .sum();
    assert_eq!(report.particle_updates, kicks);

    let mut total_particles = 0;
    for r in 0..ranks {
        let pfs = dir.path().join("pfs").join(format!("rank-{r}"));
        let (step, blocks) =
            TieredWriter::load_latest_valid(&pfs).expect("restartable checkpoint");
        assert_eq!(step, cfg.pm_steps as u64 - 1);
        // The restart state, in block order, under the names readers of
        // the format (`examples/sky_maps.rs`) look up: the store's 12
        // persistent columns, the final step's `closing_substeps` (0: it
        // closed itself) and the `schedule` those steps were taken on.
        // The rungs are per-step scratch and are not among them.
        let names: Vec<&str> = blocks.iter().map(|b| b.name.as_str()).collect();
        let particle =
            ["x", "y", "z", "vx", "vy", "vz", "mass", "u", "metals", "h", "id", "species"];
        assert_eq!(names[..12], particle);
        assert_eq!(names[12..], ["closing_substeps", "schedule"]);
        let closing = blocks.iter().find(|b| b.name == "closing_substeps").unwrap();
        assert_eq!(closing.as_u64(), [0]);
        let schedule = blocks.iter().find(|b| b.name == "schedule").unwrap();
        assert_eq!(schedule.as_f64(), [cfg.a_init, cfg.a_final, cfg.pm_steps as f64]);
        let x = blocks.iter().find(|b| b.name == "x").unwrap().as_f64();
        // Positions are inside the periodic box.
        assert!(x.iter().all(|&v| v >= 0.0 && v < cfg.box_size));
        total_particles += x.len();
    }
    assert_eq!(total_particles as u64, cfg.total_particles());
}

#[test]
fn checkpoint_window_prunes_old_steps() {
    let (mut cfg, dir) = io_cfg("prune");
    cfg.pm_steps = 5;
    run_simulation(&cfg, 1);
    let pfs = dir.path().join("pfs").join("rank-0");
    let mut steps: Vec<u64> = std::fs::read_dir(&pfs)
        .unwrap()
        .flatten()
        .filter_map(|e| TieredWriter::parse_step(&e.file_name().to_string_lossy()))
        .collect();
    steps.sort_unstable();
    // Window of 2 (the Frontier config): only the last two checkpoints.
    assert_eq!(steps, vec![3, 4], "pruning left {steps:?}");
}

#[test]
fn corrupted_checkpoint_falls_back_to_previous() {
    let (mut cfg, dir) = io_cfg("fallback");
    cfg.pm_steps = 4;
    run_simulation(&cfg, 1);
    let pfs = dir.path().join("pfs").join("rank-0");
    let (latest, path) = TieredWriter::latest_checkpoint(&pfs).unwrap();
    assert_eq!(latest, 3);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    std::fs::write(&path, bytes).unwrap();
    let (step, _) = TieredWriter::load_latest_valid(&pfs).unwrap();
    assert_eq!(step, 2, "must fall back past the torn checkpoint");
}

#[test]
fn ids_conserved_through_the_full_run() {
    let (cfg, dir) = io_cfg("ids");
    let ranks = 2;
    run_simulation(&cfg, ranks);
    let mut ids = Vec::new();
    for r in 0..ranks {
        let pfs = dir.path().join("pfs").join(format!("rank-{r}"));
        let (_, blocks) = TieredWriter::load_latest_valid(&pfs).unwrap();
        ids.extend(blocks.iter().find(|b| b.name == "id").unwrap().as_u64());
    }
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), before, "duplicate particle ids after migration");
    assert_eq!(ids.len() as u64, cfg.total_particles());
}

#[test]
fn runs_handed_no_directory_get_their_own_and_remove_it() {
    // Two same-seed runs at once in one process, neither given an
    // `io_dir`: each checkpoints into a tree of its own (every other test
    // of this binary names its directory, so any `frontier-sim-<pid>-*`
    // entry would be theirs), and none is left behind.
    let run = |np: usize| {
        let mut cfg = SimConfig::small(np);
        cfg.physics = Physics::GravityOnly;
        cfg.pm_steps = 2;
        cfg.analysis_every = 0;
        let report = run_simulation(&cfg, 2);
        assert_eq!(report.io.checkpoints, 2);
        assert_eq!(report.ledger.records()[1].count, cfg.total_particles());
    };
    std::thread::scope(|s| {
        s.spawn(|| run(8));
        s.spawn(|| run(10));
    });
    let mine = format!("frontier-sim-{}-", std::process::id());
    let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(&mine))
        .collect();
    assert!(left.is_empty(), "default I/O directories left behind: {left:?}");
}
