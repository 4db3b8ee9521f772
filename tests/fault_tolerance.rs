//! Integration: end-to-end interrupt-and-resume.
//!
//! The paper checkpoints after *every* PM step precisely so the 196-hour
//! campaign survives Frontier's few-hour MTTI. Here we run a campaign,
//! "crash" it partway, resume from the newest CRC-valid checkpoint, and
//! verify the resumed run reaches the same final state as an
//! uninterrupted one — bit for bit, in every physics mode: a PM step
//! inherits the particle store and nothing else.

mod common;

use common::TempRunDir;
use frontier_sim::core::{resume_simulation, run_simulation, Physics, SimConfig};

/// Tear a checkpoint: flip one byte in the middle of its payload.
fn flip_middle_byte(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(path, bytes).unwrap();
}

/// Full hydro at low redshift: the CFL rule asks for the deepest rung
/// allowed and the subgrid models draw every substep, so a resumed step
/// that inherited anything but the checkpointed store would diverge.
fn cfg(tag: &str, steps: usize) -> (SimConfig, TempRunDir) {
    let mut c = SimConfig::small(8);
    c.a_init = 1.0 / 1.5;
    c.a_final = 1.0;
    c.max_rung = 1; // two substeps: deep enough to tell, cheap enough for debug builds
    c.pm_steps = steps;
    c.analysis_every = 0;
    c.checkpoint_every = 1;
    c.checkpoint_window = 16; // keep everything: the test prunes by hand
    c.seed = 1234;
    let dir = TempRunDir::new(tag);
    c.io_dir = Some(dir.path().to_path_buf());
    (c, dir)
}

#[test]
fn resumed_run_matches_uninterrupted() {
    let ranks = 2;
    // Reference: 4 steps straight through (in its own directory).
    let (cfg_ref, _dir_ref) = cfg("ref", 4);
    let reference = run_simulation(&cfg_ref, ranks);

    // Interrupted: an identical 4-step run whose post-crash checkpoints
    // we delete, emulating a machine interrupt after step 1's checkpoint
    // landed on the PFS.
    let (cfg_crash, dir_crash) = cfg("crash", 4);
    run_simulation(&cfg_crash, ranks);
    for r in 0..ranks {
        let pfs = dir_crash.path().join("pfs").join(format!("rank-{r}"));
        for e in std::fs::read_dir(&pfs).unwrap().flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if let Some(step) = frontier_sim::iosim::TieredWriter::parse_step(&name) {
                if step > 1 {
                    std::fs::remove_file(e.path()).unwrap();
                }
            }
        }
    }
    let resumed = resume_simulation(&cfg_crash, ranks);

    // The resumed run executed only the remaining steps...
    assert_eq!(resumed.steps.len(), 2, "resume should run steps 2 and 3");
    assert_eq!(resumed.steps[0].step, 2);

    // ...and lands on the same state, bit for bit...
    assert_eq!(resumed.final_state_hash, reference.final_state_hash);
    // ...so the science products agree too: same P(k), same momentum.
    assert_eq!(reference.power.len(), resumed.power.len());
    for (a, b) in reference.power.iter().zip(&resumed.power) {
        assert_eq!(a.modes, b.modes);
        let rel = (a.power - b.power).abs() / a.power.max(1e-30);
        assert!(
            rel < 1e-6,
            "P(k={:.3}) diverged after resume: rel {rel:.2e}",
            a.k
        );
    }
    // Momentum diagnostics agree too.
    for d in 0..3 {
        let diff = (reference.total_momentum[d] - resumed.total_momentum[d]).abs();
        assert!(
            diff < 1e-6 * reference.momentum_scale.max(1.0),
            "momentum diverged in component {d}"
        );
    }
}

#[test]
fn resume_skips_torn_checkpoint() {
    use frontier_sim::iosim::TieredWriter;
    let ranks = 1;
    let (c, dir) = cfg("torn", 4);
    run_simulation(&c, ranks);
    // A crash after step 2's checkpoint landed (step 3's never did), and
    // that newest checkpoint torn on the PFS: the resume must fall back
    // to the previous one and redo the lost steps.
    let pfs = dir.path().join("pfs").join("rank-0");
    std::fs::remove_file(pfs.join(TieredWriter::checkpoint_name(3))).unwrap();
    let (latest, path) = TieredWriter::latest_checkpoint(&pfs).unwrap();
    assert_eq!(latest, 2);
    flip_middle_byte(&path);

    let resumed = resume_simulation(&c, ranks);
    // Fell back to checkpoint 1 -> redoes steps 2 and 3.
    assert_eq!(resumed.steps.len(), 2);
    assert_eq!(resumed.steps[0].step, 2);
}

#[test]
fn resume_skips_crc_flipped_checkpoint_and_matches_reference() {
    // A checkpoint whose stored CRC word (not the payload) was flipped
    // must be rejected just like a torn payload, and resuming from the
    // older valid checkpoint must land on the *bitwise* reference state.
    let ranks = 2;
    let (c, dir) = cfg("crcflip", 4);
    let reference = run_simulation(&c, ranks);
    // Flip a byte in the CRC trailer of every rank's newest checkpoint.
    for r in 0..ranks {
        let pfs = dir.path().join("pfs").join(format!("rank-{r}"));
        let (latest, path) =
            frontier_sim::iosim::TieredWriter::latest_checkpoint(&pfs).unwrap();
        assert_eq!(latest, 3);
        frontier_sim::iosim::inject::corrupt_crc(&path).unwrap();
        // The reader must now refuse this file...
        assert!(
            frontier_sim::iosim::read_blocks(&path).is_err(),
            "CRC-flipped checkpoint still readable"
        );
        // ...and the newest *valid* one is the previous step.
        let (valid, _) =
            frontier_sim::iosim::TieredWriter::load_latest_valid(&pfs).unwrap();
        assert_eq!(valid, 2, "resume should fall back to checkpoint 2");
    }

    let resumed = resume_simulation(&c, ranks);
    // Fell back to checkpoint 2 -> redoes step 3.
    assert_eq!(resumed.steps.len(), 1);
    assert_eq!(resumed.steps[0].step, 3);
    // Recovery is bit-exact, not just roundoff-close.
    assert_eq!(
        resumed.final_state_hash, reference.final_state_hash,
        "resume from older valid checkpoint diverged from reference"
    );
}

#[test]
fn resume_restores_every_rank_from_the_common_step() {
    // Only rank 1 loses its newest checkpoint. Every rank must restart
    // from the newest step that is valid on *all* of them — rank 0
    // restarting from its own newest would leave the world split across
    // two steps.
    let ranks = 2;
    let (c, dir) = cfg("common", 4);
    let reference = run_simulation(&c, ranks);
    let pfs = dir.path().join("pfs").join("rank-1");
    let (latest, path) = frontier_sim::iosim::TieredWriter::latest_checkpoint(&pfs).unwrap();
    assert_eq!(latest, 3);
    flip_middle_byte(&path);

    let resumed = resume_simulation(&c, ranks);
    // Common step is 2 -> both ranks redo step 3.
    assert_eq!(resumed.steps.len(), 1);
    assert_eq!(resumed.steps[0].step, 3);
    assert_eq!(resumed.final_state_hash, reference.final_state_hash);
}

#[test]
fn hydro_state_survives_resume() {
    // Everything a step reads (u, metals, h, species beside the
    // collisionless columns) roundtrips through the checkpoint, and
    // nothing else is read. The last rank loses its newest checkpoint
    // and rank 0 the one before, so the newest step valid on all is 1:
    // every mode on every rank count redoes two steps onto the
    // uninterrupted run's exact state.
    use frontier_sim::iosim::TieredWriter;
    for physics in [Physics::GravityOnly, Physics::HydroAdiabatic, Physics::Hydro] {
        for ranks in [1, 2, 4] {
            let tag = format!("{physics:?}-r{ranks}");
            let (mut c, dir) = cfg(&format!("modes-{tag}"), 4);
            c.physics = physics;
            let reference = run_simulation(&c, ranks);
            for (rank, step) in [(ranks - 1, 3), (0, 2)] {
                let path = dir
                    .path()
                    .join(format!("pfs/rank-{rank}"))
                    .join(TieredWriter::checkpoint_name(step));
                flip_middle_byte(&path);
            }
            let resumed = resume_simulation(&c, ranks);
            assert_eq!(resumed.steps.len(), 2, "{tag}");
            assert_eq!(resumed.steps[0].step, 2, "{tag}");
            assert_eq!(resumed.final_state_hash, reference.final_state_hash, "{tag}");
        }
    }
}

/// A resume on another PM-step schedule than the checkpointing run's is
/// refused, naming both: a 4-step run resumed with 2 steps would step on
/// another `da` and report its state one half-kick behind. The error is a
/// typed payload private to the driver, so the check reads the message
/// the command line prints when the run panics.
#[test]
fn resume_on_another_schedule_panics_naming_both() {
    let dir = TempRunDir::new("schedule");
    let out = dir.path().to_str().unwrap();
    let run = |steps: &str, resume: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_frontier-sim"))
            .args(["run", "--np", "8", "--ranks", "1", "--physics", "gravity"])
            .args(["--zi", "1", "--zf", "0", "--steps", steps, "--out", out])
            .args(resume)
            .output()
            .expect("spawn frontier-sim")
    };
    assert!(run("4", &[]).status.success());
    let resumed = run("2", &["--resume"]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(!resumed.status.success(), "{stderr}");
    assert!(stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains(
            "checkpoint was written on the schedule a = 0.5 -> 1 in 4 PM steps, \
             not this run's a = 0.5 -> 1 in 2 PM steps"
        ),
        "{stderr}"
    );
}
