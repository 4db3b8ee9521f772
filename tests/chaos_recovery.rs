//! Integration: live fault injection with supervised rollback recovery.
//!
//! The supervisor contract (ISSUE 3): a run that suffers injected
//! faults — rank panics, corrupted checkpoints, flaky transport, GPU
//! launch failures — must recover automatically and land on a final
//! state hash *bitwise identical* to an uninterrupted run of the same
//! seed, and the whole fault history must be deterministic enough that
//! two identical chaos runs emit byte-identical telemetry goldens. The
//! contract holds in every physics mode: a PM step inherits the particle
//! store and nothing else, so the gates here run full hydro.

mod common;

use common::TempRunDir;
use frontier_sim::core::{run_simulation, Physics, SimConfig};
use frontier_sim::telem::FaultKind;

/// Full hydro at low redshift: the CFL rule asks for the deepest rung
/// allowed and the subgrid models draw every substep, so a replayed step
/// that inherited anything but the store would diverge.
fn cfg(tag: &str, chaos: Option<&str>) -> (SimConfig, TempRunDir) {
    let mut c = SimConfig::small(8);
    c.a_init = 1.0 / 1.5;
    c.a_final = 1.0;
    c.max_rung = 1; // two substeps: deep enough to tell, cheap enough for debug builds
    c.pm_steps = 3;
    c.analysis_every = 0;
    c.checkpoint_every = 1;
    c.checkpoint_window = 16;
    c.seed = 1234;
    c.chaos = chaos.map(String::from);
    let dir = TempRunDir::new(tag);
    c.io_dir = Some(dir.path().to_path_buf());
    (c, dir)
}

/// Injected rank panics unwind through the test harness's panic hook
/// and would spam the output; filter exactly those, pass everything
/// else (real failures) through.
fn quiet_injected_panics() {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// The byte-stable region of the telemetry text report.
fn golden(report: &frontier_sim::core::SimReport) -> String {
    let text = report.telemetry.text_report();
    let begin = text.find("# === GOLDEN BEGIN ===").expect("golden begin");
    let end = text.find("# === GOLDEN END ===").expect("golden end");
    text[begin..end].to_string()
}

/// `run_simulation` is the supervisor: the library entry point honours
/// `cfg.chaos` itself, with no separate supervised launcher to forget.
#[test]
fn run_simulation_honours_the_chaos_spec() {
    quiet_injected_panics();
    let (cfg_ref, _ref_dir) = cfg("entry-ref", None);
    let (cfg_chaos, _chaos_dir) = cfg("entry-panic", Some("panic@1:0"));
    let reference = run_simulation(&cfg_ref, 2);
    let recovered = run_simulation(&cfg_chaos, 2);
    assert_eq!(recovered.rollbacks, 1);
    assert_eq!(recovered.final_state_hash, reference.final_state_hash);
}

#[test]
fn rank_loss_recovers_bitwise_in_every_physics_mode() {
    quiet_injected_panics();
    for physics in [Physics::GravityOnly, Physics::HydroAdiabatic, Physics::Hydro] {
        for ranks in [1, 2, 4] {
            let tag = format!("{physics:?}-r{ranks}");
            let (mut cfg_ref, _ref_dir) = cfg(&format!("modes-ref-{tag}"), None);
            let (mut cfg_chaos, _chaos_dir) =
                cfg(&format!("modes-{tag}"), Some("panic@2:0,ckpt-crc@1:0"));
            cfg_ref.physics = physics;
            cfg_chaos.physics = physics;
            let reference = run_simulation(&cfg_ref, ranks);
            let recovered = run_simulation(&cfg_chaos, ranks);
            assert_eq!(recovered.rollbacks, 1, "{tag}");
            assert_eq!(
                recovered.final_state_hash, reference.final_state_hash,
                "{tag}: recovered run diverged from the uninterrupted reference"
            );
        }
    }
}

#[test]
fn rank_panic_with_corrupt_checkpoint_recovers_bitwise() {
    quiet_injected_panics();
    let ranks = 2;
    let (cfg_ref, _ref_dir) = cfg("ref", None);
    let reference = run_simulation(&cfg_ref, ranks);
    assert_eq!(reference.attempts, 1);
    assert_eq!(reference.rollbacks, 0);

    // Rank 0's newest checkpoint (step 1) is CRC-corrupted as it is
    // written, then rank 1 dies at step 2: the supervisor must roll the
    // whole world back past the poisoned checkpoint and still converge.
    let (cfg_chaos, _chaos_dir) = cfg("panic-crc", Some("panic@2:1,ckpt-crc@1:0"));
    let recovered = run_simulation(&cfg_chaos, ranks);

    assert_eq!(recovered.attempts, 2, "one retry after the fatal fault");
    assert_eq!(recovered.rollbacks, 1);
    assert_eq!(
        recovered.final_state_hash, reference.final_state_hash,
        "recovered run diverged from the uninterrupted reference"
    );

    // The ledger shows exactly what was injected where.
    let faults = |r: usize| &recovered.telemetry.ranks[r].faults;
    assert_eq!(faults(0).injected(FaultKind::CkptCrc), 1);
    assert_eq!(faults(1).injected(FaultKind::RankPanic), 1);
}

#[test]
fn chaos_telemetry_is_deterministic() {
    quiet_injected_panics();
    let ranks = 2;
    let spec = "panic@2:1,ckpt-crc@1:0,comm-dup@1:0";
    let (cfg_a, _dir_a) = cfg("det-a", Some(spec));
    let (cfg_b, _dir_b) = cfg("det-b", Some(spec));
    let a = run_simulation(&cfg_a, ranks);
    let b = run_simulation(&cfg_b, ranks);
    assert_eq!(a.final_state_hash, b.final_state_hash);
    assert_eq!(a.attempts, b.attempts);
    assert_eq!(
        golden(&a),
        golden(&b),
        "same seed + same chaos spec must emit identical golden telemetry"
    );
}

#[test]
fn zero_fault_supervision_is_transparent() {
    let ranks = 2;
    // No chaos spec: one attempt, no probes armed — twice, in separate
    // run directories.
    let (cfg_plain, _d0) = cfg("plain", None);
    let plain = run_simulation(&cfg_plain, ranks);
    let (cfg_none, _d1) = cfg("none", None);
    let none = run_simulation(&cfg_none, ranks);
    // An armed plan whose events never fire (step 999
    // is past the end of the run): the probe hooks are live on every
    // send/recv/checkpoint but must not perturb anything.
    let (cfg_idle, _d2) = cfg("idle", Some("panic@999:0,comm-delay@999:1"));
    let idle = run_simulation(&cfg_idle, ranks);

    assert_eq!(none.final_state_hash, plain.final_state_hash);
    assert_eq!(idle.final_state_hash, plain.final_state_hash);
    assert_eq!(idle.attempts, 1);
    assert_eq!(idle.rollbacks, 0);
    assert_eq!(golden(&none), golden(&plain));
}

#[test]
fn transient_faults_recover_in_place_without_rollback() {
    let ranks = 2;
    let (cfg_ref, _ref_dir) = cfg("transient-ref", None);
    let reference = run_simulation(&cfg_ref, ranks);

    // One of every transient kind: delayed/duplicated/truncated
    // messages, an NVMe write error, a GPU launch failure. All are
    // absorbed inside the step loop — no rollback, same final state.
    let spec = "comm-delay@1:0,comm-dup@1:1,comm-trunc@2:0,nvme-err@1:0,gpu-launch@2:1";
    let (cfg_chaos, _chaos_dir) = cfg("transient", Some(spec));
    let recovered = run_simulation(&cfg_chaos, ranks);

    assert_eq!(recovered.attempts, 1, "transients must not trigger retries");
    assert_eq!(recovered.rollbacks, 0);
    assert_eq!(recovered.final_state_hash, reference.final_state_hash);

    // Every injected transient was also recovered. Injection is
    // ledgered where the fault fires (e.g. the sender of a duplicated
    // message), recovery where it is absorbed (the receiver that drops
    // the duplicate), so conservation holds per kind across ranks.
    for kind in [
        FaultKind::CommDelay,
        FaultKind::CommDup,
        FaultKind::CommTrunc,
        FaultKind::NvmeErr,
        FaultKind::GpuLaunch,
    ] {
        let total = |get: &dyn Fn(&frontier_sim::telem::FaultCounters) -> u64| {
            recovered.telemetry.ranks.iter().map(|r| get(&r.faults)).sum::<u64>()
        };
        assert_eq!(total(&|f| f.injected(kind)), 1, "{} not injected", kind.name());
        assert_eq!(total(&|f| f.recovered(kind)), 1, "{} not recovered", kind.name());
    }
}
