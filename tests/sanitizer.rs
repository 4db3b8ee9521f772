//! End-to-end hacc-san coverage: seeded violations must be caught, and
//! clean full-driver runs must stay clean — byte-identically — at every
//! rank count the test tier uses.
//!
//! The `#[ignore]`d canary at the bottom is the tier-4 gate's
//! self-check: `scripts/verify.sh` runs it with `HACC_SAN=1` and
//! asserts that it FAILS, proving the armed gate actually detects a
//! seeded race rather than silently passing everything.

use frontier_sim::core::{run_simulation, SimConfig};
use frontier_sim::ranks::World;
use frontier_sim::san;

fn quietly<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

fn tiny_sanitized(ranks: usize) -> SimConfig {
    let mut cfg = SimConfig::small(8);
    cfg.pm_steps = 2;
    cfg.sanitize = true;
    cfg.seed = 1234 + ranks as u64;
    cfg
}

// ------------------------------------------------- seeded violations --

#[test]
fn seeded_unordered_writes_are_caught_as_r1() {
    // Both ranks write the shared region right after a barrier. The
    // barrier orders each write after every PRE-barrier event, but the
    // two post-barrier writes are concurrent with each other — the
    // exact shape of an unsynchronized shared-buffer fill.
    let region = san::region("seeded-shared-buffer");
    let (results, report) = World::run_sanitized(2, move |comm| {
        comm.barrier();
        san::annotate_write(region);
        comm.barrier();
    });
    assert!(results.is_some(), "races report, they do not abort");
    let races: Vec<_> = report
        .findings
        .iter()
        .filter(|d| d.rule == san::Rule::R1)
        .collect();
    assert_eq!(races.len(), 1, "{}", report.render_text());
    assert!(
        races[0].message.contains("seeded-shared-buffer"),
        "{}",
        races[0].message
    );
}

#[test]
fn seeded_skipped_barrier_is_caught_as_w1_cycle() {
    // Rank 1 skips the barrier and waits on a message rank 0 never
    // sends: a two-rank wait cycle. The detector must name both edges
    // and abort instead of hanging the suite.
    let (results, report) = quietly(|| {
        World::run_sanitized(2, |comm| {
            if comm.rank() == 0 {
                comm.barrier();
            } else {
                let _ = comm.recv::<u64>(0, 77);
            }
        })
    });
    assert!(results.is_none(), "a deadlock aborts the world");
    let cycles: Vec<_> = report
        .findings
        .iter()
        .filter(|d| d.rule == san::Rule::W1)
        .collect();
    assert_eq!(cycles.len(), 1, "{}", report.render_text());
    assert!(cycles[0].message.contains("rank 0 waits on rank 1"));
    assert!(cycles[0].message.contains("rank 1 waits on rank 0"));
}

#[test]
fn seeded_payload_mismatch_is_caught_as_m1() {
    let (results, report) = quietly(|| {
        World::run_sanitized(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, 7u32);
            } else {
                let _ = comm.recv::<u64>(0, 5);
            }
        })
    });
    assert!(results.is_none(), "a payload mismatch aborts the world");
    assert!(
        report
            .findings
            .iter()
            .any(|d| d.rule == san::Rule::M1),
        "{}",
        report.render_text()
    );
}

// ------------------------------------ seeded violations, second set --
//
// The same three contracts on their own fixtures, under the names the
// tier-1 test floor records; there is one rank host, so each runs once.

#[test]
fn seeded_r1_caught_on_both_backends() {
    let region = san::region("seeded-backend-race");
    let (results, report) = World::run_sanitized(2, move |comm| {
        comm.barrier();
        san::annotate_write(region);
        comm.barrier();
    });
    assert!(results.is_some());
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|d| d.rule == san::Rule::R1)
            .count(),
        1,
        "{}",
        report.render_text()
    );
}

#[test]
fn seeded_w1_deadlock_caught_on_both_backends() {
    let (results, report) = quietly(|| {
        World::run_sanitized(2, |comm| {
            if comm.rank() == 0 {
                comm.barrier();
            } else {
                let _ = comm.recv::<u64>(0, 77);
            }
        })
    });
    assert!(results.is_none(), "a deadlock aborts");
    assert!(
        report
            .findings
            .iter()
            .any(|d| d.rule == san::Rule::W1),
        "{}",
        report.render_text()
    );
}

#[test]
fn seeded_m1_mismatch_caught_on_both_backends() {
    let (results, report) = quietly(|| {
        World::run_sanitized(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, 7u32);
            } else {
                let _ = comm.recv::<u64>(0, 5);
            }
        })
    });
    assert!(results.is_none(), "payload mismatch aborts");
    assert!(
        report
            .findings
            .iter()
            .any(|d| d.rule == san::Rule::M1),
        "{}",
        report.render_text()
    );
}

#[test]
fn multiplexed_deadlock_is_diagnosed_not_hung() {
    // A wait cycle in a world far wider than the host's lane count: the
    // scheduler must prove quiescence (every live task parked) and the
    // sanitizer must name the cycle and abort, instead of the suite
    // hanging. Ranks outside the cycle finish cleanly first.
    let (results, report) = quietly(|| {
        World::run_sanitized(64, |comm| {
            match comm.rank() {
                // Ranks 0 and 1 wait on each other; everyone else exits.
                0 => {
                    let _ = comm.recv::<u64>(1, 90);
                }
                1 => {
                    let _ = comm.recv::<u64>(0, 91);
                }
                _ => {}
            }
        })
    });
    assert!(results.is_none(), "a deadlock aborts the world");
    let w1: Vec<_> = report
        .findings
        .iter()
        .filter(|d| d.rule == san::Rule::W1)
        .collect();
    assert_eq!(w1.len(), 1, "{}", report.render_text());
    assert!(
        w1[0].message.contains("rank 0") && w1[0].message.contains("rank 1"),
        "{}",
        w1[0].message
    );
}

// --------------------------------------------------- clean full runs --

#[test]
fn clean_driver_runs_are_finding_free_and_byte_stable() {
    for ranks in [1usize, 2, 4, 8] {
        let cfg = tiny_sanitized(ranks);
        let a = run_simulation(&cfg, ranks);
        let b = run_simulation(&cfg, ranks);
        let ra = a.sanitizer.expect("sanitized run carries a report");
        let rb = b.sanitizer.expect("sanitized run carries a report");
        assert!(
            ra.is_clean(),
            "ranks={ranks}:\n{}",
            ra.render_text()
        );
        assert_eq!(
            ra.render_text(),
            rb.render_text(),
            "ranks={ranks}: sanitizer report must be byte-identical run to run"
        );
        assert!(ra.collectives > 0, "driver collectives are ledger-checked");
        assert!(ra.accesses > 0, "ghost-exchange regions are annotated");
    }
}

#[test]
fn sanitizer_lines_land_in_the_telemetry_golden_section() {
    let cfg = tiny_sanitized(2);
    let report = run_simulation(&cfg, 2);
    let txt = report.telemetry.text_report();
    let golden = frontier_sim::telem::golden_section(&txt);
    assert!(golden.contains("[sanitizer] collectives "), "{golden}");
}

// -------------------------------------------------------- the canary --

/// Tier-4 self-check, run ONLY by `scripts/verify.sh` with `HACC_SAN=1`
/// and `--ignored`: the armed gate must FAIL on a seeded race. If this
/// test ever passes under `HACC_SAN=1`, the gate has lost its teeth.
#[test]
#[ignore = "verify.sh tier-4 canary: must FAIL under HACC_SAN=1"]
fn canary_seeded_race_must_fail() {
    let region = san::region("canary-race");
    // Plain World::run: only the HACC_SAN env arms it, and on findings
    // it panics — which is exactly what the gate asserts.
    World::run(2, move |comm| {
        comm.barrier();
        san::annotate_write(region);
        comm.barrier();
    });
}

/// Tier-6 self-check, run ONLY by `scripts/verify.sh` with `--ignored`:
/// a wait cycle buried in a 256-rank multiplexed world must fail the
/// run — as a sanitizer W1 abort under `HACC_SAN=1`, or as the
/// scheduler's deterministic quiescence panic without it — never as a
/// hang. If this test ever passes, deadlock detection has lost its
/// teeth.
#[test]
#[ignore = "verify.sh tier-6 canary: must FAIL (deadlock diagnosed, not hung)"]
fn canary_multiplexed_deadlock_must_fail() {
    World::run(256, |comm| match comm.rank() {
        100 => {
            let _ = comm.recv::<u64>(200, 90);
        }
        200 => {
            let _ = comm.recv::<u64>(100, 91);
        }
        _ => {}
    });
}
