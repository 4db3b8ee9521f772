//! `hacc-fault` — the deterministic fault-injection plane.
//!
//! Frontier's mean time to interrupt is a few hours; the Frontier-E
//! campaign survived real mid-run node losses by checkpointing after
//! every PM step. This crate makes that robustness *testable*: a
//! [`FaultPlan`] names concrete failures (which site, which PM step,
//! which rank), shared [`FaultState`] tracks which of them have fired
//! across supervisor attempts, and per-rank [`FaultProbe`] handles are
//! threaded through the real execution path — `ranks::comm` (delayed,
//! duplicated, truncated messages), `iosim` (torn or CRC-corrupted
//! checkpoints, transient NVMe errors), `gpusim` (kernel launch
//! failures), and the driver step loop (rank panics).
//!
//! # Determinism contract
//!
//! Everything here is a pure function of the plan: no wall clocks, no
//! OS randomness. A plan either comes verbatim from a `--chaos SPEC`
//! string or is expanded from the run seed (`auto@N`) by a splitmix64
//! chain — so the same seed and spec produce the same injections, the
//! same recoveries, and byte-identical `FaultCounters` rows in the
//! telemetry golden report.
//!
//! Each planned event fires **exactly once per supervised run**, not
//! once per attempt: the consumed flags live in the shared
//! [`FaultState`] and survive supervisor rollbacks. That is what makes
//! recovery convergent — a replayed step does not re-suffer the fault
//! that killed it.
//!
//! # Spec grammar
//!
//! Comma-separated events, each `site@step:rank`:
//!
//! ```text
//! panic@2:1,ckpt-crc@1:0,comm-dup@0:1,auto@3
//! ```
//!
//! Sites: `panic`, `comm-delay`, `comm-dup`, `comm-trunc`, `ckpt-torn`,
//! `ckpt-crc`, `nvme-err`, `gpu-launch`. The pseudo-site `auto@N`
//! expands to `N` seed-derived events across all sites, steps, and
//! ranks.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hacc_rt::sync::Mutex;
use hacc_telem::{FaultCounters, FaultKind, FAULT_KINDS};

/// One planned fault: a site, the PM step it fires in, and the rank it
/// fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Injection site.
    pub site: FaultKind,
    /// PM step index the event arms at.
    pub step: u64,
    /// Rank the event fires on.
    pub rank: usize,
}

/// The full set of faults a run will suffer. Immutable once parsed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Planned events, in spec order.
    pub events: Vec<FaultEvent>,
}

fn site_from_token(tok: &str) -> Option<FaultKind> {
    Some(match tok {
        "panic" => FaultKind::RankPanic,
        "comm-delay" => FaultKind::CommDelay,
        "comm-dup" => FaultKind::CommDup,
        "comm-trunc" => FaultKind::CommTrunc,
        "ckpt-torn" => FaultKind::CkptTorn,
        "ckpt-crc" => FaultKind::CkptCrc,
        "nvme-err" => FaultKind::NvmeErr,
        "gpu-launch" => FaultKind::GpuLaunch,
        _ => return None,
    })
}

/// The splitmix64 step — the deterministic expansion primitive for
/// `auto@N` events (same seed, same plan, on every platform).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty plan (no chaos).
    pub fn empty() -> Self {
        Self::default()
    }

    /// True when no events are planned.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parse a `--chaos` spec. `seed`, `pm_steps`, and `n_ranks` scope
    /// the seed-derived `auto@N` expansion; explicit events beyond those
    /// bounds are accepted (they simply never fire).
    pub fn parse(
        spec: &str,
        seed: u64,
        pm_steps: u64,
        n_ranks: usize,
    ) -> Result<Self, String> {
        let mut events = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (site_tok, rest) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault spec {entry:?}: expected site@step:rank"))?;
            if site_tok == "auto" {
                let n: u64 = rest
                    .parse()
                    .map_err(|_| format!("fault spec {entry:?}: bad auto count"))?;
                let mut s = seed ^ 0xFA17_FA17_FA17_FA17;
                for _ in 0..n {
                    let site = FAULT_KINDS[(splitmix64(&mut s) % 8) as usize];
                    let step = splitmix64(&mut s) % pm_steps.max(1);
                    let rank = (splitmix64(&mut s) % n_ranks.max(1) as u64) as usize;
                    events.push(FaultEvent { site, step, rank });
                }
                continue;
            }
            let site = site_from_token(site_tok)
                .ok_or_else(|| format!("fault spec {entry:?}: unknown site {site_tok:?}"))?;
            let (step_tok, rank_tok) = rest
                .split_once(':')
                .ok_or_else(|| format!("fault spec {entry:?}: expected site@step:rank"))?;
            let step: u64 = step_tok
                .parse()
                .map_err(|_| format!("fault spec {entry:?}: bad step {step_tok:?}"))?;
            let rank: usize = rank_tok
                .parse()
                .map_err(|_| format!("fault spec {entry:?}: bad rank {rank_tok:?}"))?;
            events.push(FaultEvent { site, step, rank });
        }
        Ok(Self { events })
    }
}

/// Shared mutable fault state for one supervised run: which events have
/// fired (across attempts), per-rank counters, and the supervisor's
/// attempt/rollback tallies. Wrapped in an `Arc` and shared between the
/// supervisor and every rank's [`FaultProbe`].
pub struct FaultState {
    plan: FaultPlan,
    consumed: Vec<AtomicBool>,
    counters: Mutex<Vec<FaultCounters>>,
    attempts: AtomicU64,
    rollbacks: AtomicU64,
}

impl FaultState {
    /// Fresh state for `plan` over an `n_ranks` world.
    pub fn new(plan: FaultPlan, n_ranks: usize) -> Self {
        let consumed = plan.events.iter().map(|_| AtomicBool::new(false)).collect();
        Self {
            plan,
            consumed,
            counters: Mutex::new(vec![FaultCounters::default(); n_ranks]),
            attempts: AtomicU64::new(0),
            rollbacks: AtomicU64::new(0),
        }
    }

    /// Mark the start of a supervisor attempt.
    pub fn begin_attempt(&self) {
        self.attempts.fetch_add(1, Ordering::SeqCst);
    }

    /// Record one rollback-to-checkpoint recovery.
    pub fn record_rollback(&self) {
        self.rollbacks.fetch_add(1, Ordering::SeqCst);
    }

    /// Attempts taken so far.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::SeqCst)
    }

    /// Rollbacks performed so far.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks.load(Ordering::SeqCst)
    }

    /// The planned events.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of one rank's accumulated counters (all attempts).
    pub fn counters_for(&self, rank: usize) -> FaultCounters {
        self.counters.lock()[rank].clone()
    }
}

/// A per-rank handle into the shared fault state. Cheap to clone; clones
/// share the same logical step so `set_step` on any of them (the driver
/// owns that call) re-arms them all.
#[derive(Clone)]
pub struct FaultProbe {
    state: Arc<FaultState>,
    rank: usize,
    step: Arc<AtomicU64>,
}

impl FaultProbe {
    /// A probe for `rank` over the shared state.
    pub fn new(state: Arc<FaultState>, rank: usize) -> Self {
        Self {
            state,
            rank,
            step: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The rank this probe belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Advance the logical step all clones of this probe see.
    pub fn set_step(&self, step: u64) {
        self.step.store(step, Ordering::SeqCst);
    }

    /// Fire at `site` if an unconsumed planned event matches
    /// (site, current step, this rank). Consumes the event — across
    /// supervisor attempts it never fires again — and records the
    /// injection. Returns whether a fault was injected.
    pub fn fire(&self, site: FaultKind) -> bool {
        let step = self.step.load(Ordering::SeqCst);
        for (i, ev) in self.state.plan.events.iter().enumerate() {
            if ev.site == site
                && ev.step == step
                && ev.rank == self.rank
                && !self.state.consumed[i].swap(true, Ordering::SeqCst)
            {
                self.state.counters.lock()[self.rank].record_injected(site);
                return true;
            }
        }
        false
    }

    /// Record an in-place recovery (retry, dedup, late delivery) at
    /// `site` on this rank.
    pub fn recovered(&self, site: FaultKind) {
        self.state.counters.lock()[self.rank].record_recovered(site);
    }

    /// Snapshot of this rank's accumulated counters (all attempts).
    pub fn counters(&self) -> FaultCounters {
        self.state.counters_for(self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_explicit_events() {
        let p = FaultPlan::parse("panic@2:1, ckpt-crc@1:0", 7, 4, 2).unwrap();
        assert_eq!(
            p.events,
            vec![
                FaultEvent {
                    site: FaultKind::RankPanic,
                    step: 2,
                    rank: 1
                },
                FaultEvent {
                    site: FaultKind::CkptCrc,
                    step: 1,
                    rank: 0
                },
            ]
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("panic", 0, 4, 2).is_err());
        assert!(FaultPlan::parse("warp-drive@1:0", 0, 4, 2).is_err());
        assert!(FaultPlan::parse("panic@x:0", 0, 4, 2).is_err());
        assert!(FaultPlan::parse("panic@1", 0, 4, 2).is_err());
        assert!(FaultPlan::parse("", 0, 4, 2).unwrap().is_empty());
    }

    #[test]
    fn auto_expansion_is_seed_deterministic_and_in_bounds() {
        let a = FaultPlan::parse("auto@16", 42, 4, 2).unwrap();
        let b = FaultPlan::parse("auto@16", 42, 4, 2).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 16);
        assert!(a.events.iter().all(|e| e.step < 4 && e.rank < 2));
        let c = FaultPlan::parse("auto@16", 43, 4, 2).unwrap();
        assert_ne!(a, c, "different seeds must give different plans");
    }

    #[test]
    fn events_fire_exactly_once_at_their_site_step_rank() {
        let plan = FaultPlan::parse("comm-dup@1:0", 0, 4, 2).unwrap();
        let state = Arc::new(FaultState::new(plan, 2));
        let p0 = FaultProbe::new(Arc::clone(&state), 0);
        let p1 = FaultProbe::new(Arc::clone(&state), 1);
        assert!(!p0.fire(FaultKind::CommDup), "step 0: not armed yet");
        p0.set_step(1);
        p1.set_step(1);
        assert!(!p1.fire(FaultKind::CommDup), "wrong rank");
        assert!(!p0.fire(FaultKind::CommDelay), "wrong site");
        assert!(p0.fire(FaultKind::CommDup), "armed event fires");
        assert!(!p0.fire(FaultKind::CommDup), "consumed: never re-fires");
        assert_eq!(p0.counters().injected(FaultKind::CommDup), 1);
        assert_eq!(p1.counters().total_injected(), 0);
    }

    #[test]
    fn clones_share_the_logical_step() {
        let plan = FaultPlan::parse("nvme-err@3:0", 0, 4, 1).unwrap();
        let state = Arc::new(FaultState::new(plan, 1));
        let probe = FaultProbe::new(state, 0);
        let clone = probe.clone();
        probe.set_step(3);
        assert!(clone.fire(FaultKind::NvmeErr), "clone sees the step");
    }

    #[test]
    fn consumed_flags_survive_across_attempts() {
        // The supervisor reuses the same FaultState for the retry attempt;
        // a new probe over it must not re-fire the consumed event.
        let plan = FaultPlan::parse("panic@1:0", 0, 4, 1).unwrap();
        let state = Arc::new(FaultState::new(plan, 1));
        let attempt1 = FaultProbe::new(Arc::clone(&state), 0);
        attempt1.set_step(1);
        assert!(attempt1.fire(FaultKind::RankPanic));
        state.record_rollback();
        let attempt2 = FaultProbe::new(Arc::clone(&state), 0);
        attempt2.set_step(1);
        assert!(!attempt2.fire(FaultKind::RankPanic), "replay must converge");
        assert_eq!(state.rollbacks(), 1);
        assert_eq!(state.counters_for(0).injected(FaultKind::RankPanic), 1);
    }
}
