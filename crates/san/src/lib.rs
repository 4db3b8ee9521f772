//! `hacc-san` — the SPMD sanitizer for the rank runtime.
//!
//! A HACC rank is an MPI process that shares no memory with its peers;
//! here a rank is a scheduler task on its own thread, and every crate is
//! `#![forbid(unsafe_code)]`, so `Send`/`Sync` already rule out
//! unsynchronised shared access at compile time. What is left to check
//! at run time are the SPMD hazards, and because all ranks live in one
//! process the checks that are heuristic at MPI scale (MUST-style
//! collective matching) are **exact** here.
//!
//! The instrumentation contract is *zero-cost when off*: every hook
//! first checks a thread-local session handle and returns immediately
//! when the current thread is not bound to a [`SanSession`].
//!
//! Surface:
//!
//! * [`SanSession`] — one world's checker state (region ledger,
//!   collective ledger, wait graph); created by `World::run_sanitized`.
//! * [`register_thread`] / [`ThreadToken`] — bind a session and a rank
//!   to the rank's thread.
//! * [`region`] / [`annotate_read`] / [`annotate_write`] — the region
//!   annotation API; the driver marks each rank's ghost buffer.
//! * [`SanReport`] — byte-stable findings report in the finding format
//!   `hacc-telem` defines and `hacc-lint` shares (`file:line: [RULE]
//!   msg`), with `san.allow` suppression via the same [`AllowList`]
//!   grammar.
//!
//! Findings use rules R1 (a region one rank wrote and another touched),
//! Q1 (collective divergence), W1 (deadlock/stall), M1 (p2p payload
//! mismatch) from the shared catalog. W1 reads no clock: the one rank
//! host parks a blocked rank on the scheduler, whose quiescence proof
//! triggers the single wait-graph walk ([`SanSession::report_deadlock`]).

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

pub mod report;
pub mod session;

pub use hacc_telem::diag::render_json;
pub use hacc_telem::{find_workspace_root, AllowList, Diagnostic, Rule};
pub use report::SanReport;
pub use session::SanSession;

/// Typed panic payload for sanitizer-initiated aborts (deadlock or
/// payload mismatch). `World` teardown uses the type to distinguish a
/// sanitizer abort — which becomes a reported finding — from a genuine
/// user panic, which keeps unwinding.
#[derive(Debug)]
pub struct SanAbort(pub String);

struct ThreadCtx {
    session: Arc<SanSession>,
    rank: usize,
}

thread_local! {
    static TLS: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// Whether the current thread is bound to a session (i.e. the sanitizer
/// is live on this thread).
#[inline]
pub fn armed() -> bool {
    TLS.with(|c| c.borrow().is_some())
}

/// Binding receipt for one thread. Must be [`finish`]ed on the same
/// thread before it exits.
///
/// [`finish`]: ThreadToken::finish
#[must_use]
pub struct ThreadToken(());

/// Bind the current thread to `session` as `rank`. Panics if the thread
/// is already bound.
pub fn register_thread(session: &Arc<SanSession>, rank: usize) -> ThreadToken {
    TLS.with(|c| {
        let mut c = c.borrow_mut();
        assert!(c.is_none(), "thread already registered with a SanSession");
        *c = Some(ThreadCtx {
            session: Arc::clone(session),
            rank,
        });
    });
    ThreadToken(())
}

impl ThreadToken {
    /// Unbind the thread.
    pub fn finish(self) {
        TLS.with(|c| c.borrow_mut().take())
            .expect("ThreadToken finished on an unregistered thread");
    }
}

// -------------------------------------------------------- annotation --

/// An annotated region: the unit R1 checks for rank privacy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionId {
    id: u64,
    name: &'static str,
}

/// Register a region under a diagnostic name. Each call returns a
/// distinct region — accesses that should be checked against each other
/// must share one `RegionId`.
pub fn region(name: &'static str) -> RegionId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    RegionId {
        id: NEXT.fetch_add(1, Ordering::Relaxed),
        name,
    }
}

#[track_caller]
fn annotate(region: RegionId, write: bool) {
    let loc = Location::caller();
    TLS.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            ctx.session.access(region, write, ctx.rank, loc);
        }
    });
}

/// Record that this thread's rank read `region`; the call site becomes
/// the diagnostic location. No-op when the sanitizer is off.
#[track_caller]
#[inline]
pub fn annotate_read(region: RegionId) {
    annotate(region, false);
}

/// [`annotate_read`] for a write.
#[track_caller]
#[inline]
pub fn annotate_write(region: RegionId) {
    annotate(region, true);
}

// ------------------------------------------------------- environment --

/// Whether `HACC_SAN` requests sanitizing every `World::run` (the
/// tier-4 full-suite gate). Read once per process.
pub fn env_armed() -> bool {
    static ARMED: OnceLock<bool> = OnceLock::new();
    *ARMED.get_or_init(|| {
        std::env::var("HACC_SAN")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false)
    })
}

/// The suppression list named by `HACC_SAN_ALLOW`, or an empty list.
/// A malformed file is a hard error (suppressions without justification
/// must not silently vanish).
pub fn env_allowlist() -> AllowList {
    match std::env::var("HACC_SAN_ALLOW") {
        Ok(path) if !path.is_empty() => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("HACC_SAN_ALLOW: read {path}: {e}"));
            AllowList::parse(&text, &path).unwrap_or_else(|e| panic!("HACC_SAN_ALLOW: {e}"))
        }
        _ => AllowList::empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn hooks_are_noops_when_unregistered() {
        assert!(!armed());
        let r = region("noop");
        annotate_write(r);
        annotate_read(r);
    }

    #[test]
    fn registration_arms_and_finish_disarms() {
        let s = SanSession::new(1);
        let tok = register_thread(&s, 0);
        assert!(armed());
        annotate_write(region("armed"));
        tok.finish();
        assert!(!armed());
        assert_eq!(s.finish().accesses, 1);
    }

    #[test]
    fn regions_are_distinct_and_named() {
        let a = region("table");
        let b = region("table");
        assert_ne!(a, b);
        assert_eq!((a.name, b.name), ("table", "table"));
    }

    /// Run `body(rank)` on one thread per rank, each bound to `s`.
    fn on_ranks(s: &Arc<SanSession>, body: impl Fn(usize) + Sync) {
        std::thread::scope(|scope| {
            for rank in 0..s.ranks() {
                let body = &body;
                scope.spawn(move || {
                    let tok = register_thread(s, rank);
                    body(rank);
                    tok.finish();
                });
            }
        });
    }

    #[test]
    fn lock_ordered_writes_by_two_ranks_are_r1() {
        // A lock orders the two sections, but a rank-private region is
        // still written by one rank and touched by another.
        let s = SanSession::new(2);
        let reg = region("guarded");
        let lock = Mutex::new(());
        on_ranks(&s, |_| {
            let _g = lock.lock().unwrap();
            annotate_write(reg);
        });
        let r = s.finish();
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, Rule::R1);
        assert!(r.findings[0].message.contains("ranks 0, 1"), "{}", r.findings[0].message);
    }

    #[test]
    fn message_ordered_writes_by_two_ranks_are_r1() {
        // Rank 1 writes only after rank 0's message arrives.
        let s = SanSession::new(2);
        let reg = region("handed-over");
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        on_ranks(&s, |rank| {
            if rank == 0 {
                annotate_write(reg);
                tx.send(()).unwrap();
            } else {
                rx.lock().unwrap().recv().unwrap();
                annotate_write(reg);
            }
        });
        let r = s.finish();
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, Rule::R1);
    }
}
