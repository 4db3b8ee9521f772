//! `hacc-san` — happens-before race detection and SPMD collective
//! sanitizing for the rank runtime.
//!
//! Because the repo's "ranks" are scheduler tasks of one process, each
//! on its own thread, the dynamic checks that are heuristic at MPI scale
//! (MUST-style collective matching, ThreadSanitizer-style race
//! detection) are **exact** here:
//! every synchronization edge passes through `hacc_rt::sync` locks or a
//! `hacc-ranks` matched receive, and this crate is the clock algebra
//! they call into.
//!
//! The instrumentation contract is *zero-cost when off*: every hook
//! first checks a thread-local session handle and returns immediately
//! when the current thread is not registered with a [`SanSession`].
//! Unsanitized worlds allocate no clocks, take no extra locks, and
//! leave golden telemetry byte-identical.
//!
//! Surface:
//!
//! * [`SanSession`] — one world's checker state (race table, collective
//!   ledger, wait graph); created by `World::run_sanitized`.
//! * [`register_thread`] / [`ThreadToken`] — rank-thread registration.
//! * [`LockClock`], [`send_stamp`]/[`recv_join`] — the happens-before
//!   edges, called from `hacc_rt::sync` and the `hacc-ranks` transport.
//! * [`region`] / [`annotate_read`] / [`annotate_write`] — the
//!   shared-state annotation API for ranks::comm, the driver's ghost
//!   buffers, and gpusim's tables.
//! * [`SanReport`] — byte-stable findings report in the finding format
//!   `hacc-telem` defines and `hacc-lint` shares (`file:line: [RULE]
//!   msg`), with `san.allow` suppression via the same [`AllowList`]
//!   grammar.
//!
//! Findings use rules R1 (race), Q1 (collective divergence), W1
//! (deadlock/stall), M1 (p2p payload mismatch) from the shared catalog.
//! W1 reads no clock: the one rank host parks a blocked rank on the
//! scheduler, whose quiescence proof triggers the single wait-graph walk
//! ([`SanSession::report_deadlock`]).

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::panic::Location;
use std::sync::{Arc, Mutex, OnceLock};

pub mod clock;
pub mod registry;
pub mod report;
pub mod session;

pub use clock::VectorClock;
pub use hacc_telem::diag::render_json;
pub use hacc_telem::{find_workspace_root, AllowList, Diagnostic, Rule};
pub use registry::{region, RegionId};
pub use report::SanReport;
pub use session::{Access, SanSession};

/// Typed panic payload for sanitizer-initiated aborts (deadlock or
/// payload mismatch). `World` teardown uses the type to distinguish a
/// sanitizer abort — which becomes a reported finding — from a genuine
/// user panic, which keeps unwinding.
#[derive(Debug)]
pub struct SanAbort(pub String);

struct ThreadCtx {
    session: Arc<SanSession>,
    slot: usize,
    clock: VectorClock,
}

thread_local! {
    static TLS: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

#[inline]
fn with_ctx<R>(f: impl FnOnce(&mut ThreadCtx) -> R) -> Option<R> {
    TLS.with(|c| c.borrow_mut().as_mut().map(f))
}

/// Whether the current thread is registered with a session (i.e. the
/// sanitizer is live on this thread).
#[inline]
pub fn armed() -> bool {
    TLS.with(|c| c.borrow().is_some())
}

/// Registration receipt for one thread. Must be [`finish`]ed on the
/// same thread before it exits so the slot is recycled correctly.
///
/// [`finish`]: ThreadToken::finish
#[must_use]
pub struct ThreadToken {
    slot: usize,
}

/// Register the current thread with `session`, claiming a clock slot.
/// Panics if the thread is already registered.
pub fn register_thread(session: &Arc<SanSession>) -> ThreadToken {
    let (slot, start) = registry::alloc_slot();
    let mut clock = VectorClock::new();
    clock.set(slot, start);
    TLS.with(|c| {
        let mut c = c.borrow_mut();
        assert!(c.is_none(), "thread already registered with a SanSession");
        *c = Some(ThreadCtx {
            session: Arc::clone(session),
            slot,
            clock,
        });
    });
    ThreadToken { slot }
}

impl ThreadToken {
    /// Deregister, returning the thread's final clock.
    pub fn finish(self) -> VectorClock {
        let ctx = TLS
            .with(|c| c.borrow_mut().take())
            .expect("ThreadToken finished on an unregistered thread");
        assert_eq!(ctx.slot, self.slot, "ThreadToken crossed threads");
        registry::release_slot(ctx.slot, ctx.clock.get(ctx.slot));
        ctx.clock
    }
}

// ------------------------------------------------------------- locks --

/// Per-lock vector clock, embedded in `hacc_rt::sync::Mutex`.
///
/// `const`-constructible and lazy: the inner clock allocates on first
/// armed acquire, so unsanitized programs pay only a `OnceLock` check
/// that never initializes. Read guards use the same acquire/release
/// pair as writers — that over-synchronizes concurrent readers (fewer
/// reported orderings missed, never a false race), the right default
/// for a gate.
#[derive(Default)]
pub struct LockClock {
    cell: OnceLock<Mutex<VectorClock>>,
}

impl LockClock {
    /// An empty clock cell (usable in `const fn` constructors).
    pub const fn new() -> Self {
        Self {
            cell: OnceLock::new(),
        }
    }

    fn inner(&self) -> &Mutex<VectorClock> {
        self.cell.get_or_init(|| Mutex::new(VectorClock::new()))
    }

    /// Hook after the guarded lock is acquired: the acquiring thread
    /// observes everything released under this lock.
    #[inline]
    pub fn acquire(&self) {
        with_ctx(|ctx| {
            let c = self.inner().lock().unwrap_or_else(|e| e.into_inner());
            ctx.clock.join(&c);
        });
    }

    /// Hook before the guarded lock is released: publish this thread's
    /// history to the next acquirer and advance the local epoch.
    #[inline]
    pub fn release(&self) {
        with_ctx(|ctx| {
            let mut c = self.inner().lock().unwrap_or_else(|e| e.into_inner());
            c.join(&ctx.clock);
            drop(c);
            ctx.clock.tick(ctx.slot);
        });
    }
}

impl std::fmt::Debug for LockClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LockClock")
    }
}

// ---------------------------------------------------------- messages --

/// Clock stamp attached to an in-flight message.
pub type Stamp = Box<VectorClock>;

/// Sender-side hook: snapshot the sender's clock onto the message and
/// advance the sender's epoch. `None` when the sanitizer is off.
#[inline]
pub fn send_stamp() -> Option<Stamp> {
    with_ctx(|ctx| {
        let snap = Box::new(ctx.clock.clone());
        ctx.clock.tick(ctx.slot);
        snap
    })
}

/// Receiver-side hook: the receive happens-after the stamped send.
#[inline]
pub fn recv_join(stamp: Option<&VectorClock>) {
    if let Some(s) = stamp {
        with_ctx(|ctx| ctx.clock.join(s));
    }
}

// -------------------------------------------------------- annotation --

/// Record a read of a registered shared region and check it against the
/// region's access history under the happens-before relation. The call
/// site becomes the diagnostic location. No-op when the sanitizer is off.
#[track_caller]
#[inline]
pub fn annotate_read(region: RegionId) {
    let loc = Location::caller();
    with_ctx(|ctx| {
        ctx.session
            .access(region, Access::Read, ctx.slot, &ctx.clock, loc)
    });
}

/// [`annotate_read`] for a write.
#[track_caller]
#[inline]
pub fn annotate_write(region: RegionId) {
    let loc = Location::caller();
    with_ctx(|ctx| {
        ctx.session
            .access(region, Access::Write, ctx.slot, &ctx.clock, loc)
    });
}

/// A lazily registered region for embedding in `Clone` containers.
/// Cloning yields a *fresh* region: a cloned table is a distinct object
/// whose accesses must not be checked against the original's.
pub struct LazyRegion {
    name: &'static str,
    cell: OnceLock<RegionId>,
}

impl LazyRegion {
    /// A not-yet-registered region named `name`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The region id, registering on first use.
    pub fn id(&self) -> RegionId {
        *self.cell.get_or_init(|| region(self.name))
    }
}

impl Clone for LazyRegion {
    fn clone(&self) -> Self {
        Self::new(self.name)
    }
}

impl std::fmt::Debug for LazyRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LazyRegion({})", self.name)
    }
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

    #[test]
    fn hooks_are_noops_when_unregistered() {
        assert!(!armed());
        assert!(send_stamp().is_none());
        recv_join(None);
        let lc = LockClock::new();
        lc.acquire();
        lc.release();
        let r = region("noop");
        annotate_write(r);
        annotate_read(r);
    }

    #[test]
    fn registration_arms_and_finish_disarms() {
        let s = SanSession::new(1);
        let tok = register_thread(&s);
        assert!(armed());
        assert!(send_stamp().is_some());
        let clock = tok.finish();
        assert!(!armed());
        // The thread ticked once for the send stamp; its component is
        // visible in the returned clock.
        assert!(clock != VectorClock::new());
    }

    #[test]
    fn channel_stamp_orders_sender_before_receiver() {
        let s = SanSession::new(2);
        let reg = region("stamped");
        let t0 = register_thread(&s);
        annotate_write(reg);
        let stamp = send_stamp();
        let c0 = t0.finish();
        drop(c0);

        // A second (simulated) thread receives and then writes: ordered.
        let t1 = register_thread(&s);
        recv_join(stamp.as_deref());
        annotate_write(reg);
        t1.finish();
        assert!(s.finish().findings.is_empty());
    }

    #[test]
    fn unstamped_threads_race_on_shared_region() {
        let s = SanSession::new(2);
        let reg = region("racy");
        // Hold both threads alive across registration: a thread that
        // exits before the other starts would release its slot, and the
        // slot-reuse epoch rule (correctly) treats the successor as
        // ordered after it.
        let rendezvous = Arc::new(std::sync::Barrier::new(2));
        let out = std::thread::scope(|scope| {
            let h: Vec<_> = (0..2)
                .map(|_| {
                    let s = Arc::clone(&s);
                    let rendezvous = Arc::clone(&rendezvous);
                    scope.spawn(move || {
                        let tok = register_thread(&s);
                        rendezvous.wait();
                        annotate_write(reg);
                        tok.finish();
                    })
                })
                .collect();
            for h in h {
                h.join().unwrap();
            }
            s.finish()
        });
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, Rule::R1);
    }

    #[test]
    fn lock_clock_orders_critical_sections() {
        let s = SanSession::new(2);
        let reg = region("guarded");
        let lc = Arc::new(LockClock::new());
        let guard = Arc::new(Mutex::new(()));
        std::thread::scope(|scope| {
            let hs: Vec<_> = (0..2)
                .map(|_| {
                    let s = Arc::clone(&s);
                    let lc = Arc::clone(&lc);
                    let guard = Arc::clone(&guard);
                    scope.spawn(move || {
                        let tok = register_thread(&s);
                        // A real lock serializes the sections; the clock
                        // hook records the ordering it creates.
                        let g = guard.lock().unwrap();
                        lc.acquire();
                        annotate_write(reg);
                        lc.release();
                        drop(g);
                        tok.finish();
                    })
                })
                .collect();
            for h in hs {
                h.join().unwrap();
            }
        });
        assert!(
            s.finish().findings.is_empty(),
            "lock-ordered writes must not race"
        );
    }
}
