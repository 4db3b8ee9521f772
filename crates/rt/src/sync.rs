//! `Mutex` with parking_lot's no-poisoning API shape.
//!
//! A thin wrapper over `std::sync::Mutex`: `lock()` returns the guard
//! directly instead of a `Result`. A panic while holding the lock does
//! not poison it — the next locker recovers the inner state, which
//! matches how the I/O and fault layers used parking_lot.
//!
//! Sanitizer instrumentation: every lock embeds a `hacc_san::LockClock`
//! and the guards drive its acquire/release hooks, so critical sections
//! become happens-before edges for the race detector. When no sanitizer
//! session is armed on the current thread the hooks return after one
//! thread-local check and the clock cell never allocates — the
//! zero-cost-when-off contract.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

use hacc_san::LockClock;

/// A mutual-exclusion lock whose `lock` never returns a `Result`.
pub struct Mutex<T: ?Sized> {
    clock: LockClock,
    inner: std::sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`]; releases the sanitizer clock edge
/// on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
    clock: &'a LockClock,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.clock.release();
    }
}

impl<T> Mutex<T> {
    /// Wrap `value`.
    pub const fn new(value: T) -> Self {
        Self {
            clock: LockClock::new(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        self.clock.acquire();
        MutexGuard {
            inner: g,
            clock: &self.clock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_guards_counter() {
        let m = Arc::new(Mutex::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn mutex_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(5i32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder dies");
        })
        .join();
        // No poisoning: the value is still reachable.
        assert_eq!(*m.lock(), 5);
    }

    #[test]
    fn sanitized_lock_sections_are_ordered() {
        // With a session armed, lock()/drop drive the clock hooks:
        // mutations of a shared region under the lock must not be
        // reported as races.
        let session = hacc_san::SanSession::new(2);
        let reg = hacc_san::region("sync-fixture");
        let m = Arc::new(Mutex::new(0u32));
        let rendezvous = Arc::new(std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let session = Arc::clone(&session);
                let m = Arc::clone(&m);
                let rendezvous = Arc::clone(&rendezvous);
                s.spawn(move || {
                    let tok = hacc_san::register_thread(&session);
                    rendezvous.wait();
                    for _ in 0..50 {
                        let mut g = m.lock();
                        hacc_san::annotate_write(reg);
                        *g += 1;
                        drop(g);
                    }
                    tok.finish();
                });
            }
        });
        let report = session.finish();
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(*m.lock(), 100);
    }
}
