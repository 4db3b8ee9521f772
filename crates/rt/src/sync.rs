//! `Mutex` with parking_lot's no-poisoning API shape.
//!
//! A thin wrapper over `std::sync::Mutex`: `lock()` returns the guard
//! directly instead of a `Result`. A panic while holding the lock does
//! not poison it — the next locker recovers the inner state, which
//! matches how the I/O and fault layers used parking_lot.

use std::sync::PoisonError;

pub use std::sync::MutexGuard;

/// A mutual-exclusion lock whose `lock` never returns a `Result`.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap `value`.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
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
}
