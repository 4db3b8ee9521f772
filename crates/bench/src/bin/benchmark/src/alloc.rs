//! A counting global allocator for the layer census.
//!
//! Every request is forwarded to [`System`] unchanged. While the process
//! -wide [`arm`] flag is set, each allocating call also bumps two
//! thread-local counters (calls, bytes requested). The census runs one
//! rank per OS thread, so a rank reads an exact count for a layer call by
//! differencing [`thread_counts`] around it — no barrier, and no other
//! rank's traffic mixed in. End-to-end (`--trace 0`) runs never arm it;
//! `trace.overhead_frac` is the measured cost of arming it for a whole
//! repetition.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// The allocator type installed as `#[global_allocator]` in `main.rs`.
pub struct Counting;

/// Relaxed is enough: the flag publishes no data, it only selects
/// whether a statistic is kept.
static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised `Cell`s of `Copy` data: no lazy initialisation and
    // no destructor, so touching them inside the allocator can neither
    // allocate nor observe a torn-down slot.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + bytes as u64));
    }
}

// SAFETY: every method hands its arguments to `System` untouched and returns
// `System`'s result, so `System`'s guarantees carry over; the counting touches
// an atomic and thread-local `Cell`s only, never allocator state or the memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Start counting on every thread.
pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Stop counting.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
}

/// This thread's running totals `(allocating calls, bytes requested)`.
pub fn thread_counts() -> (u64, u64) {
    (CALLS.with(Cell::get), BYTES.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Arming is process-wide, so this excludes the tests that run a
    /// census; the counters are per thread, so other tests allocating
    /// concurrently cannot disturb the deltas.
    #[test]
    fn counts_only_while_armed() {
        let _guard = crate::tests::HEAVY
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let before = thread_counts();
        drop(std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(thread_counts(), before, "counted while disarmed");

        arm();
        let before = thread_counts();
        drop(std::hint::black_box(vec![0u8; 4096]));
        let after = thread_counts();
        disarm();
        assert_eq!(after.0 - before.0, 1);
        assert_eq!(after.1 - before.1, 4096);
    }
}
