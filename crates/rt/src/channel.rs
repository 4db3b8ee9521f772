//! Unbounded mpmc channel with crossbeam-shaped semantics.
//!
//! * `send` fails (returning the value) once every `Receiver` is gone;
//! * `recv` blocks while the queue is empty and senders remain, drains
//!   remaining messages after the last `Sender` drops, then returns
//!   [`RecvError`] — it can never hang on a disconnected channel, which
//!   is what keeps `Communicator` teardown deterministic;
//! * both endpoints are `Clone`; FIFO order is preserved per channel.
//!
//! When a sanitizer session is armed, each message carries a vector-
//! clock stamp captured at `send`; every dequeue joins the stamp into
//! the receiving thread's clock, making message passing a happens-before
//! edge for the race detector. Unarmed, the stamp slot is `None` and the
//! hooks cost one thread-local check.
//!
//! # Cooperative scheduling
//!
//! When the calling thread hosts a [`crate::sched`] task, blocking
//! receives park the *task* (releasing its run lane for another rank)
//! instead of blocking the thread on the condvar; senders wake the
//! registered waiters. Plain threads — the iosim bleeder, test threads —
//! keep the condvar path. See the park/wake
//! protocol notes in [`crate::sched`].

use crate::sched::{self, ParkOutcome, Waiter};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

struct State<T> {
    queue: VecDeque<(T, Option<hacc_san::Stamp>)>,
    senders: usize,
    receivers: usize,
    /// Parked cooperative receivers awaiting a message or disconnect.
    waiters: Vec<Waiter>,
    /// Plain threads currently blocked in a condvar wait. Senders skip
    /// the condvar notify when this is zero: an uncontended notify is
    /// still a futex syscall, and the all-to-all exchange issues O(n2)
    /// sends whose receivers are almost never waiting yet — at 4096
    /// ranks the blind notifies were the dominant cost of the world.
    sleepers: usize,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Inner<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Error returned by [`Sender::send`] when every receiver is gone;
/// carries the unsent value back to the caller.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::recv`] once the channel is empty and
/// every sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty, disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Queue empty but senders remain.
    Empty,
    /// Queue empty and every sender is gone.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("channel empty"),
            TryRecvError::Disconnected => f.write_str("channel disconnected"),
        }
    }
}

impl std::error::Error for TryRecvError {}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with the queue still empty.
    Timeout,
    /// Queue empty and every sender is gone.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("channel recv timed out"),
            RecvTimeoutError::Disconnected => f.write_str("channel disconnected"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// The sending half.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

/// Create an unbounded mpmc channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            waiters: Vec::new(),
            sleepers: 0,
        }),
        ready: Condvar::new(),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Enqueue `value`; fails iff every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.inner.lock();
        if st.receivers == 0 {
            return Err(SendError(value));
        }
        st.queue.push_back((value, hacc_san::send_stamp()));
        let waiters = std::mem::take(&mut st.waiters);
        let sleeping = st.sleepers > 0;
        drop(st);
        if sleeping {
            self.inner.ready.notify_one();
        }
        // Waking outside the channel lock keeps lock order flat (the
        // scheduler lock is never taken under the channel lock here).
        for w in &waiters {
            w.wake();
        }
        Ok(())
    }

    /// Whether the queue currently holds no messages.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().queue.is_empty()
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.lock().senders += 1;
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.inner.lock();
        st.senders -= 1;
        let last = st.senders == 0;
        let waiters = if last {
            std::mem::take(&mut st.waiters)
        } else {
            Vec::new()
        };
        let sleeping = st.sleepers > 0;
        drop(st);
        if last {
            // Wake every blocked receiver so it can observe disconnect.
            if sleeping {
                self.inner.ready.notify_all();
            }
            for w in &waiters {
                w.wake();
            }
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeue the oldest message, blocking while the channel is empty
    /// and senders remain. Returns [`RecvError`] (never hangs) once the
    /// channel is empty and disconnected.
    ///
    /// On a cooperative scheduler task this parks the task; if the park
    /// proves the whole world quiescent (nothing can ever satisfy the
    /// receive), it panics with a deterministic deadlock diagnosis
    /// instead of hanging — communicator teardown turns that into an
    /// orderly world abort.
    pub fn recv(&self) -> Result<T, RecvError> {
        let coop = sched::current();
        let mut st = self.inner.lock();
        loop {
            if let Some((v, stamp)) = st.queue.pop_front() {
                drop(st);
                hacc_san::recv_join(stamp.as_deref());
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            match &coop {
                Some(task) => {
                    st.waiters.push(task.prepare_park());
                    drop(st);
                    match task.park() {
                        ParkOutcome::Woken => st = self.inner.lock(),
                        // e1: allow: deterministic deadlock report for the cooperative backend — failing loud is the point
                        ParkOutcome::Quiescent => panic!(
                            "cooperative world quiescent: recv() can never \
                             be satisfied (every live task is parked) — \
                             deadlock"
                        ),
                    }
                }
                None => {
                    st.sleepers += 1;
                    st = self
                        .inner
                        .ready
                        .wait(st)
                        .unwrap_or_else(|e| e.into_inner());
                    st.sleepers -= 1;
                }
            }
        }
    }

    /// Like [`recv`](Self::recv) but can give up with the queue still
    /// empty, returning [`RecvTimeoutError::Timeout`].
    ///
    /// On a plain thread, only a genuine `Condvar` timeout counts as a
    /// `Timeout`; spurious wakeups re-enter the wait with the full
    /// budget, so callers polling a deadlock detector see one tick per
    /// elapsed timeout, not per wakeup.
    ///
    /// On a cooperative scheduler task the `timeout` duration is *not*
    /// a wall-clock bound: the task parks until a message or disconnect
    /// arrives, and `Timeout` is returned only when the scheduler
    /// proves the world globally quiescent — every live task parked,
    /// none runnable. That is the logical-progress analog of "the
    /// timeout elapsed with nothing left to do": it can never
    /// false-positive against a peer that is runnable but descheduled,
    /// because a runnable peer by definition defeats quiescence. Each
    /// such `Timeout` is therefore a *proof* of global stall, which is
    /// exactly the contract the W1 wait-for-graph ticker wants.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let coop = sched::current();
        let mut st = self.inner.lock();
        loop {
            if let Some((v, stamp)) = st.queue.pop_front() {
                drop(st);
                hacc_san::recv_join(stamp.as_deref());
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            match &coop {
                Some(task) => {
                    st.waiters.push(task.prepare_park());
                    drop(st);
                    match task.park() {
                        ParkOutcome::Woken => st = self.inner.lock(),
                        ParkOutcome::Quiescent => {
                            return Err(RecvTimeoutError::Timeout)
                        }
                    }
                }
                None => {
                    // A spurious wakeup re-enters the wait with the
                    // full budget (no wall-clock reads here — D1 keeps
                    // `Instant` out of the runtime), so the worst case
                    // waits longer, never shorter.
                    st.sleepers += 1;
                    let (guard, wait) = self
                        .inner
                        .ready
                        .wait_timeout(st, timeout)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                    st.sleepers -= 1;
                    if wait.timed_out() && st.queue.is_empty() && st.senders > 0 {
                        return Err(RecvTimeoutError::Timeout);
                    }
                }
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.inner.lock();
        if let Some((v, stamp)) = st.queue.pop_front() {
            drop(st);
            hacc_san::recv_join(stamp.as_deref());
            return Ok(v);
        }
        if st.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Whether the queue currently holds no messages.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().queue.is_empty()
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.inner.lock().receivers += 1;
        Receiver {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.lock().receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn recv_after_all_senders_drop_drains_then_errors() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
        // And it keeps erroring rather than hanging.
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn blocked_recv_wakes_on_disconnect() {
        // A receiver already parked inside recv() must observe the last
        // sender dropping and return an error instead of hanging.
        let (tx, rx) = unbounded::<u32>();
        let waiter = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(50));
        drop(tx);
        assert_eq!(waiter.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn send_fails_when_receiver_gone() {
        let (tx, rx) = unbounded();
        drop(rx);
        let err = tx.send(7).unwrap_err();
        assert_eq!(err.0, 7);
    }

    #[test]
    fn cloned_senders_keep_channel_alive() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(5).unwrap();
        assert_eq!(rx.recv(), Ok(5));
        drop(tx2);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn try_recv_distinguishes_empty_and_disconnected() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn mpmc_delivers_every_message_exactly_once() {
        let (tx, rx) = unbounded::<u64>();
        let producers = 4;
        let per = 2500u64;
        std::thread::scope(|s| {
            for p in 0..producers {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..per {
                        tx.send(p * per + i).unwrap();
                    }
                });
            }
            drop(tx);
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let rx = rx.clone();
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(v) = rx.recv() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            let mut all: Vec<u64> = consumers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..producers * per).collect::<Vec<_>>());
        });
    }

    #[test]
    fn len_and_is_empty_track_queue() {
        let (tx, rx) = unbounded();
        assert!(tx.is_empty() && rx.is_empty());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.len(), 2);
        let _ = rx.recv();
        assert_eq!(tx.len(), 1);
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn coop_tasks_ping_pong_on_one_lane() {
        // Two scheduler tasks bounce a counter over a pair of channels
        // on a SINGLE lane: progress is only possible if an empty recv
        // parks the task (releasing the lane) and a send wakes it.
        let sched = crate::sched::Scheduler::new(1);
        let (ab_tx, ab_rx) = unbounded::<u32>();
        let (ba_tx, ba_rx) = unbounded::<u32>();
        let ha = sched.register();
        let hb = sched.register();
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                ha.run(|| {
                    let mut v = 0;
                    for _ in 0..50 {
                        ab_tx.send(v).unwrap();
                        v = ba_rx.recv().unwrap();
                    }
                    v
                })
            });
            let b = s.spawn(|| {
                hb.run(|| {
                    for _ in 0..50 {
                        let v = ab_rx.recv().unwrap();
                        ba_tx.send(v + 1).unwrap();
                    }
                })
            });
            assert_eq!(a.join().unwrap(), 50);
            b.join().unwrap();
        });
    }

    #[test]
    fn coop_recv_timeout_is_quiescence_not_wall_clock() {
        // A lone task whose recv_timeout can never be satisfied gets a
        // Timeout from the quiescence proof, not from the clock — and a
        // satisfiable one never times out no matter how small the
        // duration, because a runnable peer defeats quiescence.
        let sched = crate::sched::Scheduler::new(1);
        let (tx, rx) = unbounded::<u8>();
        let h = sched.register();
        let out = std::thread::scope(|s| {
            s.spawn(|| h.run(|| rx.recv_timeout(Duration::from_secs(3600))))
                .join()
                .unwrap()
        });
        assert_eq!(out, Err(RecvTimeoutError::Timeout));
        drop(tx);
    }

    #[test]
    fn per_producer_order_preserved() {
        // FIFO must hold per sender even under interleaving.
        let (tx, rx) = unbounded::<(usize, u64)>();
        std::thread::scope(|s| {
            for p in 0..3 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        tx.send((p, i)).unwrap();
                    }
                });
            }
            drop(tx);
            let mut last = [0u64; 3];
            let mut counts = [0u64; 3];
            while let Ok((p, i)) = rx.recv() {
                assert!(counts[p] == 0 || i > last[p], "producer {p} reordered");
                last[p] = i;
                counts[p] += 1;
            }
            assert_eq!(counts, [1000; 3]);
        });
    }
}
