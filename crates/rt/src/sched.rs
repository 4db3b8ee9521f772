//! Cooperative rank scheduler: multiplex many SPMD rank tasks onto a
//! bounded pool of run "lanes".
//!
//! Every rank of a simulated-MPI world in `hacc-ranks` is one task
//! here. The module bounds the *kernel-visible* concurrency: each task
//! owns a thread (its stack holds the rank's continuation — the
//! workspace is `unsafe`-free, so there is no hand-rolled stackful
//! coroutine), but only `lanes` of them may run at once. Every other
//! task is either
//!
//! * **queued** — holding no lane, sitting in the one FIFO run queue
//!   waiting to be granted one, or
//! * **parked** — blocked at a blocking point (a `hacc-ranks` receive
//!   whose mailbox holds no match), holding no lane until a wake arrives.
//!
//! Lanes are plain run permits, not pinned to cores: a freed permit goes
//! to the oldest queued task, and a permit is only ever banked while the
//! queue is empty, so no lane idles while any task is runnable.
//!
//! # Park/wake protocol
//!
//! Blocking primitives use a two-phase handshake so a wake can never be
//! lost between "I saw the queue empty" and "I went to sleep":
//!
//! 1. the task obtains a [`Waiter`] from [`CurrentTask::prepare_park`]
//!    (which takes no lock) and *registers* it with the primitive while
//!    still holding the primitive's lock;
//! 2. it drops the primitive's lock and calls [`CurrentTask::park`];
//! 3. a producer that makes the primitive ready drains the registered
//!    waiters and calls [`Waiter::wake`] on each.
//!
//! A wake that lands between (1) and (2) marks the task `wake_pending`;
//! `park` then returns immediately instead of sleeping. A wake after
//! (2) re-queues the task for a lane. Waking a task that is already
//! runnable (or finished) is a harmless no-op, so primitives may hold
//! stale waiters.
//!
//! # Exact quiescence detection
//!
//! Because every task is either running, queued, parked, or done, the
//! scheduler can decide *exactly* — with no wall-clock heuristics —
//! when the world can make no further progress: a park that leaves
//! zero tasks running and zero tasks queued while live tasks remain is
//! a proven global stall. That task's `park` returns
//! [`ParkOutcome::Quiescent`] (re-granting it the lane it just
//! released) so the blocking primitive can surface a deterministic
//! deadlock instead of hanging. That proof is the whole of the
//! sanitizer's W1 protocol: it walks its wait graph once, on this
//! return, and never reads a clock.
//!
//! # Determinism contract
//!
//! With one lane, scheduling is a pure FIFO over the run queue and
//! every world execution is a deterministic interleaving. With more
//! lanes the interleaving varies, but all `hacc-ranks` communication is
//! `(src, tag)`-matched with per-pair FIFO order, so rank-visible
//! results are scheduling-independent either way; the lane count
//! ([`default_lanes`]) changes throughput, never semantics.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::Thread;

/// Why [`CurrentTask::park`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkOutcome {
    /// A [`Waiter::wake`] arrived; re-check the blocking condition.
    Woken,
    /// Provable global stall: every live task is parked, none queued.
    /// The caller still holds a lane and must turn this into a
    /// deterministic error/panic — sleeping again would hang forever.
    Quiescent,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// In the run queue, waiting to be granted a lane.
    Queued,
    /// Holds a lane; its thread runs (or is about to observe the grant).
    Running,
    /// Blocked with no lane; waiting for a `Waiter::wake`.
    Parked,
    /// Finished (normally or by unwind).
    Done,
}

struct TaskSlot {
    status: Status,
    /// A wake landed while `Running`: absorb it at next park.
    wake_pending: bool,
    /// This parked task was elected to carry a quiescence proof: its
    /// `park` must return [`ParkOutcome::Quiescent`], not `Woken`. Set
    /// only by the finish path (see [`FinishGuard`]).
    quiescent_signal: bool,
    /// Unpark handle; `None` until the task's thread enters `run`.
    thread: Option<Thread>,
}

struct SchedState {
    tasks: Vec<TaskSlot>,
    /// FIFO run queue of task ids waiting for a lane.
    queue: VecDeque<usize>,
    /// Lanes no task holds. Non-zero only while `queue` is empty, so
    /// `free == lanes` means nothing runs and nothing can run.
    free: usize,
    /// Tasks not yet `Done`.
    live: usize,
}

impl SchedState {
    /// Give task `id` a lane and let its thread go.
    fn grant(&mut self, id: usize) {
        let t = &mut self.tasks[id];
        t.status = Status::Running;
        if let Some(th) = &t.thread {
            th.unpark();
        }
    }

    /// Make task `id` runnable: grant it a free lane, else queue it.
    fn enqueue(&mut self, id: usize) {
        if self.free > 0 {
            self.free -= 1;
            self.grant(id);
        } else {
            self.tasks[id].status = Status::Queued;
            self.queue.push_back(id);
        }
    }

    /// A task gave up its lane: hand it to the oldest queued task, or
    /// bank it when none is runnable.
    fn release_lane(&mut self) {
        match self.queue.pop_front() {
            Some(id) => self.grant(id),
            None => self.free += 1,
        }
    }
}

struct SchedInner {
    lanes: usize,
    state: Mutex<SchedState>,
}

impl SchedInner {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        // Poison-proof: scheduler state is updated under short critical
        // sections with no user code, so a poisoned lock only means
        // some other task panicked mid-teardown.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A bounded-lane cooperative executor. Register every task up front
/// (so quiescence accounting sees the whole world), then hand each
/// [`TaskHandle`] to its thread.
pub struct Scheduler {
    inner: Arc<SchedInner>,
}

impl Scheduler {
    /// Executor with `lanes` run permits (clamped to at least one).
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        Scheduler {
            inner: Arc::new(SchedInner {
                lanes,
                state: Mutex::new(SchedState {
                    tasks: Vec::new(),
                    queue: VecDeque::new(),
                    free: lanes,
                    live: 0,
                }),
            }),
        }
    }

    /// Lane count this executor was built with.
    pub fn lanes(&self) -> usize {
        self.inner.lanes
    }

    /// Register one task and make it runnable. Must be called
    /// for *every* task before any of their threads starts running, so
    /// that a fast first task cannot observe a spuriously quiescent
    /// half-registered world.
    pub fn register(&self) -> TaskHandle {
        let mut st = self.inner.lock();
        let id = st.tasks.len();
        st.tasks.push(TaskSlot {
            status: Status::Queued,
            wake_pending: false,
            quiescent_signal: false,
            thread: None,
        });
        st.live += 1;
        st.enqueue(id);
        TaskHandle {
            inner: Arc::clone(&self.inner),
            id,
        }
    }
}

/// One registered task; consumed by [`TaskHandle::run`] on the thread
/// that will host the task.
pub struct TaskHandle {
    inner: Arc<SchedInner>,
    id: usize,
}

impl TaskHandle {
    /// Host `f` as this task: wait for a lane grant, hand `f` the
    /// task's own [`CurrentTask`] (what its blocking points park on),
    /// and release the lane on the way out — including by unwind, so a
    /// panicking rank still frees its lane for the survivors' teardown
    /// collectives.
    pub fn run<R>(self, f: impl FnOnce(CurrentTask) -> R) -> R {
        {
            let mut st = self.inner.lock();
            st.tasks[self.id].thread = Some(std::thread::current());
        }
        // Wait for the initial grant (it may have happened before this
        // thread existed — then the status is already Running).
        loop {
            {
                let st = self.inner.lock();
                if st.tasks[self.id].status == Status::Running {
                    break;
                }
            }
            std::thread::park();
        }
        let current = CurrentTask {
            inner: Arc::clone(&self.inner),
            id: self.id,
        };
        let _guard = FinishGuard {
            inner: self.inner,
            id: self.id,
        };
        f(current)
    }
}

/// Drop guard: mark the task done and re-grant its lane, on both the
/// normal and the unwinding exit path.
struct FinishGuard {
    inner: Arc<SchedInner>,
    id: usize,
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        let mut st = self.inner.lock();
        let t = &mut st.tasks[self.id];
        debug_assert_eq!(t.status, Status::Running);
        t.status = Status::Done;
        st.live -= 1;
        st.release_lane();
        // A finishing task can be the event that strands the survivors:
        // if everything still live is parked and nothing is queued, no
        // park will ever observe the stall (quiescence is otherwise
        // detected by the last *parker*). Elect the lowest-id parked
        // task — deterministic — to carry the proof: hand it the lane
        // and flag its park to return `Quiescent` instead of `Woken`.
        if st.free == self.inner.lanes && st.live > 0 {
            let elect = (0..st.tasks.len())
                .find(|&i| st.tasks[i].status == Status::Parked)
                .expect("live > 0 with none running/queued implies a parked task");
            st.tasks[elect].quiescent_signal = true;
            st.enqueue(elect);
        }
    }
}

/// A running task's handle to itself, handed to its body by
/// [`TaskHandle::run`]: what a blocking point parks.
pub struct CurrentTask {
    inner: Arc<SchedInner>,
    id: usize,
}

impl CurrentTask {
    /// Phase one of parking: the [`Waiter`] to register with the
    /// blocking primitive under its lock. Takes no lock itself, so a
    /// primitive never nests the scheduler lock inside its own. Must be
    /// followed by [`park`](Self::park).
    pub fn prepare_park(&self) -> Waiter {
        Waiter {
            inner: Arc::clone(&self.inner),
            id: self.id,
        }
    }

    /// Phase two: release the lane and sleep until a wake, unless a
    /// wake already landed (then return at once) or this park proves
    /// the world quiescent (then keep the lane and report it).
    pub fn park(&self) -> ParkOutcome {
        let mut st = self.inner.lock();
        let t = &mut st.tasks[self.id];
        debug_assert_eq!(t.status, Status::Running);
        if t.wake_pending {
            t.wake_pending = false;
            t.status = Status::Running;
            return ParkOutcome::Woken;
        }
        t.status = Status::Parked;
        st.release_lane();
        if st.free == self.inner.lanes {
            // Exact global stall: nothing runs and nothing can run (all
            // remaining live tasks are parked, this one included). Take
            // the lane straight back and report instead of sleeping
            // forever.
            st.free -= 1;
            st.tasks[self.id].status = Status::Running;
            return ParkOutcome::Quiescent;
        }
        drop(st);
        loop {
            std::thread::park();
            let mut st = self.inner.lock();
            let t = &mut st.tasks[self.id];
            if t.status == Status::Running {
                return if std::mem::take(&mut t.quiescent_signal) {
                    ParkOutcome::Quiescent
                } else {
                    ParkOutcome::Woken
                };
            }
        }
    }
}

/// Wake handle registered with a blocking primitive by
/// [`CurrentTask::prepare_park`]. Cheap to clone; safe to invoke on a
/// task in any state (stale wakes are no-ops or absorbed spuriously).
#[derive(Clone)]
pub struct Waiter {
    inner: Arc<SchedInner>,
    id: usize,
}

impl Waiter {
    /// Make the task runnable again. A parked task is granted a free
    /// lane or joins the back of the run queue; a running task (one
    /// between `prepare_park` and `park` included) absorbs the wake at
    /// its next park.
    pub fn wake(&self) {
        let mut st = self.inner.lock();
        let t = &mut st.tasks[self.id];
        match t.status {
            Status::Running => t.wake_pending = true,
            Status::Parked => st.enqueue(self.id),
            Status::Queued | Status::Done => {}
        }
    }
}

/// Default lane count: `available_parallelism`, which already honours
/// cgroup quotas and the process affinity mask.
pub fn default_lanes() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Spawn `n` tasks over `lanes` lanes and run each body to
    /// completion, returning the per-task results in task order.
    fn run_world<R: Send>(
        lanes: usize,
        n: usize,
        f: impl Fn(usize, &CurrentTask) -> R + Sync,
    ) -> Vec<R> {
        let sched = Scheduler::new(lanes);
        let handles: Vec<_> = (0..n).map(|_| sched.register()).collect();
        std::thread::scope(|s| {
            let joins: Vec<_> = handles
                .into_iter()
                .enumerate()
                .map(|(i, h)| {
                    let f = &f;
                    s.spawn(move || h.run(|cur| f(i, &cur)))
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        })
    }

    #[test]
    fn more_tasks_than_lanes_all_complete() {
        let hits = AtomicUsize::new(0);
        run_world(2, 64, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn single_lane_runs_tasks_in_fifo_order() {
        let order = Mutex::new(Vec::new());
        run_world(1, 16, |i, _| {
            order.lock().unwrap().push(i);
        });
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn solo_park_with_no_waker_is_quiescent() {
        let out = run_world(1, 1, |_, cur| {
            let _w = cur.prepare_park();
            cur.park()
        });
        assert_eq!(out, vec![ParkOutcome::Quiescent]);
    }

    #[test]
    fn wake_before_park_is_not_lost() {
        let out = run_world(1, 1, |_, cur| {
            let w = cur.prepare_park();
            w.wake(); // lands in the prepare/park window
            cur.park()
        });
        assert_eq!(out, vec![ParkOutcome::Woken]);
    }

    #[test]
    fn park_wake_ping_pong_across_tasks() {
        // Task 0 parks; task 1 wakes it via the registered waiter. With
        // one lane this only completes if parking really releases the
        // lane and waking really re-queues the parked task.
        let slot: Mutex<Option<Waiter>> = Mutex::new(None);
        let out = run_world(1, 2, |i, cur| {
            if i == 0 {
                let w = cur.prepare_park();
                *slot.lock().unwrap() = Some(w);
                cur.park()
            } else {
                // Runs once task 0 parked (single lane, FIFO).
                let w = slot.lock().unwrap().take().expect("task 0 registered");
                w.wake();
                ParkOutcome::Woken
            }
        });
        assert_eq!(out, vec![ParkOutcome::Woken, ParkOutcome::Woken]);
    }

    #[test]
    fn mutual_parks_detect_quiescence_exactly_once() {
        // Both tasks park with nobody left to wake them: the *second*
        // park proves the stall and returns Quiescent; it then wakes
        // its peer so the world tears down.
        let slots: Mutex<Vec<Waiter>> = Mutex::new(Vec::new());
        let out = run_world(2, 2, |_, cur| {
            let w = cur.prepare_park();
            slots.lock().unwrap().push(w);
            let got = cur.park();
            if got == ParkOutcome::Quiescent {
                for w in slots.lock().unwrap().drain(..) {
                    w.wake();
                }
            }
            got
        });
        let quiescent = out
            .iter()
            .filter(|&&o| o == ParkOutcome::Quiescent)
            .count();
        assert_eq!(quiescent, 1, "exactly one task observes the stall");
    }

    #[test]
    fn finishing_task_hands_quiescence_to_stranded_parkers() {
        // Tasks 0 and 1 park; task 2 just exits. The exit is the event
        // that leaves the world stalled, so the finish path must elect
        // a parked task (the lowest id — task 0) to observe Quiescent;
        // it then wakes task 1 so the world unwinds.
        let slots: Mutex<Vec<(usize, Waiter)>> = Mutex::new(Vec::new());
        let out = run_world(1, 3, |i, cur| {
            if i == 2 {
                return ParkOutcome::Woken; // bystander: exits cleanly
            }
            let w = cur.prepare_park();
            slots.lock().unwrap().push((i, w));
            let got = cur.park();
            if got == ParkOutcome::Quiescent {
                for (_, w) in slots.lock().unwrap().drain(..) {
                    w.wake();
                }
            }
            got
        });
        assert_eq!(
            out,
            vec![ParkOutcome::Quiescent, ParkOutcome::Woken, ParkOutcome::Woken]
        );
    }

    #[test]
    fn stale_wake_on_done_task_is_a_no_op() {
        let sched = Scheduler::new(1);
        let h = sched.register();
        let w = std::thread::scope(|s| {
            s.spawn(|| {
                h.run(|cur| cur.prepare_park())
            })
            .join()
            .unwrap()
        });
        w.wake(); // task is Done; must not panic or corrupt counters
        // A fresh task on the same scheduler still runs normally.
        let h2 = sched.register();
        let ran = std::thread::scope(|s| {
            s.spawn(|| h2.run(|_| true)).join().unwrap()
        });
        assert!(ran);
    }

    #[test]
    fn panicking_task_releases_its_lane() {
        let sched = Scheduler::new(1);
        let h0 = sched.register();
        let h1 = sched.register();
        let survived = std::thread::scope(|s| {
            let a = s.spawn(|| {
                h0.run(|_| {
                    std::panic::panic_any("boom");
                })
            });
            let b = s.spawn(|| h1.run(|_| 7u32));
            assert!(a.join().is_err());
            b.join().unwrap()
        });
        assert_eq!(survived, 7);
    }

    #[test]
    fn bodies_running_at_once_never_exceed_the_lane_count() {
        // 2 lanes, 16 tasks, each yielding the CPU mid-body so a third
        // body would get its chance to overlap if a permit leaked.
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        run_world(2, 16, |_, _| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            for _ in 0..50 {
                std::thread::yield_now();
            }
            active.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn four_lanes_finish_while_one_task_stays_parked() {
        // 4 lanes, 32 tasks: task 0 parks immediately and is woken only
        // by the last task. Every other task must still complete: the
        // lane task 0 released, and every lane a finished task frees,
        // goes on to the next queued task.
        let w0: Mutex<Option<Waiter>> = Mutex::new(None);
        let done = AtomicUsize::new(0);
        let out = run_world(4, 32, |i, cur| {
            if i == 0 {
                let w = cur.prepare_park();
                *w0.lock().unwrap() = Some(w);
                cur.park();
                true
            } else {
                let n = done.fetch_add(1, Ordering::SeqCst) + 1;
                if n == 31 {
                    // Last worker: wake task 0 (spin for its waiter —
                    // with multiple lanes task 0 may not have parked
                    // before early workers finish).
                    loop {
                        if let Some(w) = w0.lock().unwrap().take() {
                            w.wake();
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
                true
            }
        });
        assert_eq!(out.len(), 32);
        assert!(out.iter().all(|&b| b));
    }
}
