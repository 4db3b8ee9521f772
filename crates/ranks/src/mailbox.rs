//! One mailbox per rank: `(src, tag)` matching where the message lands.
//!
//! A sender files each envelope under its `(src, tag)` key in the
//! destination rank's mailbox; the owner pops the oldest envelope of the
//! key it asks for, or waits. A delivery rouses the owner only when it
//! lands on the key the owner is blocked on, so a rank waiting in one
//! exchange is not woken by traffic of the next. The wait is the one
//! place a rank blocks: its task parks, releasing its run lane (see
//! `hacc_rt::sched`).

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use hacc_rt::sched::{CurrentTask, ParkOutcome, Waiter};

use crate::comm::Tag;

/// What a receive matches on: source rank and tag.
pub(crate) type Key = (usize, Tag);

/// Transport-level condition of an envelope, set by the fault harness.
/// Marked envelopes are detected and discarded by the receiver before
/// they can match a receive — mirroring sequence-number dedup and CRC
/// drops in a real interconnect.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Marker {
    /// A healthy message.
    Normal,
    /// The surplus copy of a duplicated message.
    Dup,
    /// A truncated message (its payload is garbage; a retransmission
    /// follows).
    Trunc,
}

pub(crate) struct Envelope {
    pub src: usize,
    pub tag: Tag,
    pub payload: Box<dyn Any + Send>,
    /// Element type and size the sender declared; the receiver checks
    /// them against its own expectation at match time (M1).
    pub type_name: &'static str,
    pub bytes: usize,
    pub marker: Marker,
}

struct State {
    /// Arrivals by `(src, tag, arrival number)`: the entries of one
    /// `(src, tag)` pair are adjacent, oldest first. The index keeps
    /// matching O(log arrivals) at 4096-rank all-to-all fan-in, and one
    /// flat map allocates nothing per pair (collective tags are unique
    /// per epoch, so nearly every pair holds a single envelope).
    filed: BTreeMap<(usize, Tag, u64), Envelope>,
    /// Envelopes filed so far; the last arrival number handed out.
    arrivals: u64,
    /// The key the owner is parked on, with its task's waiter. Whoever
    /// rouses the owner takes it.
    blocked: Option<(Key, Waiter)>,
    /// The first peer that panicked; the world is being torn down.
    aborted_by: Option<usize>,
    /// Surplus duplicates dropped at landing, not yet ledgered by the
    /// owner's fault probe.
    surplus_dups: u64,
}

impl State {
    /// Where the oldest envelope of the pair is filed.
    fn oldest(&self, (src, tag): Key) -> Option<(usize, Tag, u64)> {
        let pair = (src, tag, 0)..=(src, tag, u64::MAX);
        self.filed.range(pair).next().map(|(at, _)| *at)
    }
}

/// Outcome of [`Mailbox::take`].
pub(crate) enum Taken {
    /// The oldest envelope filed under the key, and the surplus
    /// duplicates dropped since the owner's last match.
    Matched { env: Envelope, surplus_dups: u64 },
    /// A peer panicked: the world is being torn down.
    Aborted(usize),
    /// The scheduler proved every live task parked, so nothing can ever
    /// satisfy this wait.
    Quiescent,
}

pub(crate) struct Mailbox {
    state: Mutex<State>,
}

impl Mailbox {
    pub(crate) fn new() -> Self {
        Mailbox {
            state: Mutex::new(State {
                filed: BTreeMap::new(),
                arrivals: 0,
                blocked: None,
                aborted_by: None,
                surplus_dups: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Poison-proof: no user code runs under this lock and every
        // update is a single queue or field operation, so a poisoned
        // lock only means a rank panicked mid-teardown.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// File `env` under its `(src, tag)` key and rouse the owner if that
    /// is the key it is blocked on. A surplus duplicate is dropped here
    /// — sequence-number dedup — and only counted.
    pub(crate) fn deliver(&self, env: Envelope) {
        let mut st = self.lock();
        if env.marker == Marker::Dup {
            st.surplus_dups += 1;
            return;
        }
        let key = (env.src, env.tag);
        st.arrivals += 1;
        let at = (env.src, env.tag, st.arrivals);
        st.filed.insert(at, env);
        let owner = match &st.blocked {
            Some((k, _)) if *k == key => st.blocked.take(),
            _ => None,
        };
        drop(st);
        Self::rouse(owner);
    }

    /// Rank `by` panicked: flag it and rouse the owner whatever key it
    /// waits on — the MPI_Abort analogue.
    pub(crate) fn abort(&self, by: usize) {
        let mut st = self.lock();
        st.aborted_by.get_or_insert(by);
        let owner = st.blocked.take();
        drop(st);
        Self::rouse(owner);
    }

    /// Called with the mailbox lock released, which keeps the lock order
    /// flat: the scheduler lock is never taken under a mailbox lock.
    fn rouse(owner: Option<(Key, Waiter)>) {
        if let Some((_, task)) = owner {
            task.wake();
        }
    }

    /// Pop the oldest envelope filed under `key`, waiting for one when
    /// there is none. Only the owning rank calls this, as `task`: it
    /// parks until it is roused or the scheduler proves the world
    /// quiescent, never on wall clock.
    pub(crate) fn take(&self, key: Key, task: &CurrentTask) -> Taken {
        let mut st = self.lock();
        loop {
            if let Some(env) = st.oldest(key).and_then(|at| st.filed.remove(&at)) {
                let surplus_dups = std::mem::take(&mut st.surplus_dups);
                return Taken::Matched { env, surplus_dups };
            }
            if let Some(by) = st.aborted_by {
                return Taken::Aborted(by);
            }
            // Two-phase park: the waiter is registered under the lock a
            // sender needs, so its wake cannot be lost; `prepare_park`
            // itself takes no lock.
            st.blocked = Some((key, task.prepare_park()));
            drop(st);
            if task.park() == ParkOutcome::Quiescent {
                return Taken::Quiescent;
            }
            st = self.lock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_rt::sched::Scheduler;

    const A: Key = (0, 1);
    const B: Key = (0, 2);

    fn env(key: Key, value: u64) -> Envelope {
        Envelope {
            src: key.0,
            tag: key.1,
            payload: Box::new(value),
            type_name: "u64",
            bytes: 8,
            marker: Marker::Normal,
        }
    }

    fn matched(t: Taken) -> u64 {
        let Taken::Matched { env, .. } = t else {
            panic!("nothing matched");
        };
        *env.payload.downcast::<u64>().unwrap()
    }

    fn owner_is_blocked(mb: &Mailbox) -> bool {
        mb.lock().blocked.is_some()
    }

    #[test]
    fn only_a_delivery_on_the_awaited_key_rouses_the_owner_and_only_once() {
        // One lane: the sender task runs exactly while the owner is
        // parked, and a wrongly woken owner would sit in the run queue
        // with its `blocked` registration already consumed.
        let sched = Scheduler::new(1);
        let mb = Mailbox::new();
        let (owner, sender) = (sched.register(), sched.register());
        std::thread::scope(|s| {
            let owner = s.spawn(|| {
                owner.run(|me| {
                    assert_eq!(matched(mb.take(A, &me)), 1);
                    // The other two stay filed under their keys.
                    assert_eq!(matched(mb.take(A, &me)), 2);
                    assert_eq!(matched(mb.take(B, &me)), 7);
                })
            });
            s.spawn(|| {
                sender.run(|_| {
                    assert!(owner_is_blocked(&mb));
                    mb.deliver(env(B, 7));
                    assert!(owner_is_blocked(&mb), "a foreign key woke the owner");
                    mb.deliver(env(A, 1));
                    assert!(!owner_is_blocked(&mb), "the awaited key did not");
                    mb.deliver(env(A, 2)); // nobody left to rouse
                })
            });
            owner.join().unwrap();
        });
    }

    #[test]
    fn two_tasks_ping_pong_on_one_lane() {
        // Progress is only possible if an empty take parks the task
        // (releasing the one lane) and the matching deliver wakes it.
        let sched = Scheduler::new(1);
        let boxes = [Mailbox::new(), Mailbox::new()];
        let (ha, hb) = (sched.register(), sched.register());
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                ha.run(|me| {
                    let mut v = 0;
                    for _ in 0..50 {
                        boxes[1].deliver(env(A, v));
                        v = matched(boxes[0].take(A, &me));
                    }
                    v
                })
            });
            let b = s.spawn(|| {
                hb.run(|me| {
                    for _ in 0..50 {
                        let v = matched(boxes[1].take(A, &me));
                        boxes[0].deliver(env(A, v + 1));
                    }
                })
            });
            assert_eq!(a.join().unwrap(), 50);
            b.join().unwrap();
        });
    }

    #[test]
    fn fifo_holds_per_key_under_interleaved_producers() {
        // Producers are tasks too: an owner parked on an empty key is
        // only provably stuck once every producer has finished.
        let sched = Scheduler::new(4);
        let mb = Mailbox::new();
        let owner = sched.register();
        let producers: Vec<_> = (0..3).map(|_| sched.register()).collect();
        std::thread::scope(|s| {
            for (p, task) in producers.into_iter().enumerate() {
                let mb = &mb;
                s.spawn(move || {
                    task.run(|_| {
                        for i in 0..1000 {
                            mb.deliver(env((p, 5), i));
                        }
                    })
                });
            }
            // Round-robin over the keys while the producers still run.
            owner.run(|me| {
                for i in 0..1000 {
                    for p in 0..3 {
                        assert_eq!(matched(mb.take((p, 5), &me)), i, "producer {p}");
                    }
                }
            });
        });
        assert!(mb.lock().filed.is_empty());
    }

    #[test]
    fn abort_releases_a_parked_owner() {
        // One lane, so the aborting task runs exactly while the owner
        // is parked.
        let sched = Scheduler::new(1);
        let mb = Mailbox::new();
        let (owner, peer) = (sched.register(), sched.register());
        std::thread::scope(|s| {
            let owner = s.spawn(|| {
                owner.run(|me| {
                    assert!(matches!(mb.take(A, &me), Taken::Aborted(3)));
                    // A message already filed still wins over the flag.
                    mb.deliver(env(A, 9));
                    assert_eq!(matched(mb.take(A, &me)), 9);
                    assert!(matches!(mb.take(A, &me), Taken::Aborted(3)));
                })
            });
            s.spawn(|| {
                peer.run(|_| {
                    assert!(owner_is_blocked(&mb));
                    mb.abort(3);
                })
            });
            owner.join().unwrap();
        });
    }
}
