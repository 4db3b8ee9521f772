//! Point-to-point messaging and collectives over scheduled rank tasks.
//!
//! Every rank is a task on the bounded executor in `hacc_rt::sched`. A
//! rank whose mailbox holds nothing for its `recv` parks its task and
//! releases its run lane to another rank, so 256–4096-rank worlds
//! multiplex onto a handful of cores. The scheduler's exact quiescence
//! detection turns "every live rank is parked" into a deterministic
//! deadlock diagnosis with zero wall-clock heuristics.
//!
//! Rank-visible results are scheduling-independent: a message is matched
//! on `(src, tag)` in the receiver's mailbox (`mailbox.rs`) in per-pair
//! FIFO order and every collective reduces in rank order, so the
//! interleaving freedom the scheduler introduces never reaches user code.
//!
//! When a world runs under [`World::run_sanitized`] (or `HACC_SAN=1`),
//! every transport operation also feeds `hacc-san`'s dynamic checkers:
//! collectives are ledger-matched across ranks (Q1), blocking receives
//! register in the wait-for graph so a quiescent world is reported as
//! the wait chain that stalled it (W1), and point-to-point matches
//! validate the sender's declared payload type and size eagerly at match
//! time (M1).

use std::any::Any;
use std::cell::RefCell;
use std::panic::Location;
use std::sync::Arc;

use hacc_fault::FaultProbe;
use hacc_rt::sched::{default_lanes, CurrentTask, Scheduler};
use hacc_san::{Rule, SanAbort, SanReport, SanSession};
use hacc_telem::{CollectiveKind, CommCounters, FaultKind};

use crate::mailbox::{Envelope, Mailbox, Marker, Taken};

/// Message tag, mirroring MPI tags. User tags must leave the high bit clear;
/// tags with the high bit set are reserved for internal collectives.
pub type Tag = u64;

const COLLECTIVE_BIT: Tag = 1 << 63;

/// Names the pinned repository benchmark compiles against
/// (`crates/bench/src/bin/benchmark/`, frozen by `BENCHMARK.json`), kept
/// for it alone: this enum, [`World::run_with`], and `hacc-core`'s
/// `SimConfig::backend` / `rank_backend()`. They select nothing — there
/// is one rank host — and go with the `benchmark` PR of ROADMAP item 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Ranks as tasks on `hacc_rt::sched` lanes.
    Cooperative,
}

/// The SPMD entry point: runs the same closure on every rank of a
/// simulated world, each rank a task on `hacc_rt::sched` lanes.
pub struct World;

impl World {
    /// Run `f` on `n` ranks and return the per-rank results in rank
    /// order.
    ///
    /// Panics in any rank propagate (the join unwinds with the payload of
    /// the lowest-numbered rank that panicked, so a typed payload reaches
    /// the caller), mirroring an MPI abort. With `HACC_SAN=1` in the environment the world runs
    /// sanitized instead (the tier-4 full-suite gate): findings not
    /// suppressed by the `HACC_SAN_ALLOW` list panic at world end.
    pub fn run<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        if hacc_san::env_armed() {
            let (results, mut report) = Self::run_sanitized(n, f);
            let mut allow = hacc_san::env_allowlist();
            report.apply_allow(&mut allow);
            if !report.is_clean() {
                panic!(
                    "hacc-san findings (HACC_SAN=1):\n{}",
                    report.render_text()
                );
            }
            return results
                .expect("sanitizer aborted the world without an unsuppressed finding");
        }
        Self::run_inner(n, &f, None)
            .expect("unsanitized rank results are never swallowed")
    }

    /// [`run`](Self::run), for the pinned benchmark (see [`Backend`]).
    pub fn run_with<T, F>(_: Backend, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        Self::run(n, f)
    }

    /// Run `f` on `n` ranks with the full dynamic sanitizer armed.
    ///
    /// Returns the per-rank results — `None` when the sanitizer aborted
    /// the world (deadlock or payload mismatch) — plus the findings
    /// report. Unlike [`run`](Self::run), a sanitizer abort does not
    /// unwind: the diagnosis lives in the report.
    pub fn run_sanitized<T, F>(n: usize, f: F) -> (Option<Vec<T>>, SanReport)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let session = SanSession::new(n);
        let results = Self::run_inner(n, &f, Some(&session));
        (results, session.finish())
    }

    /// One rank's whole life: build its communicator, run the user
    /// closure under `catch_unwind`, and on panic flag the abort on every
    /// peer's mailbox so blocked peers tear down instead of hanging.
    fn rank_body<T, F>(
        rank: usize,
        mailboxes: Arc<Vec<Mailbox>>,
        task: CurrentTask,
        f: &F,
        san: Option<&Arc<SanSession>>,
    ) -> Option<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let tok = san.map(|s| hacc_san::register_thread(s, rank));
        let mut comm = Comm {
            rank,
            size: mailboxes.len(),
            mailboxes,
            task,
            epoch: 0,
            counters: RefCell::new(CommCounters::default()),
            probe: None,
            delayed: RefCell::new(Vec::new()),
            san: san.map(Arc::clone),
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let v = f(&mut comm);
            // A message held by a `comm-delay` fault on the rank's last
            // transport operation has no later operation to release it.
            comm.flush_delayed();
            v
        }));
        if let Some(t) = tok {
            t.finish();
        }
        if let Some(s) = san {
            // From here on the wait-graph treats a chain
            // ending at this rank as a stall, not progress.
            s.rank_exited(rank);
        }
        match result {
            Ok(v) => Some(v),
            Err(cause) => {
                // Tell every peer before unwinding so ranks
                // blocked in recv fail fast instead of
                // deadlocking the scoped join below (this rank's own
                // mailbox is never read again).
                comm.mailboxes.iter().for_each(|m| m.abort(rank));
                if san.is_some_and(|s| s.is_aborted()) {
                    // Sanitizer-initiated teardown: the W1/M1
                    // finding carries the diagnosis; swallow
                    // the unwind so the report is returned
                    // instead of a propagated panic.
                    None
                } else {
                    std::panic::resume_unwind(cause);
                }
            }
        }
    }

    fn run_inner<T, F>(n: usize, f: &F, san: Option<&Arc<SanSession>>) -> Option<Vec<T>>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        assert!(n > 0, "world size must be positive");
        let mailboxes: Arc<Vec<Mailbox>> = Arc::new((0..n).map(|_| Mailbox::new()).collect());

        // Every rank is registered before any thread starts, so the
        // quiescence accounting always sees the whole world.
        let sched = Scheduler::new(default_lanes());
        let tasks: Vec<_> = (0..n).map(|_| sched.register()).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = tasks
                .into_iter()
                .enumerate()
                .map(|(rank, task)| {
                    let mailboxes = Arc::clone(&mailboxes);
                    scope.spawn(move || {
                        task.run(|me| Self::rank_body(rank, mailboxes, me, f, san))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|cause| std::panic::resume_unwind(cause)))
                .collect()
        })
    }
}

/// A per-rank communicator handle. Not `Clone`: each rank owns exactly one,
/// matching the single-threaded-per-rank MPI usage in CRK-HACC.
///
/// Every communicator carries telemetry counters (`hacc_telem`):
/// messages/bytes sent, messages received, and collective entries per
/// kind. Collectives built on other collectives (e.g. `all_gather` =
/// gather + broadcast) count both the outer and the inner entries —
/// the counters describe what the transport actually executed. Byte
/// counts are `size_of::<T>()` per message plus element-counted buffer
/// bytes for `all_to_allv` and `exchange` (see [`CommCounters`]).
pub struct Comm {
    rank: usize,
    size: usize,
    /// Every rank's mailbox, this rank's own at index `rank`.
    mailboxes: Arc<Vec<Mailbox>>,
    /// The scheduler task this rank is; what a blocked receive parks.
    task: CurrentTask,
    epoch: u64,
    counters: RefCell<CommCounters>,
    probe: Option<FaultProbe>,
    delayed: RefCell<Vec<(usize, Envelope)>>,
    san: Option<Arc<SanSession>>,
}

impl Comm {
    /// This rank's index in `[0, size)`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Attach a fault probe. Subsequent transport operations consult the
    /// probe's plan for message-level faults: delayed delivery
    /// (`comm-delay`), surplus duplicates (`comm-dup`), and truncated
    /// frames followed by retransmission (`comm-trunc`). With no probe
    /// armed the transport path is byte-for-byte the pre-fault one.
    pub fn arm_faults(&mut self, probe: FaultProbe) {
        self.probe = Some(probe);
    }

    /// Asynchronous (buffered, non-blocking) send of `value` to rank `dst`.
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: Tag, value: T) {
        assert!(tag & COLLECTIVE_BIT == 0, "tag high bit is reserved");
        self.send_raw(dst, tag, value);
    }

    fn send_raw<T: Send + 'static>(&self, dst: usize, tag: Tag, value: T) {
        assert!(dst < self.size, "destination rank {dst} out of range");
        self.flush_delayed();
        self.counters
            .borrow_mut()
            .record_send(std::mem::size_of::<T>() as u64);
        let frame = |payload: Box<dyn Any + Send>, marker| Envelope {
            src: self.rank,
            tag,
            payload,
            type_name: std::any::type_name::<T>(),
            bytes: std::mem::size_of::<T>(),
            marker,
        };
        let env = frame(Box::new(value), Marker::Normal);
        if let Some(probe) = &self.probe {
            if probe.fire(FaultKind::CommDelay) {
                // Hold the message; it is released — in original order —
                // the next time this rank touches the transport. Holding
                // never reorders messages that share a (src, tag) pair,
                // which is the invariant receive matching relies on.
                self.delayed.borrow_mut().push((dst, env));
                return;
            }
            if probe.fire(FaultKind::CommTrunc) {
                // The truncated frame arrives first — with an intact
                // header but garbage payload — and is dropped by the
                // receiver's match-time integrity check; the
                // retransmission below carries the real payload.
                self.mailboxes[dst].deliver(frame(Box::new(()), Marker::Trunc));
            }
            if probe.fire(FaultKind::CommDup) {
                // The surplus copy is dropped by the receiver's duplicate
                // detection as it lands. It lands ahead of the message
                // so the receive that matches the message also ledgers
                // the drop: a copy that trailed could land after its
                // receiver's last receive and never be ledgered.
                self.mailboxes[dst].deliver(frame(Box::new(()), Marker::Dup));
            }
        }
        self.mailboxes[dst].deliver(env);
    }

    /// Release any held (delayed) messages, oldest first. Called on every
    /// transport touch and when the rank's closure returns, so a delayed
    /// message is never outstanding past the rank's next send or receive
    /// — the step loop's per-step collectives guarantee prompt release.
    fn flush_delayed(&self) {
        for (dst, env) in self.delayed.take() {
            self.mailboxes[dst].deliver(env);
            if let Some(probe) = &self.probe {
                probe.recovered(FaultKind::CommDelay);
            }
        }
    }

    /// Blocking receive of a message with the given source and tag.
    ///
    /// Messages are matched on `(src, tag)` where they land, oldest first
    /// within a pair, so receive order across distinct sources or tags
    /// need not match send order.
    #[track_caller]
    pub fn recv<T: Send + 'static>(&mut self, src: usize, tag: Tag) -> T {
        assert!(tag & COLLECTIVE_BIT == 0, "tag high bit is reserved");
        self.recv_raw(src, tag, Location::caller())
    }

    fn recv_raw<T: Send + 'static>(
        &mut self,
        src: usize,
        tag: Tag,
        site: &'static Location<'static>,
    ) -> T {
        self.flush_delayed();
        self.counters.borrow_mut().record_recv();
        if let Some(s) = &self.san {
            let detail = if tag & COLLECTIVE_BIT != 0 {
                format!("collective message from rank {src}")
            } else {
                format!("recv(src={src}, tag={tag})")
            };
            s.begin_wait(self.rank, src, detail, site);
        }
        loop {
            match self.mailboxes[self.rank].take((src, tag), &self.task) {
                Taken::Matched { env, surplus_dups } => {
                    if let Some(probe) = &self.probe {
                        for _ in 0..surplus_dups {
                            probe.recovered(FaultKind::CommDup);
                        }
                    }
                    // Validation happens at match time: a truncated frame
                    // is dropped here and the loop retries — its
                    // retransmission is filed right behind it.
                    if let Some(env) = self.integrity_check::<T>(env, src, tag, site) {
                        if let Some(s) = &self.san {
                            s.end_wait(self.rank);
                        }
                        return Self::downcast(env, src, tag);
                    }
                }
                // e1: allow: propagates a peer rank's abort; the fault supervisor catches this and rolls back
                Taken::Aborted(by) => panic!(
                    "rank {}: rank {by} aborted while this rank waited on \
                     recv(src={src}, tag={tag})",
                    self.rank
                ),
                // A quiescence proof, never wall clock: sanitized, the
                // wait graph names the chain that stalled; unsanitized,
                // the blocked rank panics deterministically instead of
                // hanging. Either way the abort flags tear the world down.
                Taken::Quiescent => {
                    if let Some(s) = &self.san {
                        s.report_deadlock(self.rank);
                        std::panic::panic_any(SanAbort(format!(
                            "rank {}: deadlock reported while waiting on \
                             recv(src={src}, tag={tag})",
                            self.rank
                        )));
                    }
                    // e1: allow: deterministic deadlock abort when the cooperative world is quiescent — failing loud is the point
                    panic!(
                        "rank {}: deadlock — world quiescent (every rank \
                         parked) while waiting on recv(src={src}, tag={tag})",
                        self.rank
                    )
                }
            }
        }
    }

    /// Match-time validation of an envelope addressed to this receive:
    /// truncated frames are dropped (the fault probe counts a recovery),
    /// and a sender-declared payload type or size that disagrees with
    /// the receiver's expectation is an M1 finding.
    fn integrity_check<T: 'static>(
        &self,
        env: Envelope,
        src: usize,
        tag: Tag,
        site: &'static Location<'static>,
    ) -> Option<Envelope> {
        if env.marker == Marker::Trunc {
            if let Some(probe) = &self.probe {
                probe.recovered(FaultKind::CommTrunc);
            }
            return None;
        }
        let want_ty = std::any::type_name::<T>();
        let want_bytes = std::mem::size_of::<T>();
        if env.type_name != want_ty || env.bytes != want_bytes {
            let msg = format!(
                "p2p payload mismatch on recv(src={src}, tag={tag}): \
                 receiver expects {want_ty} ({want_bytes} B) but rank \
                 {src} sent {} ({} B)",
                env.type_name, env.bytes
            );
            if let Some(s) = &self.san {
                s.report(
                    Rule::M1,
                    site.file(),
                    site.line(),
                    msg.clone(),
                    format!("M1:{}:{}:{src}:{tag}", site.file(), site.line()),
                );
                s.set_aborted();
                std::panic::panic_any(SanAbort(format!("rank {}: {msg}", self.rank)));
            }
            // e1: allow: payload-integrity mismatch is fatal by design (registered M1 fault surface); supervisor rolls back
            panic!("rank {}: {msg}", self.rank);
        }
        Some(env)
    }

    fn downcast<T: 'static>(env: Envelope, src: usize, tag: Tag) -> T {
        *env.payload
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("type mismatch on recv(src={src}, tag={tag})"))
    }

    fn next_collective_tag(&mut self) -> Tag {
        self.epoch = self.epoch.wrapping_add(1);
        COLLECTIVE_BIT | self.epoch
    }

    /// Snapshot of this rank's communication telemetry counters.
    pub fn telemetry(&self) -> CommCounters {
        self.counters.borrow().clone()
    }

    fn count_collective(&self, kind: CollectiveKind) {
        self.counters.borrow_mut().record_collective(kind);
    }

    /// Enter `kind` in the sanitizer's collective ledger (MUST-style
    /// matching): the i-th collective of every rank must carry the same
    /// (kind, element type/size, root, call site) signature.
    fn record_collective(
        &self,
        kind: &'static str,
        elem: &'static str,
        bytes: usize,
        root: usize,
        site: &'static Location<'static>,
    ) {
        if let Some(s) = &self.san {
            s.record_collective(self.rank, kind, elem, bytes, root, site);
        }
    }

    /// Synchronize all ranks (dissemination barrier over p2p messages).
    #[track_caller]
    pub fn barrier(&mut self) {
        let site = Location::caller();
        self.count_collective(CollectiveKind::Barrier);
        self.record_collective("barrier", "()", 0, 0, site);
        let tag = self.next_collective_tag();
        let mut step = 1usize;
        while step < self.size {
            let to = (self.rank + step) % self.size;
            let from = (self.rank + self.size - step) % self.size;
            self.send_raw(to, tag, ());
            let () = self.recv_raw(from, tag, site);
            step <<= 1;
        }
    }

    /// Broadcast `value` from `root` to every rank. Non-root ranks pass any
    /// placeholder (it is ignored); every rank returns the root's value.
    #[track_caller]
    pub fn broadcast<T: Clone + Send + 'static>(&mut self, root: usize, value: T) -> T {
        let site = Location::caller();
        self.count_collective(CollectiveKind::Broadcast);
        self.record_collective(
            "broadcast",
            std::any::type_name::<T>(),
            std::mem::size_of::<T>(),
            root,
            site,
        );
        let tag = self.next_collective_tag();
        if self.rank == root {
            for dst in 0..self.size {
                if dst != root {
                    self.send_raw(dst, tag, value.clone());
                }
            }
            value
        } else {
            self.recv_raw(root, tag, site)
        }
    }

    /// Gather one value from every rank to `root`. Returns `Some(values)`
    /// in rank order on the root, `None` elsewhere.
    #[track_caller]
    pub fn gather<T: Send + 'static>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        let site = Location::caller();
        self.count_collective(CollectiveKind::Gather);
        self.record_collective(
            "gather",
            std::any::type_name::<T>(),
            std::mem::size_of::<T>(),
            root,
            site,
        );
        let tag = self.next_collective_tag();
        if self.rank == root {
            let mut out: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
            out[root] = Some(value);
            for src in 0..self.size {
                if src != root {
                    out[src] = Some(self.recv_raw(src, tag, site));
                }
            }
            // e1: allow: every slot is filled before collect — own value at the root, recv_raw for the rest
            Some(out.into_iter().map(|v| v.unwrap()).collect())
        } else {
            self.send_raw(root, tag, value);
            None
        }
    }

    /// Gather one value from every rank to every rank.
    ///
    /// `#[track_caller]` propagates the *user's* call site through the
    /// inner gather/broadcast, so the ledger records one consistent site
    /// per composed collective on every rank.
    #[track_caller]
    pub fn all_gather<T: Clone + Send + 'static>(&mut self, value: T) -> Vec<T> {
        let site = Location::caller();
        self.count_collective(CollectiveKind::AllGather);
        self.record_collective(
            "all_gather",
            std::any::type_name::<T>(),
            std::mem::size_of::<T>(),
            0,
            site,
        );
        let gathered = self.gather(0, value);
        // e1: allow: gather(0, _) returns Some exactly at the root; guarded by rank == 0
        let data = if self.rank == 0 { gathered.unwrap() } else { Vec::new() };
        self.broadcast(0, data)
    }

    /// Reduce with a user-supplied associative operator; every rank gets
    /// the result. The reduction is applied in rank order, so
    /// non-commutative (but associative) operators are deterministic.
    #[track_caller]
    pub fn all_reduce<T, F>(&mut self, value: T, op: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let site = Location::caller();
        self.count_collective(CollectiveKind::AllReduce);
        self.record_collective(
            "all_reduce",
            std::any::type_name::<T>(),
            std::mem::size_of::<T>(),
            0,
            site,
        );
        let vals = self.all_gather(value);
        let mut it = vals.into_iter();
        // e1: allow: the world has at least one rank, so all_gather returns at least one value
        let first = it.next().expect("non-empty world");
        it.fold(first, op)
    }

    /// Convenience f64 allreduce.
    #[track_caller]
    pub fn all_reduce_f64<F: Fn(f64, f64) -> f64>(&mut self, v: f64, op: F) -> f64 {
        self.all_reduce(v, op)
    }

    /// Convenience u64 sum allreduce.
    #[track_caller]
    pub fn all_reduce_sum_u64(&mut self, v: u64) -> u64 {
        self.all_reduce(v, |a, b| a + b)
    }

    /// Exclusive prefix sum: rank r receives `sum(values[0..r])`.
    #[track_caller]
    pub fn exscan_u64(&mut self, value: u64) -> u64 {
        let site = Location::caller();
        self.count_collective(CollectiveKind::Exscan);
        self.record_collective("exscan_u64", "u64", std::mem::size_of::<u64>(), 0, site);
        let all = self.all_gather(value);
        all[..self.rank].iter().sum()
    }

    /// The all-to-all-v exchange: `sends[d]` goes to rank `d`; returns the
    /// vector received from each source rank, in rank order. This is the
    /// dense traffic: FFT transposes and particle migration.
    #[track_caller]
    pub fn all_to_allv<T: Send + 'static>(&mut self, sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(sends.len(), self.size, "need one send buffer per rank");
        let size = self.size;
        self.route(
            CollectiveKind::AllToAllV,
            sends.into_iter().enumerate(),
            0..size,
            Location::caller(),
        )
    }

    /// The sparse all-to-all-v (MPI's `Neighbor_alltoallv`): each
    /// `(dst, buf)` of `sends` goes to `dst`, and one buffer is received
    /// from each rank of `sources`, returned in that order. Every rank
    /// enters it, with or without peers; the pattern must be consistent —
    /// `s` lists `r` exactly when `r` sends to `s` — and names each peer at
    /// most once. A rank may name itself on both sides (no message).
    #[track_caller]
    pub fn exchange<T: Send + 'static>(
        &mut self,
        sends: Vec<(usize, Vec<T>)>,
        sources: &[usize],
    ) -> Vec<Vec<T>> {
        self.route(
            CollectiveKind::Exchange,
            sends,
            sources.iter().copied(),
            Location::caller(),
        )
    }

    /// The body of both all-to-all-v forms: post every send (mailboxes are
    /// unbounded, so this cannot deadlock), then receive from `sources` in
    /// order. A rank's buffer to itself never touches the mailbox, and the
    /// byte count is element-accurate for the buffers sent (the
    /// per-message accounting only sees the `Vec` header).
    fn route<T: Send + 'static>(
        &mut self,
        kind: CollectiveKind,
        sends: impl IntoIterator<Item = (usize, Vec<T>)>,
        sources: impl IntoIterator<Item = usize>,
        site: &'static Location<'static>,
    ) -> Vec<Vec<T>> {
        self.count_collective(kind);
        self.record_collective(
            kind.name(),
            std::any::type_name::<T>(),
            std::mem::size_of::<T>(),
            0,
            site,
        );
        let tag = self.next_collective_tag();
        let mut mine = None;
        for (dst, buf) in sends {
            if dst == self.rank {
                mine = Some(buf);
            } else {
                let bytes = (buf.len() * std::mem::size_of::<T>()) as u64;
                self.counters.borrow_mut().bytes_sent += bytes;
                self.send_raw(dst, tag, buf);
            }
        }
        sources
            .into_iter()
            .map(|src| {
                if src == self.rank {
                    // e1: allow: a rank names itself as a source only when it sent itself a buffer
                    mine.take().expect("self source without a self send")
                } else {
                    self.recv_raw(src, tag, site)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_telem::CollectiveKind;

    #[test]
    fn ring_pass() {
        let out = World::run(5, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 7, c.rank());
            c.recv::<usize>(prev, 7)
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, "first".to_string());
                c.send(1, 2, "second".to_string());
                String::new()
            } else {
                // Receive in reverse tag order.
                let b = c.recv::<String>(0, 2);
                let a = c.recv::<String>(0, 1);
                format!("{a}/{b}")
            }
        });
        assert_eq!(out[1], "first/second");
    }

    #[test]
    fn barrier_completes_many_rounds() {
        let out = World::run(7, |c| {
            for _ in 0..50 {
                c.barrier();
            }
            c.rank()
        });
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let out = World::run(4, |c| {
            let v = if c.rank() == 2 { 99u32 } else { 0 };
            c.broadcast(2, v)
        });
        assert!(out.iter().all(|&v| v == 99));
    }

    #[test]
    fn gather_preserves_rank_order() {
        let out = World::run(6, |c| c.gather(3, c.rank() * 10));
        for (r, res) in out.iter().enumerate() {
            if r == 3 {
                assert_eq!(res.as_ref().unwrap(), &vec![0, 10, 20, 30, 40, 50]);
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn all_reduce_max() {
        let out = World::run(8, |c| c.all_reduce_f64(c.rank() as f64, f64::max));
        assert!(out.iter().all(|&v| v == 7.0));
    }

    #[test]
    fn all_reduce_deterministic_order() {
        // String concatenation is associative but not commutative; the
        // result must be in rank order on every rank.
        let out = World::run(4, |c| {
            c.all_reduce(c.rank().to_string(), |a, b| a + &b)
        });
        assert!(out.iter().all(|v| v == "0123"));
    }

    #[test]
    fn exscan_matches_prefix_sums() {
        let out = World::run(5, |c| c.exscan_u64((c.rank() + 1) as u64));
        assert_eq!(out, vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn all_to_allv_transposes() {
        let out = World::run(3, |c| {
            let sends: Vec<Vec<usize>> =
                (0..3).map(|d| vec![c.rank() * 100 + d]).collect();
            c.all_to_allv(sends)
        });
        // Rank r receives from src s the value s*100 + r.
        for (r, recvd) in out.iter().enumerate() {
            for (s, buf) in recvd.iter().enumerate() {
                assert_eq!(buf, &vec![s * 100 + r]);
            }
        }
    }

    #[test]
    fn all_to_allv_variable_sizes() {
        let out = World::run(4, |c| {
            let sends: Vec<Vec<u8>> = (0..4)
                .map(|d| vec![c.rank() as u8; (c.rank() + d) % 3])
                .collect();
            let recvd = c.all_to_allv(sends);
            recvd.iter().map(|v| v.len()).sum::<usize>()
        });
        // Total received equals total sent across the world.
        let total: usize = out.iter().sum();
        let expect: usize = (0..4)
            .map(|r| (0..4).map(|d| (r + d) % 3).sum::<usize>())
            .sum();
        assert_eq!(total, expect);
    }

    /// The ring pattern of [`exchange`](Comm::exchange): rank `r` sends
    /// its successor one buffer and itself another, and receives from its
    /// predecessor and itself, in ascending rank order.
    fn ring_exchange(c: &mut Comm) -> Vec<Vec<usize>> {
        let (rank, size) = (c.rank(), c.size());
        let next = (rank + 1) % size;
        let prev = (rank + size - 1) % size;
        let mut sends = vec![(rank, vec![rank; 2])];
        let mut sources = vec![rank];
        if size > 1 {
            sends.push((next, vec![rank * 100 + next; 3]));
            sources.push(prev);
            sources.sort_unstable();
        }
        c.exchange(sends, &sources)
    }

    #[test]
    fn exchange_delivers_in_source_order_with_a_self_send() {
        for size in [1, 2, 5] {
            let out = World::run(size, ring_exchange);
            for (r, recvd) in out.iter().enumerate() {
                let prev = (r + size - 1) % size;
                let mut want = vec![(r, vec![r; 2])];
                if size > 1 {
                    want.push((prev, vec![prev * 100 + r; 3]));
                    want.sort_unstable();
                }
                let want: Vec<Vec<usize>> = want.into_iter().map(|(_, b)| b).collect();
                assert_eq!(recvd, &want, "rank {r} of {size}");
            }
        }
    }

    #[test]
    fn exchange_with_no_peers_is_still_a_collective() {
        let out = World::run(3, |c| {
            let got: Vec<Vec<u8>> = c.exchange(Vec::new(), &[]);
            (got.len(), c.telemetry())
        });
        for (n, t) in out {
            assert_eq!(n, 0);
            assert_eq!(t.collective(CollectiveKind::Exchange), 1);
            assert_eq!((t.sends, t.bytes_sent), (0, 0));
        }
    }

    #[test]
    fn exchange_counts_peer_elements_only() {
        let out = World::run(3, |c| {
            let _ = ring_exchange(c);
            c.telemetry()
        });
        for t in out {
            // One message to the successor: its Vec header plus 3 words;
            // the self buffer never touches the transport.
            let word = std::mem::size_of::<usize>() as u64;
            let header = std::mem::size_of::<Vec<usize>>() as u64;
            assert_eq!((t.sends, t.recvs), (1, 1));
            assert_eq!(t.bytes_sent, header + 3 * word);
        }
    }

    #[test]
    fn faults_inside_exchange_are_transparent() {
        // The fault hooks sit under every collective's sends, so a
        // delayed, a duplicated and a truncated message of the sparse
        // exchange are each recovered and the buffers still arrive.
        for spec in ["comm-delay@0:0", "comm-dup@0:1", "comm-trunc@0:2"] {
            let (out, state) = armed_world(3, spec, 1, ring_exchange);
            let clean = World::run(3, ring_exchange);
            assert_eq!(out, clean, "{spec}");
            let (injected, recovered) = (0..3).fold((0, 0), |(i, r), rank| {
                let c = state.counters_for(rank);
                (i + c.total_injected(), r + c.recovered.iter().sum::<u64>())
            });
            assert_eq!((injected, recovered), (1, 1), "{spec}");
        }
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |c| {
            c.barrier();
            let v = c.all_gather(42);
            let s = c.all_reduce_sum_u64(9);
            let a2a = c.all_to_allv(vec![vec![1, 2, 3]]);
            (v, s, a2a)
        });
        assert_eq!(out[0].0, vec![42]);
        assert_eq!(out[0].1, 9);
        assert_eq!(out[0].2, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn send_to_self() {
        let out = World::run(2, |c| {
            c.send(c.rank(), 5, c.rank() + 100);
            c.recv::<usize>(c.rank(), 5)
        });
        assert_eq!(out, vec![100, 101]);
    }

    #[test]
    fn message_storm_stress() {
        // Randomized many-to-many traffic with mixed tags: every message
        // must arrive exactly once regardless of interleaving.
        let n = 6;
        let per_pair = 40;
        let sums = World::run(n, move |c| {
            let rank = c.rank();
            // Everyone sends `per_pair` tagged integers to everyone.
            for dst in 0..n {
                for k in 0..per_pair {
                    let tag = (k % 5) as Tag;
                    c.send(dst, tag, (rank * 1_000_000 + k) as u64);
                }
            }
            // Receive them all, in per-source order within each tag.
            let mut sum = 0u64;
            for src in 0..n {
                for k in 0..per_pair {
                    let tag = (k % 5) as Tag;
                    sum += c.recv::<u64>(src, tag);
                }
            }
            c.all_reduce(sum, |a, b| a + b)
        });
        let expect: u64 = {
            let per_rank: u64 = (0..per_pair as u64)
                .map(|k| k)
                .sum::<u64>()
                + per_pair as u64 * 0; // offsets added below
            let mut total = 0u64;
            for rank in 0..n as u64 {
                total += (rank * 1_000_000 * per_pair as u64 + per_rank) * n as u64;
            }
            total
        };
        assert!(sums.iter().all(|&s| s == expect), "{sums:?} vs {expect}");
    }

    #[test]
    fn interleaved_collectives_and_p2p() {
        // Collectives must not swallow or reorder user p2p messages.
        let out = World::run(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 9, c.rank() as u64);
            let total = c.all_reduce_sum_u64(1);
            c.barrier();
            let got = c.recv::<u64>(prev, 9);
            let all = c.all_gather(got);
            (total, all)
        });
        for (total, all) in out {
            assert_eq!(total, 4);
            let mut sorted = all.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn panicking_rank_does_not_deadlock_blocked_peers() {
        // Rank 0 dies before sending; rank 1 is blocked in recv waiting
        // for it. The abort broadcast must unblock rank 1 so the world
        // tears down (with a propagated panic) instead of hanging the
        // scoped join forever.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let result = std::panic::catch_unwind(|| {
            World::run(2, |c| {
                if c.rank() == 0 {
                    panic!("simulated rank failure");
                }
                c.recv::<u64>(0, 9)
            })
        });
        std::panic::set_hook(prev);
        assert!(result.is_err(), "world must propagate the rank failure");
    }

    #[test]
    fn panic_tears_down_a_rank_waiting_on_a_live_peer() {
        // Ranks 1 and 2 wait on each other — both alive, neither key
        // ever sent. Rank 0's panic must still reach them: the abort
        // rouses a blocked owner whatever key it waits on.
        let result = quietly(|| {
            std::panic::catch_unwind(|| {
                World::run(3, |c| match c.rank() {
                    0 => panic!("simulated rank failure"),
                    r => c.recv::<u64>(3 - r, 9),
                })
            })
        });
        assert!(result.is_err(), "world must propagate the failure");
    }

    #[test]
    fn telemetry_counters_track_traffic_deterministically() {
        let traffic = |c: &mut Comm| {
            c.barrier();
            let _ = c.all_reduce_sum_u64(1);
            let _ = c.all_to_allv(vec![vec![1u64; 2]; 3]);
            c.telemetry()
        };
        let out = World::run(3, |c| traffic(c));
        for t in &out {
            assert_eq!(t.collective(CollectiveKind::Barrier), 1);
            assert_eq!(t.collective(CollectiveKind::AllReduce), 1);
            assert_eq!(t.collective(CollectiveKind::AllToAllV), 1);
            // all_reduce rides on all_gather = gather + broadcast; the
            // counters record the transport's actual entries.
            assert_eq!(t.collective(CollectiveKind::AllGather), 1);
            assert_eq!(t.collective(CollectiveKind::Gather), 1);
            assert_eq!(t.collective(CollectiveKind::Broadcast), 1);
            assert!(t.sends > 0 && t.recvs > 0);
            // The a2a exchange alone moved 2 u64 elements to each of
            // 2 peers = 32 element bytes, on top of message headers.
            assert!(t.bytes_sent >= 32);
        }
        // Byte-determinism: an identical world reproduces identical
        // counters on every rank.
        let again = World::run(3, |c| traffic(c));
        assert_eq!(out, again);
    }

    /// Per-rank results of `f` under the fault plan `spec`, and the
    /// plan's ledger.
    fn armed_world<T, F>(
        n: usize,
        spec: &str,
        steps: u64,
        f: F,
    ) -> (Vec<T>, Arc<hacc_fault::FaultState>)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let plan = hacc_fault::FaultPlan::parse(spec, 0, steps, n).unwrap();
        let state = Arc::new(hacc_fault::FaultState::new(plan, n));
        let out = World::run(n, |c| {
            c.arm_faults(hacc_fault::FaultProbe::new(Arc::clone(&state), c.rank()));
            f(c)
        });
        (out, state)
    }

    #[test]
    fn duplicated_message_is_delivered_exactly_once() {
        let (out, state) = armed_world(2, "comm-dup@0:0", 1, |c| {
            if c.rank() == 0 {
                c.send(1, 4, 7u64); // duplicated on the wire
                c.send(1, 4, 8u64);
                0
            } else {
                let a = c.recv::<u64>(0, 4);
                // If the surplus copy could match a receive, `b` would be
                // the duplicate of 7 instead of 8.
                let b = c.recv::<u64>(0, 4);
                a * 10 + b
            }
        });
        assert_eq!(out[1], 78, "payloads arrive once, in order");
        assert_eq!(state.counters_for(0).injected(FaultKind::CommDup), 1);
        assert_eq!(state.counters_for(1).recovered(FaultKind::CommDup), 1);
    }

    #[test]
    fn surplus_copy_on_a_collective_tag_is_ledgered() {
        // Collective tags are unique per epoch: after the broadcast
        // matched, nothing is ever received on its tag again, and rank 1
        // never receives anything else either.
        let (out, state) = armed_world(2, "comm-dup@0:0", 1, |c| {
            c.broadcast(0, 5u64)
        });
        assert_eq!(out, vec![5, 5]);
        assert_eq!(state.counters_for(0).injected(FaultKind::CommDup), 1);
        assert_eq!(state.counters_for(1).recovered(FaultKind::CommDup), 1);
    }

    #[test]
    fn truncated_message_is_retransmitted() {
        let (out, state) = armed_world(2, "comm-trunc@0:1", 1, |c| {
            if c.rank() == 1 {
                c.send(0, 9, vec![1.5f64, 2.5]);
                Vec::new()
            } else {
                c.recv::<Vec<f64>>(1, 9)
            }
        });
        assert_eq!(out[0], vec![1.5, 2.5], "retransmission carries payload");
        assert_eq!(state.counters_for(1).injected(FaultKind::CommTrunc), 1);
        assert_eq!(state.counters_for(0).recovered(FaultKind::CommTrunc), 1);
    }

    #[test]
    fn delayed_message_is_released_in_order() {
        let (out, state) = armed_world(2, "comm-delay@0:0", 1, |c| {
            if c.rank() == 0 {
                c.send(1, 2, 10u64); // held by the delay fault
                c.send(1, 2, 20u64); // flushes the held message first
                0
            } else {
                let a = c.recv::<u64>(0, 2);
                let b = c.recv::<u64>(0, 2);
                a * 100 + b
            }
        });
        assert_eq!(out[1], 1020, "FIFO order survives the delay");
        assert_eq!(state.counters_for(0).injected(FaultKind::CommDelay), 1);
        assert_eq!(state.counters_for(0).recovered(FaultKind::CommDelay), 1);
    }

    #[test]
    fn delayed_last_send_is_released_when_the_rank_returns() {
        // The held message is rank 0's last transport operation: nothing
        // later flushes it, so the rank's return must.
        let (out, state) = armed_world(2, "comm-delay@0:0", 1, |c| {
            if c.rank() == 0 {
                c.send(1, 2, 10u64); // held by the delay fault
                0
            } else {
                c.recv::<u64>(0, 2)
            }
        });
        assert_eq!(out[1], 10, "the held message arrives");
        assert_eq!(state.counters_for(0).injected(FaultKind::CommDelay), 1);
        assert_eq!(state.counters_for(0).recovered(FaultKind::CommDelay), 1);
    }

    #[test]
    fn faults_inside_collectives_are_transparent() {
        // The fault hooks live in send_raw/recv_raw, so collective-internal
        // traffic (all_to_allv is the production hot path) is subject to
        // them too — and must still produce correct results.
        let (out, _) = armed_world(3, "comm-dup@0:1,comm-trunc@0:2,comm-delay@0:0", 1, |c| {
            let sends: Vec<Vec<usize>> =
                (0..3).map(|d| vec![c.rank() * 100 + d]).collect();
            let recvd = c.all_to_allv(sends);
            let sum = c.all_reduce_sum_u64(c.rank() as u64);
            (recvd, sum)
        });
        for (r, (recvd, sum)) in out.iter().enumerate() {
            assert_eq!(*sum, 3);
            for (s, buf) in recvd.iter().enumerate() {
                assert_eq!(buf, &vec![s * 100 + r]);
            }
        }
    }

    #[test]
    fn unarmed_comm_has_no_fault_overhead_path() {
        // A world with no probe must behave exactly as before this
        // feature existed: identical counters across identical runs.
        let run = || {
            World::run(2, |c| {
                c.send((c.rank() + 1) % 2, 1, c.rank() as u64);
                let v = c.recv::<u64>((c.rank() + 1) % 2, 1);
                (v, c.telemetry())
            })
        };
        assert_eq!(run(), run());
    }

    /// Run `f` with the global panic hook silenced: sanitizer aborts
    /// unwind internally (and are swallowed), but the hook would still
    /// print them.
    fn quietly<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn sanitized_clean_world_reports_empty() {
        let (results, report) = World::run_sanitized(4, |c| {
            c.barrier();
            let s = c.all_reduce_sum_u64(c.rank() as u64);
            c.send((c.rank() + 1) % c.size(), 3, c.rank() as u64);
            let v = c.recv::<u64>((c.rank() + c.size() - 1) % c.size(), 3);
            s + v
        });
        assert!(results.is_some());
        assert!(report.is_clean(), "{}", report.render_text());
        assert!(report.collectives >= 2, "inner collectives ledger-checked");
    }

    #[test]
    fn sanitized_type_mismatch_is_m1() {
        let (results, report) = quietly(|| {
            World::run_sanitized(2, |c| {
                if c.rank() == 0 {
                    c.send(1, 4, 7u32);
                    0u64
                } else {
                    c.recv::<u64>(0, 4)
                }
            })
        });
        assert!(results.is_none(), "mismatch aborts the world");
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, hacc_san::Rule::M1);
        assert!(report.findings[0].message.contains("u32"));
        assert!(report.findings[0].message.contains("u64"));
    }

    #[test]
    fn sanitized_mismatched_collective_size_is_m1() {
        // Same tag and matching recv, but the payload width disagrees:
        // the retransmit-level size check (satellite of the collective
        // matcher) flags it at match time, not at downcast.
        let (results, report) = quietly(|| {
            World::run_sanitized(2, |c| {
                if c.rank() == 0 {
                    c.send(1, 8, [0u8; 16]);
                } else {
                    let _ = c.recv::<[u8; 8]>(0, 8);
                }
            })
        });
        assert!(results.is_none());
        assert_eq!(report.findings[0].rule, hacc_san::Rule::M1);
        assert!(report.findings[0].message.contains("16 B"));
    }

    #[test]
    fn sanitized_skipped_barrier_is_w1_deadlock() {
        // Rank 0 skips the barrier (rank-dependent control flow) and
        // blocks on a message that is never sent; rank 1 blocks in the
        // barrier waiting for rank 0. The wait-graph detector must dump
        // the cycle and abort instead of hanging the suite.
        let (results, report) = quietly(|| {
            World::run_sanitized(2, |c| {
                if c.rank() == 0 {
                    c.recv::<u64>(1, 9)
                } else {
                    c.barrier();
                    0
                }
            })
        });
        assert!(results.is_none(), "deadlock aborts the world");
        let w1: Vec<_> = report
            .findings
            .iter()
            .filter(|d| d.rule == hacc_san::Rule::W1)
            .collect();
        assert_eq!(w1.len(), 1, "{}", report.render_text());
        assert!(w1[0].message.contains("rank 0 waits on rank 1"));
        assert!(w1[0].message.contains("rank 1 waits on rank 0"));
        assert!(w1[0].message.contains("recv(src=1, tag=9)"));
    }

    #[test]
    fn sanitized_chaos_faults_do_not_false_positive() {
        // Injected comm faults (delay/dup/trunc) are recovered-by-design
        // transport events, not findings: a sanitized faulted world must
        // stay clean and correct.
        use std::sync::Arc as StdArc;
        let plan = hacc_fault::FaultPlan::parse(
            "comm-dup@0:1,comm-trunc@0:2,comm-delay@0:0",
            0,
            1,
            3,
        )
        .unwrap();
        let state = StdArc::new(hacc_fault::FaultState::new(plan, 3));
        let st = StdArc::clone(&state);
        let (results, report) = World::run_sanitized(3, move |c| {
            c.arm_faults(hacc_fault::FaultProbe::new(StdArc::clone(&st), c.rank()));
            let sends: Vec<Vec<usize>> =
                (0..3).map(|d| vec![c.rank() * 100 + d]).collect();
            let recvd = c.all_to_allv(sends);
            let sum = c.all_reduce_sum_u64(c.rank() as u64);
            (recvd, sum)
        });
        let results = results.expect("faulted world completes");
        for (r, (recvd, sum)) in results.iter().enumerate() {
            assert_eq!(*sum, 3);
            for (s, buf) in recvd.iter().enumerate() {
                assert_eq!(buf, &vec![s * 100 + r]);
            }
        }
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn large_payload_transfer() {
        // Vec payloads move by ownership through the mailbox: a
        // multi-megabyte exchange must arrive intact.
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                let big: Vec<f64> = (0..500_000).map(|i| i as f64).collect();
                c.send(1, 3, big);
                0.0
            } else {
                let big = c.recv::<Vec<f64>>(0, 3);
                big[499_999]
            }
        });
        assert_eq!(out[1], 499_999.0);
    }
}
