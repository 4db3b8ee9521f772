//! A sanitizer session: one `World::run`'s worth of dynamic checking.
//!
//! The session owns three checkers, all exact because every "rank" is a
//! thread of this process sharing one session:
//!
//! * **Region ledger** — rank privacy over annotated regions: each
//!   region records which ranks touched it, whether each wrote it, and
//!   its lowest call site. A region one rank wrote and another rank
//!   touched is one R1 finding at [`SanSession::finish`]. No ordering is
//!   consulted: ranks share no memory, so a region a rank writes belongs
//!   to that rank alone, however the accesses were sequenced.
//! * **Collective ledger** — MUST-style matching: the i-th collective
//!   of every rank must carry the same (call site, kind, element type,
//!   element size, root) signature. The first arriver at position i
//!   records the signature; later ranks compare (Q1).
//! * **Wait graph** — every blocking receive declares what it waits on.
//!   A rank's only blocking point is a scheduler park, so when the
//!   scheduler proves the world quiescent (every live rank parked) the
//!   rank holding the proof walks the graph once and the chain it finds
//!   — a cycle, or one ending at a rank that exited or is parked outside
//!   the transport — is the deadlock (W1), reported instead of hanging
//!   the suite. No clock is read, so `--chaos` comm-delay faults — which
//!   hold messages until the sender's next transport op, never across a
//!   blocked sender — cannot false-positive.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::Location;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use hacc_telem::diag::normalize;
use hacc_telem::{Diagnostic, Rule};

use crate::report::SanReport;
use crate::RegionId;

/// What the ranks did to one region.
struct RegionState {
    name: &'static str,
    /// Per touching rank: whether it wrote the region.
    wrote: BTreeMap<usize, bool>,
    /// The lowest `(file, line)` of any access.
    site: (&'static str, u32),
}

impl RegionState {
    /// The R1 finding, when one rank wrote the region and another
    /// touched it. The text depends only on the set of accesses, never
    /// on their order.
    fn finding(&self) -> Option<Diagnostic> {
        let ranks = |writers_only: bool| {
            self.wrote
                .iter()
                .filter(|&(_, &w)| w || !writers_only)
                .map(|(r, _)| r.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let writers = ranks(true);
        if writers.is_empty() || self.wrote.len() < 2 {
            return None;
        }
        let (file, line) = self.site;
        Some(Diagnostic {
            witness: Vec::new(),
            file: file.to_string(),
            line,
            rule: Rule::R1,
            message: format!(
                "region `{}` is not rank-private: written by rank(s) {writers} and touched by ranks {}",
                self.name,
                ranks(false)
            ),
        })
    }
}

struct CollSlot {
    kind: &'static str,
    elem: &'static str,
    bytes: usize,
    root: usize,
    file: &'static str,
    line: u32,
    first_rank: usize,
}

impl CollSlot {
    fn describe(&self) -> String {
        format!(
            "{}<{}> ({} B/elem, root {}) at {}:{}",
            self.kind, self.elem, self.bytes, self.root, self.file, self.line
        )
    }
}

struct WaitOn {
    src: usize,
    detail: String,
    file: &'static str,
    line: u32,
}

#[derive(Default)]
struct RankWait {
    waiting: Option<WaitOn>,
    exited: bool,
}

struct SessionState {
    regions: BTreeMap<u64, RegionState>,
    findings: Vec<Diagnostic>,
    finding_keys: BTreeSet<String>,
    coll_slots: Vec<CollSlot>,
    coll_next: Vec<usize>,
    waits: Vec<RankWait>,
    accesses: u64,
}

/// One world's sanitizer context. Created by
/// `hacc_ranks::World::run_sanitized`, shared by every rank thread.
pub struct SanSession {
    ranks: usize,
    state: Mutex<SessionState>,
    aborted: AtomicBool,
}

impl SanSession {
    /// A fresh session for a world of `ranks` ranks.
    pub fn new(ranks: usize) -> Arc<Self> {
        Arc::new(Self {
            ranks,
            state: Mutex::new(SessionState {
                regions: BTreeMap::new(),
                findings: Vec::new(),
                finding_keys: BTreeSet::new(),
                coll_slots: Vec::new(),
                coll_next: vec![0; ranks],
                waits: (0..ranks).map(|_| RankWait::default()).collect(),
                accesses: 0,
            }),
            aborted: AtomicBool::new(false),
        })
    }

    /// World size this session checks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SessionState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether a sanitizer-initiated abort is in flight (deadlock or
    /// mismatch panic). Rank teardown uses this to tell sanitizer
    /// aborts from genuine user panics.
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::SeqCst)
    }

    /// Mark the session aborted; returns true for the first caller so
    /// exactly one rank owns the teardown.
    pub fn set_aborted(&self) -> bool {
        !self.aborted.swap(true, Ordering::SeqCst)
    }

    /// Record a finding, deduplicated by `key`.
    pub fn report(&self, rule: Rule, file: &str, line: u32, message: String, key: String) {
        let mut st = self.lock();
        if st.finding_keys.insert(key) {
            st.findings.push(Diagnostic { witness: Vec::new(),
                file: file.to_string(),
                line,
                rule,
                message,
            });
        }
    }

    // ---------------------------------------------------------- regions --

    pub(crate) fn access(
        &self,
        region: RegionId,
        write: bool,
        rank: usize,
        loc: &'static Location<'static>,
    ) {
        let site = (loc.file(), loc.line());
        let mut st = self.lock();
        st.accesses += 1;
        let rs = st.regions.entry(region.id).or_insert(RegionState {
            name: region.name,
            wrote: BTreeMap::new(),
            site,
        });
        *rs.wrote.entry(rank).or_default() |= write;
        rs.site = rs.site.min(site);
    }

    // ------------------------------------------------------ collectives --

    /// Record that `rank` entered a collective with the given signature;
    /// flags sequence/signature divergence against earlier arrivers.
    pub fn record_collective(
        &self,
        rank: usize,
        kind: &'static str,
        elem: &'static str,
        bytes: usize,
        root: usize,
        loc: &'static Location<'static>,
    ) {
        let mut st = self.lock();
        let idx = st.coll_next[rank];
        st.coll_next[rank] += 1;
        if idx == st.coll_slots.len() {
            st.coll_slots.push(CollSlot {
                kind,
                elem,
                bytes,
                root,
                file: loc.file(),
                line: loc.line(),
                first_rank: rank,
            });
            return;
        }
        let slot = &st.coll_slots[idx];
        let matches = slot.kind == kind
            && slot.elem == elem
            && slot.bytes == bytes
            && slot.root == root
            && slot.file == loc.file()
            && slot.line == loc.line();
        if !matches {
            let msg = format!(
                "collective sequence diverged at position {idx}: rank {} \
                 entered {} but rank {rank} entered {}<{}> ({} B/elem, \
                 root {}) at {}:{}",
                slot.first_rank,
                slot.describe(),
                kind,
                elem,
                bytes,
                root,
                loc.file(),
                loc.line()
            );
            let (file, line) = (loc.file(), loc.line());
            drop(st);
            self.report(Rule::Q1, file, line, msg, format!("Q1:seq:{idx}:{rank}"));
        }
    }

    // ------------------------------------------------------- wait graph --

    /// Declare that `rank` is about to block waiting for a message from
    /// `src`; `detail` is the human description used in deadlock dumps.
    pub fn begin_wait(
        &self,
        rank: usize,
        src: usize,
        detail: String,
        loc: &'static Location<'static>,
    ) {
        self.lock().waits[rank].waiting = Some(WaitOn {
            src,
            detail,
            file: loc.file(),
            line: loc.line(),
        });
    }

    /// The wait was satisfied.
    pub fn end_wait(&self, rank: usize) {
        self.lock().waits[rank].waiting = None;
    }

    /// The rank's closure returned; it will never send again.
    pub fn rank_exited(&self, rank: usize) {
        let mut st = self.lock();
        st.waits[rank].exited = true;
        st.waits[rank].waiting = None;
    }

    /// `rank`'s park proved the world quiescent — every live rank is
    /// parked, none runnable — so the wait chain starting at `rank` can
    /// never resolve: record it as one W1 finding and mark the session
    /// aborted, so the caller's teardown is told apart from a user panic.
    ///
    /// The chain ends in a cycle, at a rank that exited, or at a rank
    /// with no declared wait, which under the proof is parked outside
    /// the transport.
    pub fn report_deadlock(&self, rank: usize) {
        let st = self.lock();
        let mut chain = vec![rank];
        while let Some(w) = &st.waits[chain[chain.len() - 1]].waiting {
            if chain.contains(&w.src) {
                break;
            }
            chain.push(w.src);
        }
        let end = &st.waits[chain[chain.len() - 1]];
        let what = match (&end.waiting, end.exited) {
            (Some(_), _) => "deadlock cycle",
            (None, true) => "wait on an exited rank",
            (None, false) => "wait-chain stall",
        };
        // One finding describing the whole chain, with per-rank call
        // sites, anchored at the lowest-ranked member so the text is
        // independent of which rank held the proof.
        let start = (0..chain.len()).min_by_key(|&i| chain[i]).unwrap_or(0);
        chain.rotate_left(start);
        let parts: Vec<String> = chain
            .iter()
            .map(|&r| match &st.waits[r].waiting {
                Some(w) => format!(
                    "rank {r} waits on rank {} ({}) at {}:{}",
                    w.src, w.detail, w.file, w.line
                ),
                None if st.waits[r].exited => format!("rank {r} exited"),
                None => format!("rank {r} is parked outside the transport"),
            })
            .collect();
        let (file, line) = match &st.waits[chain[0]].waiting {
            Some(w) => (w.file, w.line),
            None => ("crates/ranks/src/comm.rs", 0),
        };
        chain.sort_unstable();
        drop(st);
        self.report(
            Rule::W1,
            file,
            line,
            format!("{what} in a quiescent world: {}", parts.join("; ")),
            format!("W1:{chain:?}"),
        );
        self.set_aborted();
    }

    // ----------------------------------------------------------- finish --

    /// End-of-world checks (region privacy, collective counts) and
    /// report assembly. Call after every rank thread has been joined.
    pub fn finish(&self) -> SanReport {
        let mut st = self.lock();
        let shared: Vec<_> = st.regions.values().filter_map(RegionState::finding).collect();
        st.findings.extend(shared);
        // Collective-count divergence: every rank must have executed the
        // same number of collectives (signature equality at each position
        // was already checked on entry).
        let min = st.coll_next.iter().copied().min().unwrap_or(0);
        let max = st.coll_next.iter().copied().max().unwrap_or(0);
        if min != max {
            let lo = st.coll_next.iter().position(|&n| n == min).unwrap();
            let hi = st.coll_next.iter().position(|&n| n == max).unwrap();
            let (file, line, describe) = match st.coll_slots.get(min) {
                Some(s) => (s.file.to_string(), s.line, s.describe()),
                None => ("crates/ranks/src/comm.rs".to_string(), 0, String::new()),
            };
            let msg = format!(
                "collective count diverged: rank {lo} executed {min} \
                 collective(s) but rank {hi} executed {max}; first \
                 unmatched: {describe}"
            );
            if st.finding_keys.insert("Q1:count".to_string()) {
                st.findings.push(Diagnostic { witness: Vec::new(),
                    file,
                    line,
                    rule: Rule::Q1,
                    message: msg,
                });
            }
        }
        SanReport {
            ranks: self.ranks,
            findings: normalize(std::mem::take(&mut st.findings)),
            collectives: st.coll_slots.len() as u64,
            regions: st.regions.len() as u64,
            accesses: st.accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region;

    fn loc() -> &'static Location<'static> {
        Location::caller()
    }

    #[test]
    fn matching_collectives_are_clean() {
        let s = SanSession::new(2);
        let site = loc();
        for rank in 0..2 {
            s.record_collective(rank, "barrier", "()", 0, 0, site);
            s.record_collective(rank, "all_gather", "u64", 8, 0, site);
        }
        let r = s.finish();
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.collectives, 2);
    }

    #[test]
    fn signature_divergence_is_q1() {
        let s = SanSession::new(2);
        let site = loc();
        s.record_collective(0, "barrier", "()", 0, 0, site);
        s.record_collective(1, "broadcast", "u32", 4, 0, site);
        let r = s.finish();
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, Rule::Q1);
        assert!(r.findings[0].message.contains("barrier"));
        assert!(r.findings[0].message.contains("broadcast"));
    }

    #[test]
    fn count_divergence_is_q1() {
        let s = SanSession::new(2);
        let site = loc();
        s.record_collective(0, "barrier", "()", 0, 0, site);
        let r = s.finish();
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, Rule::Q1);
        assert!(r.findings[0].message.contains("count diverged"));
    }

    /// The one R1 finding of a two-rank session in which rank 0 writes
    /// a region at one call site and rank 1 reads it at a lower one, the
    /// rank `first` touching it first; and that lower line.
    fn shared_write_seen_first_by(first: usize) -> (Diagnostic, u32) {
        let s = SanSession::new(2);
        let reg = region("fixture");
        let read_site = loc();
        let write_site = loc();
        let mut touch = [(0, true, write_site), (1, false, read_site)];
        touch.rotate_left(first);
        for (rank, write, site) in touch {
            s.access(reg, write, rank, site);
        }
        let mut r = s.finish();
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!((r.regions, r.accesses), (1, 2));
        (r.findings.remove(0), read_site.line())
    }

    #[test]
    fn r1_text_is_independent_of_the_first_rank() {
        let [(a, low), (b, _)] = [0, 1].map(shared_write_seen_first_by);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.rule, Rule::R1);
        assert_eq!(
            a.message,
            "region `fixture` is not rank-private: written by rank(s) 0 and touched by ranks 0, 1"
        );
        assert_eq!(a.line, low, "anchored at the lowest call site");
    }

    #[test]
    fn reads_by_many_ranks_are_clean() {
        let s = SanSession::new(4);
        let reg = region("fixture");
        for rank in 0..4 {
            s.access(reg, false, rank, loc());
        }
        let r = s.finish();
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!((r.regions, r.accesses), (1, 4));
    }

    /// The one W1 finding of a session whose `rank` held the proof.
    fn deadlock_seen_by(s: &SanSession, rank: usize) -> Diagnostic {
        s.report_deadlock(rank);
        assert!(s.is_aborted());
        let mut r = s.finish();
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, Rule::W1);
        r.findings.remove(0)
    }

    #[test]
    fn deadlock_cycle_is_reported_by_the_first_call() {
        // The text is anchored at the lowest rank of the chain whichever
        // rank held the proof.
        let at = loc();
        let messages: Vec<String> = [0, 1]
            .map(|holder| {
                let s = SanSession::new(2);
                s.begin_wait(0, 1, "recv(src=1, tag=9)".into(), at);
                s.begin_wait(1, 0, "recv(src=0, tag=7)".into(), at);
                deadlock_seen_by(&s, holder).message
            })
            .into();
        assert!(messages[0].starts_with(
            "deadlock cycle in a quiescent world: rank 0 waits on rank 1 \
             (recv(src=1, tag=9))"
        ));
        assert!(messages[0].contains("; rank 1 waits on rank 0 (recv(src=0, tag=7))"));
        assert_eq!(messages[0], messages[1]);
    }

    #[test]
    fn wait_on_exited_rank_is_a_stall() {
        let s = SanSession::new(2);
        s.rank_exited(0);
        s.begin_wait(1, 0, "recv(src=0, tag=3)".into(), loc());
        let d = deadlock_seen_by(&s, 1);
        assert!(
            d.message.starts_with(
                "wait on an exited rank in a quiescent world: rank 0 exited; \
                 rank 1 waits on rank 0 (recv(src=0, tag=3))"
            ),
            "{}",
            d.message
        );
    }

    #[test]
    fn chain_ending_outside_the_transport_is_a_stall() {
        // Rank 2 waits on rank 1, which waits on rank 0; rank 0 declared
        // no wait and has not exited, so under the quiescence proof it is
        // parked at a non-transport blocking point.
        let s = SanSession::new(3);
        s.begin_wait(2, 1, "recv(src=1, tag=4)".into(), loc());
        s.begin_wait(1, 0, "recv(src=0, tag=4)".into(), loc());
        let d = deadlock_seen_by(&s, 2);
        assert!(
            d.message.starts_with(
                "wait-chain stall in a quiescent world: rank 0 is parked outside \
                 the transport; rank 2 waits on rank 1"
            ),
            "{}",
            d.message
        );
        assert_eq!(d.line, 0, "rank 0 has no wait site to anchor at");
    }
}
