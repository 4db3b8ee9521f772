//! The counter taxonomy: communication, I/O tiers, and GPU kernels.
//!
//! All counters are integers incremented on logical events, so their
//! values are deterministic for a fixed simulation — they belong in
//! golden artifacts and can be asserted on by regression tests.

/// The collective operations `hacc_ranks::Comm` implements, in report
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CollectiveKind {
    /// Dissemination barrier.
    Barrier = 0,
    /// One-to-all broadcast.
    Broadcast = 1,
    /// All-to-one gather.
    Gather = 2,
    /// All-to-all gather.
    AllGather = 3,
    /// Rank-ordered reduction to every rank.
    AllReduce = 4,
    /// Exclusive prefix sum.
    Exscan = 5,
    /// Variable-count all-to-all exchange.
    AllToAllV = 6,
    /// Variable-count exchange with a listed set of peers (the
    /// neighbourhood all-to-all).
    Exchange = 7,
}

/// Every collective kind, for iteration.
pub const COLLECTIVE_KINDS: [CollectiveKind; 8] = [
    CollectiveKind::Barrier,
    CollectiveKind::Broadcast,
    CollectiveKind::Gather,
    CollectiveKind::AllGather,
    CollectiveKind::AllReduce,
    CollectiveKind::Exscan,
    CollectiveKind::AllToAllV,
    CollectiveKind::Exchange,
];

impl CollectiveKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            CollectiveKind::Barrier => "barrier",
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::Gather => "gather",
            CollectiveKind::AllGather => "all_gather",
            CollectiveKind::AllReduce => "all_reduce",
            CollectiveKind::Exscan => "exscan",
            CollectiveKind::AllToAllV => "all_to_allv",
            CollectiveKind::Exchange => "exchange",
        }
    }
}

/// Per-rank communication counters.
///
/// Byte counts are *payload-type* bytes (`size_of::<T>()` per message,
/// element-counted for the all-to-all-v and exchange buffers) — a
/// deterministic proxy for wire traffic, since the thread-backed transport
/// moves ownership rather than serializing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommCounters {
    /// Point-to-point + collective-internal messages sent.
    pub sends: u64,
    /// Messages received.
    pub recvs: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Collective entries per kind (indexed by [`CollectiveKind`]).
    pub collectives: [u64; 8],
}

impl CommCounters {
    /// Record one message sent with `bytes` of payload.
    pub fn record_send(&mut self, bytes: u64) {
        self.sends += 1;
        self.bytes_sent += bytes;
    }

    /// Record one message received.
    pub fn record_recv(&mut self) {
        self.recvs += 1;
    }

    /// Record entry into a collective.
    pub fn record_collective(&mut self, kind: CollectiveKind) {
        self.collectives[kind as usize] += 1;
    }

    /// Calls of one collective kind.
    pub fn collective(&self, kind: CollectiveKind) -> u64 {
        self.collectives[kind as usize]
    }

    /// Total collective entries across kinds.
    pub fn total_collectives(&self) -> u64 {
        self.collectives.iter().sum()
    }

    /// Elementwise merge (e.g. across ranks).
    pub fn merge(&mut self, o: &CommCounters) {
        self.sends += o.sends;
        self.recvs += o.recvs;
        self.bytes_sent += o.bytes_sent;
        for (a, b) in self.collectives.iter_mut().zip(&o.collectives) {
            *a += b;
        }
    }
}

/// Per-rank tiered-I/O counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Bytes written synchronously to the node-local tier (NVMe).
    pub nvme_bytes: u64,
    /// Bytes bled asynchronously to the PFS tier.
    pub pfs_bytes: u64,
    /// Files written to the local tier (checkpoints + science outputs).
    pub nvme_writes: u64,
    /// Files that completed the bleed to the PFS.
    pub files_bled: u64,
    /// Checkpoints pruned from the PFS window.
    pub files_pruned: u64,
    /// Bleed-backlog stalls taken on the blocking path.
    pub stalls: u64,
    /// Faults injected / observed (fault-tolerance harness).
    pub faults: u64,
}

impl IoCounters {
    /// Elementwise merge (e.g. across ranks).
    pub fn merge(&mut self, o: &IoCounters) {
        self.nvme_bytes += o.nvme_bytes;
        self.pfs_bytes += o.pfs_bytes;
        self.nvme_writes += o.nvme_writes;
        self.files_bled += o.files_bled;
        self.files_pruned += o.files_pruned;
        self.stalls += o.stalls;
        self.faults += o.faults;
    }
}

/// The fault-injection sites of the chaos harness (`hacc-fault`), in
/// report order. Each site names one class of injected failure threaded
/// through the real execution path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultKind {
    /// A rank panics mid-step (fatal; recovered by supervisor rollback).
    RankPanic = 0,
    /// A point-to-point message is held back and delivered late.
    CommDelay = 1,
    /// A point-to-point message arrives twice (receiver deduplicates).
    CommDup = 2,
    /// A message arrives truncated (receiver drops it; sender retransmits).
    CommTrunc = 3,
    /// A checkpoint write is torn mid-file (detected by CRC on resume).
    CkptTorn = 4,
    /// A checkpoint lands with a corrupted CRC (detected on resume).
    CkptCrc = 5,
    /// A transient NVMe write error (retried with modeled backoff).
    NvmeErr = 6,
    /// A GPU kernel launch fails (relaunched; failed work discarded).
    GpuLaunch = 7,
}

/// Every fault kind, for iteration.
pub const FAULT_KINDS: [FaultKind; 8] = [
    FaultKind::RankPanic,
    FaultKind::CommDelay,
    FaultKind::CommDup,
    FaultKind::CommTrunc,
    FaultKind::CkptTorn,
    FaultKind::CkptCrc,
    FaultKind::NvmeErr,
    FaultKind::GpuLaunch,
];

impl FaultKind {
    /// Display name (also the row label in the golden report).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::RankPanic => "rank_panic",
            FaultKind::CommDelay => "comm_delay",
            FaultKind::CommDup => "comm_dup",
            FaultKind::CommTrunc => "comm_trunc",
            FaultKind::CkptTorn => "ckpt_torn",
            FaultKind::CkptCrc => "ckpt_crc",
            FaultKind::NvmeErr => "nvme_err",
            FaultKind::GpuLaunch => "gpu_launch",
        }
    }
}

/// Per-rank fault-injection counters: how many faults of each kind were
/// injected, and how many were recovered *in place* (retry, dedup, late
/// delivery). Fatal faults (`rank_panic`, `ckpt_torn`, `ckpt_crc`) are
/// recovered by supervisor rollback instead, which the report records as
/// `rollbacks` in its `[meta]` section — their in-place count stays 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Injections per kind (indexed by [`FaultKind`]).
    pub injected: [u64; 8],
    /// In-place recoveries per kind.
    pub recovered: [u64; 8],
}

impl FaultCounters {
    /// Record one injected fault.
    pub fn record_injected(&mut self, kind: FaultKind) {
        self.injected[kind as usize] += 1;
    }

    /// Record one in-place recovery.
    pub fn record_recovered(&mut self, kind: FaultKind) {
        self.recovered[kind as usize] += 1;
    }

    /// Injections of one kind.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind as usize]
    }

    /// In-place recoveries of one kind.
    pub fn recovered(&self, kind: FaultKind) -> u64 {
        self.recovered[kind as usize]
    }

    /// Total injections across kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Elementwise merge (e.g. across ranks).
    pub fn merge(&mut self, o: &FaultCounters) {
        for (a, b) in self.injected.iter_mut().zip(&o.injected) {
            *a += b;
        }
        for (a, b) in self.recovered.iter_mut().zip(&o.recovered) {
            *a += b;
        }
    }
}

/// One per-kernel GPU profile row (launches/FLOPs/bytes via the
/// `hacc_gpusim::ProfileTable`), already merged across ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuKernelRow {
    /// Kernel name.
    pub name: String,
    /// Kernel launches.
    pub launches: u64,
    /// Useful FLOPs.
    pub flops: u64,
    /// Global-memory bytes.
    pub bytes: u64,
    /// Pair interactions evaluated.
    pub pairs: u64,
    /// Pair interactions removed by lane compaction before the tiles
    /// (`pairs + culled_pairs` is the list-sized count).
    pub culled_pairs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_counters_accumulate_and_merge() {
        let mut a = CommCounters::default();
        a.record_send(100);
        a.record_send(28);
        a.record_recv();
        a.record_collective(CollectiveKind::AllReduce);
        a.record_collective(CollectiveKind::AllReduce);
        a.record_collective(CollectiveKind::Barrier);
        assert_eq!(a.sends, 2);
        assert_eq!(a.bytes_sent, 128);
        assert_eq!(a.collective(CollectiveKind::AllReduce), 2);
        assert_eq!(a.total_collectives(), 3);

        let mut b = CommCounters::default();
        b.record_collective(CollectiveKind::Barrier);
        b.record_send(2);
        b.merge(&a);
        assert_eq!(b.sends, 3);
        assert_eq!(b.collective(CollectiveKind::Barrier), 2);
    }

    #[test]
    fn collective_kind_names_are_distinct() {
        let names: std::collections::BTreeSet<&str> =
            COLLECTIVE_KINDS.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), COLLECTIVE_KINDS.len());
    }

    #[test]
    fn fault_kind_names_are_distinct() {
        let names: std::collections::BTreeSet<&str> =
            FAULT_KINDS.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), FAULT_KINDS.len());
    }

    #[test]
    fn fault_counters_accumulate_and_merge() {
        let mut a = FaultCounters::default();
        a.record_injected(FaultKind::CommDup);
        a.record_injected(FaultKind::CommDup);
        a.record_recovered(FaultKind::CommDup);
        a.record_injected(FaultKind::RankPanic);
        assert_eq!(a.injected(FaultKind::CommDup), 2);
        assert_eq!(a.recovered(FaultKind::CommDup), 1);
        assert_eq!(a.total_injected(), 3);

        let mut b = FaultCounters::default();
        b.record_injected(FaultKind::RankPanic);
        b.merge(&a);
        assert_eq!(b.injected(FaultKind::RankPanic), 2);
        assert_eq!(b.recovered(FaultKind::CommDup), 1);
    }

    #[test]
    fn io_counters_merge() {
        let mut a = IoCounters {
            nvme_bytes: 10,
            pfs_bytes: 8,
            nvme_writes: 1,
            ..Default::default()
        };
        let b = IoCounters {
            nvme_bytes: 5,
            faults: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.nvme_bytes, 15);
        assert_eq!(a.faults, 2);
        assert_eq!(a.nvme_writes, 1);
    }
}
