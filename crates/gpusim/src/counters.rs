//! Hardware-style counters with the paper's FLOP accounting convention.

/// Floating-point operation counts of one evaluation of a kernel stage
/// (either a per-particle partial or a per-pair combine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairFlops {
    /// Plain additions/subtractions.
    pub adds: u64,
    /// Plain multiplications/divisions.
    pub muls: u64,
    /// Fused multiply-adds (counted as two ops, as rocprof/ncu do).
    pub fmas: u64,
    /// Transcendentals — sqrt, exp, rsqrt... (counted as one op).
    pub trans: u64,
}

impl PairFlops {
    /// Total FLOPs with FMA = 2 and transcendental = 1 (Section V-B).
    pub fn total(&self) -> u64 {
        self.adds + self.muls + 2 * self.fmas + self.trans
    }

    /// Scale all counts by `n` evaluations.
    pub fn times(&self, n: u64) -> PairFlops {
        PairFlops {
            adds: self.adds * n,
            muls: self.muls * n,
            fmas: self.fmas * n,
            trans: self.trans * n,
        }
    }
}

/// Accumulated counters for a kernel launch (the software analog of a
/// rocprof/ncu profile).
#[derive(Debug, Clone, Default)]
pub struct KernelCounters {
    /// Kernel launches accumulated into this record (one per top-level
    /// solver invocation of the kernel).
    pub launches: u64,
    /// Useful floating-point ops (paper convention totals).
    pub flops: u64,
    /// FLOP slots wasted by masked lanes in partially filled warps — these
    /// consume issue bandwidth but do no useful work.
    pub masked_lane_flops: u64,
    /// f32 words read from global memory.
    pub global_reads: u64,
    /// f32 words written to global memory (including atomics' payloads).
    pub global_writes: u64,
    /// Warp-shuffle word exchanges.
    pub shuffles: u64,
    /// Global atomic operations.
    pub atomics: u64,
    /// High-water per-lane register usage across the launch.
    pub max_registers: u64,
    /// Warps launched.
    pub warps: u64,
    /// Pair interactions evaluated.
    pub pairs: u64,
    /// Pair interactions a [`crate::sweep`] removed from its leaf pairs
    /// before the tile loop (lane compaction); see [`Self::list_pairs`].
    pub culled_pairs: u64,
    /// Failed launches that were retried (fault injection); the failed
    /// attempts' work is discarded and not otherwise counted here.
    pub relaunches: u64,
}

impl KernelCounters {
    /// Merge another launch's counters into this one.
    pub fn merge(&mut self, o: &KernelCounters) {
        self.launches += o.launches;
        self.flops += o.flops;
        self.masked_lane_flops += o.masked_lane_flops;
        self.global_reads += o.global_reads;
        self.global_writes += o.global_writes;
        self.shuffles += o.shuffles;
        self.atomics += o.atomics;
        self.max_registers = self.max_registers.max(o.max_registers);
        self.warps += o.warps;
        self.pairs += o.pairs;
        self.culled_pairs += o.culled_pairs;
        self.relaunches += o.relaunches;
    }

    /// The list-sized pair count: what the tiles evaluated plus what lane
    /// compaction removed before them — the sum of `ni * nj` over the
    /// swept interaction list, whatever the sweep culled.
    pub fn list_pairs(&self) -> u64 {
        self.pairs + self.culled_pairs
    }

    /// Total global-memory traffic in bytes (f32 words).
    pub fn global_bytes(&self) -> u64 {
        4 * (self.global_reads + self.global_writes)
    }

    /// Issue-slot FLOPs including masked lanes — what the schedulers had
    /// to issue, used as the compute-time basis in the timing model.
    pub fn issued_flops(&self) -> u64 {
        self.flops + self.masked_lane_flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_counts_double() {
        let f = PairFlops {
            adds: 1,
            muls: 2,
            fmas: 3,
            trans: 4,
        };
        assert_eq!(f.total(), 1 + 2 + 6 + 4);
    }

    #[test]
    fn times_scales_all_fields() {
        let f = PairFlops {
            adds: 1,
            muls: 1,
            fmas: 1,
            trans: 1,
        };
        assert_eq!(f.times(5).total(), 5 * f.total());
    }

    #[test]
    fn merge_takes_register_max() {
        let mut a = KernelCounters {
            max_registers: 40,
            flops: 10,
            ..Default::default()
        };
        let b = KernelCounters {
            max_registers: 90,
            flops: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.max_registers, 90);
        assert_eq!(a.flops, 15);
    }

    #[test]
    fn bytes_are_words_times_four() {
        let c = KernelCounters {
            global_reads: 10,
            global_writes: 6,
            ..Default::default()
        };
        assert_eq!(c.global_bytes(), 64);
    }
}
