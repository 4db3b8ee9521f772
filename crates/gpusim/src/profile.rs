//! Per-kernel profile aggregation — the software analog of a
//! rocprof/ncu profile over the ~50 short-range kernels.

use crate::counters::KernelCounters;
use crate::model::ExecutionModel;
use std::collections::BTreeMap;

/// A named-kernel profile table.
#[derive(Debug, Clone, Default)]
pub struct ProfileTable {
    entries: BTreeMap<String, KernelCounters>,
}

/// One rendered profile row.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Kernel name.
    pub name: String,
    /// Kernel launches.
    pub launches: u64,
    /// Useful FLOPs.
    pub flops: u64,
    /// Pair interactions evaluated.
    pub pairs: u64,
    /// Pair interactions removed by lane compaction before the tiles.
    pub culled_pairs: u64,
    /// Global-memory bytes.
    pub bytes: u64,
    /// Modeled kernel seconds on the profiled device.
    pub time_s: f64,
    /// Modeled device utilization.
    pub utilization: f64,
    /// Share of the table's total modeled time.
    pub time_share: f64,
}

impl ProfileTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate a launch's counters under `name`.
    pub fn record(&mut self, name: &str, counters: &KernelCounters) {
        self.entries
            .entry(name.to_string())
            .or_default()
            .merge(counters);
    }

    /// Merge another table (e.g. from another rank).
    pub fn merge(&mut self, other: &ProfileTable) {
        for (name, c) in &other.entries {
            self.entries.entry(name.clone()).or_default().merge(c);
        }
    }

    /// Number of distinct kernels recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters of one kernel.
    pub fn get(&self, name: &str) -> Option<&KernelCounters> {
        self.entries.get(name)
    }

    /// Render rows sorted by modeled time (descending) under a device
    /// model — what a rocprof "top kernels" view shows.
    pub fn rows(&self, model: &ExecutionModel) -> Vec<ProfileRow> {
        let mut rows: Vec<ProfileRow> = self
            .entries
            .iter()
            .map(|(name, c)| {
                let t = model.kernel_time_s(c);
                ProfileRow {
                    name: name.clone(),
                    launches: c.launches,
                    flops: c.flops,
                    pairs: c.pairs,
                    culled_pairs: c.culled_pairs,
                    bytes: c.global_bytes(),
                    time_s: t,
                    utilization: model.utilization(c),
                    time_share: 0.0,
                }
            })
            .collect();
        let total: f64 = rows.iter().map(|r| r.time_s).sum();
        for r in &mut rows {
            r.time_share = if total > 0.0 { r.time_s / total } else { 0.0 };
        }
        rows.sort_by(|a, b| b.time_s.partial_cmp(&a.time_s).unwrap());
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    fn counters(flops: u64) -> KernelCounters {
        KernelCounters {
            flops,
            pairs: flops / 100,
            global_reads: flops / 10,
            warps: 4,
            max_registers: 40,
            ..Default::default()
        }
    }

    #[test]
    fn records_and_accumulates() {
        let mut t = ProfileTable::new();
        t.record("force", &counters(1000));
        t.record("force", &counters(500));
        t.record("density", &counters(100));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get("force").unwrap().flops, 1500);
    }

    #[test]
    fn rows_sorted_by_time_with_shares() {
        let mut t = ProfileTable::new();
        t.record("big", &counters(1_000_000));
        t.record("small", &counters(1_000));
        let model = ExecutionModel::new(DeviceSpec::mi250x_gcd());
        let rows = t.rows(&model);
        assert_eq!(rows[0].name, "big");
        assert!(rows[0].time_share > rows[1].time_share);
        let total: f64 = rows.iter().map(|r| r.time_share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_across_ranks() {
        let mut a = ProfileTable::new();
        a.record("k", &counters(10));
        let mut b = ProfileTable::new();
        b.record("k", &counters(20));
        b.record("other", &counters(5));
        a.merge(&b);
        assert_eq!(a.get("k").unwrap().flops, 30);
        assert_eq!(a.len(), 2);
    }
}
