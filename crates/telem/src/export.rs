//! Exporters: Chrome-trace JSON and the per-rank/per-phase text report.
//!
//! The Chrome trace (`chrome://tracing` / Perfetto "trace event" format)
//! is golden in its entirety: timestamps are the tracer's logical
//! sequence numbers, one lane (`tid`) per rank. The text report carries a
//! golden region delimited by [`GOLDEN_BEGIN`]/[`GOLDEN_END`] followed by
//! a non-golden wall-clock appendix. Regression tests and the
//! `scripts/verify.sh` lint compare golden regions byte-for-byte.

use crate::counters::{
    CommCounters, FaultCounters, GpuKernelRow, IoCounters, COLLECTIVE_KINDS, FAULT_KINDS,
};
use crate::diag::json_escape;
use crate::ledger::ConservationLedger;
use crate::span::Span;
use std::fmt::Write as _;

/// First line of the golden region of a text report.
pub const GOLDEN_BEGIN: &str = "# === GOLDEN BEGIN ===";
/// Last line of the golden region of a text report.
pub const GOLDEN_END: &str = "# === GOLDEN END ===";

/// One rank's telemetry bundle.
#[derive(Debug, Clone)]
pub struct RankTelemetry {
    /// Rank index.
    pub rank: usize,
    /// Span records, in open order.
    pub spans: Vec<Span>,
    /// Communication counters.
    pub comm: CommCounters,
    /// Tiered-I/O counters.
    pub io: IoCounters,
    /// Fault-injection counters (all zero unless the chaos harness was
    /// armed; accumulated across supervisor attempts).
    pub faults: FaultCounters,
}

/// The assembled whole-run telemetry (all ranks).
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Per-rank bundles, in rank order.
    pub ranks: Vec<RankTelemetry>,
    /// Per-kernel GPU rows, merged across ranks, in name order.
    pub gpu: Vec<GpuKernelRow>,
    /// The conservation ledger (globally reduced; identical on every
    /// rank).
    pub ledger: ConservationLedger,
    /// Per-phase wall seconds summed over ranks — **non-golden**.
    pub wall_phases: Vec<(String, f64)>,
    /// Supervisor attempts the run took (1 = no fault required a
    /// restart). Golden: the attempt sequence is seed-deterministic.
    pub attempts: u64,
    /// Rollbacks to a valid checkpoint the supervisor performed.
    pub rollbacks: u64,
    /// Sanitizer summary lines (empty unless the run was sanitized).
    /// Golden: hacc-san's checks are deterministic for a fixed seed, so
    /// the summary is byte-identical run to run.
    pub sanitizer: Vec<String>,
}

impl TelemetryReport {
    /// Render the Chrome "trace event" JSON. Fully golden: `ts`/`dur`
    /// are logical sequence numbers, `tid` is the rank.
    pub fn chrome_trace(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        for rt in &self.ranks {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":\"rank {}\"}}}}",
                rt.rank, rt.rank
            ));
            for s in &rt.spans {
                let dur = s.seq_close.saturating_sub(s.seq_open);
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\
                     \"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"step\":{},\
                     \"depth\":{}}}}}",
                    json_escape(&s.name),
                    json_escape(s.phase),
                    s.seq_open,
                    dur,
                    rt.rank,
                    s.step,
                    s.depth
                ));
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    /// Render the plain-text per-rank/per-phase report: golden counters,
    /// ledger, and span tree first, then the non-golden wall-clock
    /// appendix.
    pub fn text_report(&self) -> String {
        let mut o = String::new();
        let w = &mut o;
        let _ = writeln!(w, "# frontier-sim telemetry report");
        let _ = writeln!(
            w,
            "# the golden region below is byte-identical across same-seed runs"
        );
        let _ = writeln!(w, "{GOLDEN_BEGIN}");
        let _ = writeln!(w, "[meta]");
        let _ = writeln!(w, "ranks = {}", self.ranks.len());
        let _ = writeln!(w, "ledger_steps = {}", self.ledger.len());
        let _ = writeln!(w, "attempts = {}", self.attempts);
        let _ = writeln!(w, "rollbacks = {}", self.rollbacks);
        for line in &self.sanitizer {
            let _ = writeln!(w, "{line}");
        }
        let _ = writeln!(w);

        let _ = writeln!(
            w,
            "[ledger] step count mass px py pz p_scale kinetic internal"
        );
        for r in self.ledger.records() {
            let _ = writeln!(
                w,
                "{} {} {:.12e} {:.12e} {:.12e} {:.12e} {:.12e} {:.12e} {:.12e}",
                r.step,
                r.count,
                r.mass,
                r.momentum[0],
                r.momentum[1],
                r.momentum[2],
                r.momentum_scale,
                r.kinetic,
                r.internal
            );
        }
        let _ = writeln!(w);

        for rt in &self.ranks {
            let _ = writeln!(w, "[comm rank {}]", rt.rank);
            let _ = writeln!(w, "sends = {}", rt.comm.sends);
            let _ = writeln!(w, "recvs = {}", rt.comm.recvs);
            let _ = writeln!(w, "bytes_sent = {}", rt.comm.bytes_sent);
            for k in COLLECTIVE_KINDS {
                let _ = writeln!(w, "{} = {}", k.name(), rt.comm.collective(k));
            }
            let _ = writeln!(w);
        }

        for rt in &self.ranks {
            let _ = writeln!(w, "[io rank {}]", rt.rank);
            let _ = writeln!(w, "nvme_bytes = {}", rt.io.nvme_bytes);
            let _ = writeln!(w, "pfs_bytes = {}", rt.io.pfs_bytes);
            let _ = writeln!(w, "nvme_writes = {}", rt.io.nvme_writes);
            let _ = writeln!(w, "files_bled = {}", rt.io.files_bled);
            let _ = writeln!(w, "files_pruned = {}", rt.io.files_pruned);
            let _ = writeln!(w, "stalls = {}", rt.io.stalls);
            let _ = writeln!(w, "faults = {}", rt.io.faults);
            let _ = writeln!(w);
        }

        for rt in &self.ranks {
            let _ = writeln!(w, "[faults rank {}] kind injected recovered", rt.rank);
            for k in FAULT_KINDS {
                let _ = writeln!(
                    w,
                    "{} {} {}",
                    k.name(),
                    rt.faults.injected(k),
                    rt.faults.recovered(k)
                );
            }
            let _ = writeln!(w);
        }

        let _ = writeln!(w, "[gpu kernels] name launches flops bytes pairs culled_pairs");
        for g in &self.gpu {
            let _ = writeln!(
                w,
                "{} {} {} {} {} {}",
                g.name, g.launches, g.flops, g.bytes, g.pairs, g.culled_pairs
            );
        }
        let _ = writeln!(w);

        for rt in &self.ranks {
            let _ = writeln!(w, "[spans rank {}] seq_open..seq_close name (phase)", rt.rank);
            for s in &rt.spans {
                let _ = writeln!(
                    w,
                    "{:indent$}{}..{} {} ({})",
                    "",
                    s.seq_open,
                    s.seq_close,
                    s.name,
                    s.phase,
                    indent = 2 * (s.depth as usize + 1)
                );
            }
            let _ = writeln!(w);
        }
        let _ = writeln!(w, "{GOLDEN_END}");

        let _ = writeln!(w);
        let _ = writeln!(w, "# non-golden appendix: wall-clock seconds (vary run to run)");
        let _ = writeln!(w, "[wall-clock phases, summed over ranks]");
        for (name, s) in &self.wall_phases {
            let _ = writeln!(w, "{name} = {s:.6}s");
        }
        o
    }
}

/// Extract the golden region (inclusive of its markers) from a text
/// report. Panics if the markers are missing or out of order — a report
/// without a golden region is malformed.
pub fn golden_section(report: &str) -> &str {
    let begin = report
        .find(GOLDEN_BEGIN)
        .expect("report missing GOLDEN BEGIN marker");
    let end = report
        .find(GOLDEN_END)
        .expect("report missing GOLDEN END marker");
    assert!(begin < end, "golden markers out of order");
    &report[begin..end + GOLDEN_END.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerRecord;
    use crate::span::Tracer;

    fn sample_report(sleep: bool) -> TelemetryReport {
        let mut tr = Tracer::new(0);
        tr.set_step(0);
        let a = tr.begin("misc", "migrate");
        if sleep {
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        tr.end(a);
        let (_, _) = tr.scope("io", "checkpoint", || ());
        let mut comm = CommCounters::default();
        comm.record_send(64);
        comm.record_collective(crate::CollectiveKind::AllReduce);
        let mut ledger = ConservationLedger::new();
        ledger.push(LedgerRecord {
            step: 0,
            count: 512,
            mass: 1.5e12,
            momentum: [0.25, -0.5, 0.125],
            momentum_scale: 3.0e4,
            kinetic: 7.5e3,
            internal: 1.25e2,
        });
        TelemetryReport {
            ranks: vec![RankTelemetry {
                rank: 0,
                spans: tr.into_spans(),
                comm,
                io: IoCounters::default(),
                faults: {
                    let mut f = FaultCounters::default();
                    f.record_injected(crate::FaultKind::CommDup);
                    f.record_recovered(crate::FaultKind::CommDup);
                    f
                },
            }],
            gpu: vec![GpuKernelRow {
                name: "crk_force".into(),
                launches: 4,
                flops: 1000,
                bytes: 512,
                pairs: 99,
                culled_pairs: 33,
            }],
            ledger,
            wall_phases: vec![("misc".into(), if sleep { 0.5 } else { 0.25 })],
            attempts: 1,
            rollbacks: 0,
            sanitizer: Vec::new(),
        }
    }

    #[test]
    fn fault_rows_render_in_golden_region() {
        let txt = sample_report(false).text_report();
        let golden = golden_section(&txt);
        assert!(golden.contains("[faults rank 0] kind injected recovered"));
        assert!(golden.contains("comm_dup 1 1"));
        assert!(golden.contains("rank_panic 0 0"));
        assert!(golden.contains("attempts = 1"));
        assert!(golden.contains("rollbacks = 0"));
    }

    #[test]
    fn golden_region_is_wall_clock_invariant() {
        let a = sample_report(false).text_report();
        let b = sample_report(true).text_report();
        assert_ne!(a, b, "wall appendix should differ");
        assert_eq!(golden_section(&a), golden_section(&b));
    }

    #[test]
    fn golden_region_mentions_no_wall_clock() {
        let txt = sample_report(true).text_report();
        let golden = golden_section(&txt);
        assert!(!golden.to_lowercase().contains("wall"));
        // The appendix does.
        assert!(txt.to_lowercase().contains("wall-clock"));
    }

    #[test]
    fn chrome_trace_is_deterministic_and_structured() {
        let a = sample_report(false).chrome_trace();
        let b = sample_report(true).chrome_trace();
        assert_eq!(a, b, "chrome trace must be fully golden");
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"name\":\"migrate\""));
        assert!(!a.contains("wall"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = a.matches('{').count();
        let closes = a.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn ledger_rows_render_full_precision() {
        let txt = sample_report(false).text_report();
        assert!(txt.contains("1.500000000000e12"));
        assert!(txt.contains("512"));
    }
}
