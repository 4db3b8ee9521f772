//! The byte-stable sanitizer report.
//!
//! Rendering contains only deterministic quantities: rank count,
//! ledger-checked collectives, tracked regions, annotated accesses, and
//! the normalized findings, so two identical clean runs produce
//! byte-identical reports — the property the tier-4 gate byte-compares.

use std::fmt::Write as _;

use hacc_telem::diag::normalize;
use hacc_telem::{AllowList, Diagnostic};

/// Outcome of one sanitized world.
#[derive(Debug, Clone)]
pub struct SanReport {
    /// World size.
    pub ranks: usize,
    /// Unsuppressed findings, normalized (sorted + deduplicated).
    pub findings: Vec<Diagnostic>,
    /// Findings matched by `san.allow` entries.
    pub suppressed: usize,
    /// Collective positions the ledger matched across ranks.
    pub collectives: u64,
    /// Distinct annotated regions touched.
    pub regions: u64,
    /// Total annotated accesses checked.
    pub accesses: u64,
}

impl SanReport {
    /// Partition findings through a `san.allow` suppression list.
    pub fn apply_allow(&mut self, allow: &mut AllowList) {
        let mut kept = Vec::new();
        for d in std::mem::take(&mut self.findings) {
            if allow.suppresses(&d) {
                self.suppressed += 1;
            } else {
                kept.push(d);
            }
        }
        self.findings = normalize(kept);
    }

    /// Whether the run is clean (no unsuppressed findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The canonical text report (byte-stable across identical runs).
    pub fn render_text(&self) -> String {
        let mut w = String::new();
        let _ = writeln!(w, "# hacc-san report");
        let _ = writeln!(w, "ranks               : {}", self.ranks);
        let _ = writeln!(w, "collectives checked : {}", self.collectives);
        let _ = writeln!(w, "regions tracked     : {}", self.regions);
        let _ = writeln!(w, "accesses annotated  : {}", self.accesses);
        let _ = writeln!(w, "findings            : {}", self.findings.len());
        let _ = writeln!(w, "suppressed          : {}", self.suppressed);
        for d in &self.findings {
            let _ = writeln!(w, "{}", d.render());
        }
        w
    }

    /// Compact golden-section lines for the telemetry report.
    pub fn golden_lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "[sanitizer] collectives {} regions {} accesses {} findings {} suppressed {}",
            self.collectives,
            self.regions,
            self.accesses,
            self.findings.len(),
            self.suppressed
        )];
        out.extend(self.findings.iter().map(|d| format!("[sanitizer] {}", d.render())));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_telem::Rule;

    fn report_with(findings: Vec<Diagnostic>) -> SanReport {
        SanReport {
            ranks: 2,
            findings,
            suppressed: 0,
            collectives: 3,
            regions: 1,
            accesses: 4,
        }
    }

    #[test]
    fn render_is_stable_and_complete() {
        let r = report_with(vec![Diagnostic { witness: Vec::new(),
            file: "crates/x/src/lib.rs".into(),
            line: 9,
            rule: Rule::R1,
            message: "race".into(),
        }]);
        let t = r.render_text();
        assert_eq!(t, r.render_text());
        assert!(t.contains("findings            : 1"));
        assert!(t.contains("crates/x/src/lib.rs:9: [R1] race"));
    }

    #[test]
    fn allowlist_suppresses_with_justification() {
        let mut r = report_with(vec![Diagnostic { witness: Vec::new(),
            file: "crates/x/src/lib.rs".into(),
            line: 9,
            rule: Rule::R1,
            message: "race".into(),
        }]);
        let mut allow = AllowList::parse(
            "crates/x/src/lib.rs: R1: benign racy stat counter, values never read back\n",
            "san.allow",
        )
        .unwrap();
        r.apply_allow(&mut allow);
        assert!(r.is_clean());
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn clean_report_golden_line() {
        let r = report_with(Vec::new());
        assert_eq!(
            r.golden_lines(),
            vec!["[sanitizer] collectives 3 regions 1 accesses 4 findings 0 suppressed 0"]
        );
    }
}
