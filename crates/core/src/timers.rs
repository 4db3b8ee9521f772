//! Per-phase wall-time totals — the source of the Fig. 2 / Fig. 5 timing
//! breakdowns. The driver measures nothing here: it opens spans on the
//! `hacc_telem::Tracer`, and [`Timers::from_spans`] folds a rank's
//! finished spans into the six phase buckets.

use hacc_telem::Span;

/// The timed simulation phases, in the paper's Fig. 2 ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Spectral long-range solver (distributed FFTs + Green's function).
    LongRange,
    /// Chaining-mesh + tree construction.
    TreeBuild,
    /// Short-range solver (gravity + hydro + subgrid kernels).
    ShortRange,
    /// In-situ analysis.
    Analysis,
    /// Checkpoint/output I/O (blocking portion).
    Io,
    /// Everything else (reductions, overload exchange, bookkeeping).
    Misc,
}

/// All phases, for iteration.
pub const PHASES: [Phase; 6] = [
    Phase::LongRange,
    Phase::TreeBuild,
    Phase::ShortRange,
    Phase::Analysis,
    Phase::Io,
    Phase::Misc,
];

impl Phase {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::LongRange => "long-range",
            Phase::TreeBuild => "tree-build",
            Phase::ShortRange => "short-range",
            Phase::Analysis => "analysis",
            Phase::Io => "io",
            Phase::Misc => "misc",
        }
    }
}

/// Accumulated wall-clock seconds per phase.
#[derive(Debug, Clone, Default)]
pub struct Timers {
    seconds: [f64; 6],
}

impl Timers {
    /// Fresh timers.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(phase: Phase) -> usize {
        PHASES.iter().position(|&p| p == phase).unwrap()
    }

    /// Phase totals of one rank's finished spans. Spans nest, and each
    /// second of wall time is attributed to exactly one phase — the
    /// innermost span covering it: a span contributes its *self time*
    /// (`wall_s` minus its children's `wall_s`) to the phase it is
    /// tagged with. Spans whose tag names no phase (the enclosing
    /// `"step"` span) leave their self time unattributed.
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut child_s = vec![0.0f64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_s[p] += s.wall_s;
            }
        }
        let mut t = Timers::new();
        for (s, child_s) in spans.iter().zip(child_s) {
            if let Some(slot) = PHASES.iter().position(|p| p.name() == s.phase) {
                t.seconds[slot] += (s.wall_s - child_s).max(0.0);
            }
        }
        t
    }

    /// Add externally measured seconds.
    pub fn add(&mut self, phase: Phase, seconds: f64) {
        self.seconds[Self::slot(phase)] += seconds;
    }

    /// Accumulated seconds of a phase.
    pub fn get(&self, phase: Phase) -> f64 {
        self.seconds[Self::slot(phase)]
    }

    /// Total across phases.
    pub fn total(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Fraction of total per phase (zero when nothing recorded).
    pub fn fractions(&self) -> Vec<(Phase, f64)> {
        let total = self.total();
        PHASES
            .iter()
            .map(|&p| {
                let f = if total > 0.0 {
                    self.get(p) / total
                } else {
                    0.0
                };
                (p, f)
            })
            .collect()
    }

    /// Merge another set of timers (e.g. across ranks: caller reduces).
    pub fn merge(&mut self, other: &Timers) {
        for (a, b) in self.seconds.iter_mut().zip(&other.seconds) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_telem::Tracer;

    #[test]
    fn accumulates_and_fractions() {
        let mut t = Timers::new();
        t.add(Phase::ShortRange, 8.0);
        t.add(Phase::LongRange, 1.0);
        t.add(Phase::Io, 1.0);
        assert_eq!(t.total(), 10.0);
        let f: Vec<f64> = t.fractions().iter().map(|(_, f)| *f).collect();
        assert!((f[2] - 0.8).abs() < 1e-12); // short-range
        assert!((f[0] - 0.1).abs() < 1e-12);
    }

    fn sleep_ms(ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    #[test]
    fn nested_spans_attribute_time_to_exactly_one_phase() {
        // A misc span opened inside a long-range span must claim its own
        // wall time exclusively: the per-phase totals sum to the wall
        // time of the outer span, with no double-counting.
        let mut tr = Tracer::new(0);
        let outer_id = tr.begin("long-range", "outer");
        sleep_ms(5);
        let inner_id = tr.begin("misc", "inner");
        sleep_ms(10);
        let inner = tr.end(inner_id);
        sleep_ms(5);
        let outer = tr.end(outer_id);
        let t = Timers::from_spans(&tr.into_spans());

        assert!(inner >= 0.010);
        assert!(outer >= inner);
        assert!(t.get(Phase::Misc) >= 0.010);
        assert!(t.get(Phase::LongRange) > 0.0);
        // Self-times partition the outer span exactly.
        assert!(
            (t.get(Phase::LongRange) + t.get(Phase::Misc) - outer).abs() < 1e-9,
            "phases {:.6}+{:.6} != outer {:.6}",
            t.get(Phase::LongRange),
            t.get(Phase::Misc),
            outer
        );
        assert!((t.total() - outer).abs() < 1e-9);
    }

    #[test]
    fn deeply_nested_spans_sum_to_elapsed() {
        let mut tr = Tracer::new(0);
        let a = tr.begin("short-range", "a");
        let b = tr.begin("tree-build", "b");
        let c = tr.begin("analysis", "c");
        sleep_ms(3);
        tr.end(c);
        tr.end(b);
        let outer = tr.end(a);
        let t = Timers::from_spans(&tr.into_spans());
        assert!((t.total() - outer).abs() < 1e-9);
    }

    #[test]
    fn untagged_step_span_keeps_its_self_time_unattributed() {
        let mut tr = Tracer::new(0);
        let step = tr.begin("step", "step-0");
        sleep_ms(2);
        let io = tr.begin("io", "checkpoint");
        sleep_ms(2);
        let io_wall = tr.end(io);
        tr.end(step);
        let t = Timers::from_spans(&tr.into_spans());
        assert_eq!(t.total(), io_wall);
        assert_eq!(t.get(Phase::Io), io_wall);
    }

    #[test]
    fn merge_adds() {
        let mut a = Timers::new();
        a.add(Phase::Misc, 1.0);
        let mut b = Timers::new();
        b.add(Phase::Misc, 2.0);
        a.merge(&b);
        assert_eq!(a.get(Phase::Misc), 3.0);
    }
}
