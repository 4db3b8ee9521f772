//! Nested span tracing on a logical clock.
//!
//! A [`Tracer`] records begin/end events for named spans. Ordering is
//! captured by a monotonically increasing *sequence number* — the logical
//! clock — so two runs of the same simulation produce identical span
//! records even though their wall clocks differ. Wall durations are still
//! measured (they feed the non-golden section of the text report and the
//! phase timers), but they live in a separate field that exporters keep
//! out of golden artifacts.
//!
//! Spans nest: a span opened while another is open becomes its child.
//! Each record carries its depth and parent, and closing a span returns
//! its wall duration so callers can attribute time to exactly one
//! accounting bucket (see `hacc_core::timers` for the self-time rule).

use std::time::Instant;

/// Handle to an open span (index into the tracer's span table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One completed (or still-open) span record.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (e.g. `"long-range"`, `"step-3"`).
    pub name: String,
    /// Phase/category tag (e.g. `"misc"`, `"io"`); groups spans in
    /// exports.
    pub phase: &'static str,
    /// PM step the span was opened in.
    pub step: u64,
    /// Nesting depth (0 = top level).
    pub depth: u32,
    /// Parent span index, if nested.
    pub parent: Option<usize>,
    /// Logical open time (sequence number).
    pub seq_open: u64,
    /// Logical close time; `u64::MAX` while open.
    pub seq_close: u64,
    /// Wall duration, seconds — **non-golden**; exporters must keep this
    /// out of golden sections.
    pub wall_s: f64,
}

/// Per-rank span recorder.
#[derive(Debug)]
pub struct Tracer {
    rank: usize,
    step: u64,
    seq: u64,
    spans: Vec<Span>,
    stack: Vec<(usize, Instant)>,
}

impl Tracer {
    /// Fresh tracer for one rank.
    pub fn new(rank: usize) -> Self {
        Self {
            rank,
            step: 0,
            seq: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The rank this tracer records for.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Set the current PM step (stamped on subsequently opened spans).
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    fn tick(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Open a span; it becomes a child of the innermost open span.
    pub fn begin(&mut self, phase: &'static str, name: &str) -> SpanId {
        let seq = self.tick();
        let parent = self.stack.last().map(|&(i, _)| i);
        let depth = self.stack.len() as u32;
        self.spans.push(Span {
            name: name.to_string(),
            phase,
            step: self.step,
            depth,
            parent,
            seq_open: seq,
            seq_close: u64::MAX,
            wall_s: 0.0,
        });
        let idx = self.spans.len() - 1;
        // d1: allow: the Tracer is the single blessed wall-duration measurement point; wall_s is confined by every exporter to non-golden sections (asserted by the tier-2 golden byte-diff)
        self.stack.push((idx, Instant::now()));
        SpanId(idx)
    }

    /// Close a span, returning its wall duration in seconds. Spans must
    /// close in LIFO order (asserted): this is what guarantees the
    /// logical intervals nest properly.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let (idx, t0) = self
            .stack
            .pop()
            // e1: allow: span begin/end pairing is static in the step loop; an unmatched end is a programming error
            .expect("Tracer::end with no open span");
        assert_eq!(idx, id.0, "spans must close in LIFO order");
        let wall = t0.elapsed().as_secs_f64();
        let seq = self.tick();
        let s = &mut self.spans[idx];
        s.seq_close = seq;
        s.wall_s = wall;
        wall
    }

    /// Run `f` inside a span; returns `f`'s value and the wall seconds.
    pub fn scope<T>(
        &mut self,
        phase: &'static str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(phase, name);
        let out = f();
        let wall = self.end(id);
        (out, wall)
    }

    /// Completed + open span records, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consume the tracer, yielding its span records.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(
            self.stack.is_empty(),
            "tracer finished with {} span(s) still open",
            self.stack.len()
        );
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_with_parents_and_depth() {
        let mut t = Tracer::new(0);
        let a = t.begin("misc", "outer");
        let b = t.begin("io", "inner");
        t.end(b);
        t.end(a);
        let s = t.into_spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].depth, 0);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].depth, 1);
        assert_eq!(s[1].parent, Some(0));
        // Logical intervals nest strictly: open(a) < open(b) < close(b)
        // < close(a).
        assert!(s[0].seq_open < s[1].seq_open);
        assert!(s[1].seq_open < s[1].seq_close);
        assert!(s[1].seq_close < s[0].seq_close);
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn non_lifo_close_is_rejected() {
        let mut t = Tracer::new(0);
        let a = t.begin("misc", "outer");
        let _b = t.begin("misc", "inner");
        t.end(a);
    }

    #[test]
    fn scope_returns_value_and_wall() {
        let mut t = Tracer::new(1);
        let (v, wall) = t.scope("analysis", "compute", || 7);
        assert_eq!(v, 7);
        assert!(wall >= 0.0);
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn logical_clock_is_wall_free() {
        // Two tracers running the same logical sequence produce identical
        // golden fields regardless of elapsed wall time.
        let run = |sleep: bool| {
            let mut t = Tracer::new(0);
            t.set_step(3);
            let a = t.begin("short-range", "kick");
            if sleep {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            t.end(a);
            t.into_spans()
        };
        let (x, y) = (run(false), run(true));
        assert_eq!(x.len(), y.len());
        for (a, b) in x.iter().zip(&y) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.step, b.step);
            assert_eq!((a.seq_open, a.seq_close), (b.seq_open, b.seq_close));
        }
    }
}
