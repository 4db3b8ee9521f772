//! In-memory spans around the census's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files only — one per call
//! across a layer boundary — kept in memory, and written once at exit as
//! a Perfetto/Chrome-loadable `trace.json` (complete `"ph": "X"` events,
//! one track per rank, real microsecond timestamps from one shared
//! epoch).

use crate::json::Json;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `mesh.pm_accel`.
    pub name: &'static str,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    pub end: f64,
    /// Unique within the run: `rank * ID_STRIDE + sequence`, from 1.
    pub id: u64,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u64,
    pub workload: &'static str,
    pub rank: usize,
}

const ID_STRIDE: u64 = 1_000_000;

/// Per-rank span recorder (not `hacc_telem::Tracer`: that one is the
/// program's, on logical ticks; this one is the benchmark's, on wall time). `open`/`close` nest; the open-span stack gives
/// each span its parent.
pub struct Recorder {
    epoch: Instant,
    workload: &'static str,
    rank: usize,
    open: Vec<(u64, &'static str, f64)>,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// `epoch` is shared by every rank of a run so the tracks line up.
    pub fn new(epoch: Instant, workload: &'static str, rank: usize) -> Self {
        Self {
            epoch,
            workload,
            rank,
            open: Vec::new(),
            next: 1,
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str) {
        let id = self.rank as u64 * ID_STRIDE + self.next;
        self.next += 1;
        self.open
            .push((id, name, self.epoch.elapsed().as_secs_f64()));
    }

    /// Close the innermost open span; returns its duration in seconds.
    pub fn close(&mut self) -> f64 {
        let end = self.epoch.elapsed().as_secs_f64();
        let (id, name, start) = self.open.pop().expect("close() without a matching open()");
        let parent = self.open.last().map_or(0, |o| o.0);
        self.spans.push(Span {
            name,
            start,
            end,
            id,
            parent,
            workload: self.workload,
            rank: self.rank,
        });
        end - start
    }

    /// Time one call as a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.open(name);
        let out = f();
        (out, self.close())
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "unclosed span");
        self.spans
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, https://ui.perfetto.dev)
/// of one run's spans: one process, named after the workload by a
/// metadata event, one thread per rank.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let mut events = Vec::with_capacity(spans.len() + 1);
    if let Some(first) = spans.first() {
        events.push(Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Int(0)),
            ("args", Json::obj([("name", Json::str(first.workload))])),
        ]));
    }
    events.extend(spans.iter().map(|s| {
        Json::obj([
            ("name", Json::str(s.name)),
            ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
            ("ph", Json::str("X")),
            ("ts", Json::num(s.start * 1e6)),
            ("dur", Json::num((s.end - s.start) * 1e6)),
            ("pid", Json::Int(0)),
            ("tid", Json::Int(s.rank as u64)),
            (
                "args",
                Json::obj([
                    ("id", Json::Int(s.id)),
                    ("parent", Json::Int(s.parent)),
                    ("workload", Json::str(s.workload)),
                    ("rank", Json::Int(s.rank as u64)),
                ]),
            ),
        ])
    }));
    Json::obj([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_parents() {
        let mut t = Recorder::new(Instant::now(), "w", 3);
        t.open("census");
        let ((), d) = t.span("tree.build", || ());
        assert!(d >= 0.0);
        t.close();
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        let (child, root) = (&spans[0], &spans[1]);
        assert_eq!((root.name, root.parent, root.id), ("census", 0, 3_000_001));
        assert_eq!((child.name, child.parent), ("tree.build", root.id));
        assert!(root.start <= child.start && child.end <= root.end);
        let text = chrome_trace(&spans).compact();
        assert!(
            text.contains(r#""name":"tree.build","cat":"tree","ph":"X""#),
            "{text}"
        );
        assert!(text.contains(r#""pid":0,"tid":3"#), "{text}");
        assert!(
            text.contains(r#""ph":"M","pid":0,"args":{"name":"w"}"#),
            "{text}"
        );
    }
}
