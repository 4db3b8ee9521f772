//! `hacc-telem` — the unified observability subsystem.
//!
//! The paper's headline evidence is instrumentation: the Fig. 2/Fig. 5
//! phase breakdowns, rocprof-style per-kernel profiles, and tiered-I/O
//! bandwidth accounting at 9,000 nodes. This crate is the measurement
//! substrate those figures need, with one extra constraint that real
//! rocprof output does not have: **determinism**. Every exported golden
//! artifact is byte-identical across repeated same-seed runs, which makes
//! telemetry usable as a *test oracle* — the conservation ledger and
//! counter snapshots are the assertion surface of the regression tier.
//!
//! Pieces:
//!
//! * [`span`] — nested span tracing on a logical clock (sequence numbers,
//!   not wall time), with wall durations carried separately as non-golden
//!   annotations;
//! * [`counters`] — the counter taxonomy: per-rank communication counters
//!   ([`CommCounters`]: messages, bytes, collective calls per kind),
//!   per-tier I/O counters ([`IoCounters`]), and per-kernel GPU rows
//!   ([`GpuKernelRow`]: launches, FLOPs, bytes, pairs swept and culled);
//! * [`ledger`] — the per-step conservation ledger (particle count, mass,
//!   momentum, kinetic + internal energy), reduced across ranks;
//! * [`export`] — the Chrome-trace JSON exporter and the plain-text
//!   per-rank/per-phase report with explicitly delimited golden sections;
//! * [`diag`] — the finding format the static analyser (`hacc-lint`)
//!   and the runtime sanitizer (`hacc-san`) both speak: the rule
//!   catalog and the `file:line: [RULE] message` record with its text /
//!   JSON renderers. It lives here, in the dependency-free taxonomy
//!   crate, so neither side has to depend on the other.
//!
//! # Determinism contract
//!
//! A *golden* artifact may depend only on the simulation's logical
//! execution: step indices, span open/close order, counter values, and
//! physics state. It must never contain wall-clock readings, process ids,
//! pointers, or host paths. The Chrome trace is golden in its entirety
//! (timestamps are logical sequence numbers). The text report separates a
//! golden region, delimited by [`export::GOLDEN_BEGIN`] /
//! [`export::GOLDEN_END`], from a trailing non-golden wall-clock section.
//! `scripts/verify.sh` lints both properties.

#![forbid(unsafe_code)]

pub mod counters;
pub mod diag;
pub mod export;
pub mod ledger;
pub mod span;

pub use counters::{
    CollectiveKind, CommCounters, FaultCounters, FaultKind, GpuKernelRow, IoCounters,
    COLLECTIVE_KINDS, FAULT_KINDS,
};
pub use diag::{Diagnostic, Rule};
pub use export::{golden_section, RankTelemetry, TelemetryReport, GOLDEN_BEGIN, GOLDEN_END};
pub use ledger::{ConservationLedger, LedgerRecord};
pub use span::{Span, SpanId, Tracer};
