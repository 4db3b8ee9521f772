//! `hacc-iosim` — the multi-tiered I/O subsystem.
//!
//! Frontier-E wrote >100 PB: a full 150–180 TB particle checkpoint after
//! *every* PM step (fault tolerance against the few-hour MTTI of exascale
//! machines) plus ~12 PB of science outputs. The paper's strategy:
//!
//! 1. every node writes synchronously to its own NVMe (no PFS contention),
//! 2. a background thread *bleeds* completed files to the Lustre PFS,
//! 3. more background threads prune checkpoints outside a time window,
//!
//! achieving an effective 5.45 TB/s — above Orion's nominal 4.6 TB/s peak
//! — because the blocking path never touches the PFS.
//!
//! This crate implements that protocol for real (files are written,
//! bled by background threads, pruned, CRC-validated, and restartable)
//! while *time* is accounted by calibrated device models at Frontier
//! parameters, since we have no 9,000-node NVMe fleet:
//!
//! * [`mod@format`] — a GenericIO-flavored block format with per-block CRC32,
//! * [`device`] — NVMe and PFS bandwidth models (variability included),
//! * [`tiers`] — the tiered writer with background bleed and pruning,
//! * [`faults`] — exponential-MTTI fault injection and the
//!   checkpoint-cadence trade-off, plus restart-from-latest-valid,
//! * [`inject`] — deterministic storage-fault primitives (torn writes,
//!   CRC flips, NVMe retries) driven by planned `hacc_fault` probes.

#![forbid(unsafe_code)]

pub mod device;
pub mod faults;
pub mod format;
pub mod inject;
pub mod tiers;

pub use device::{NvmeModel, PfsModel};
pub use faults::{simulate_run, FaultInjector, RunOutcome};
pub use format::{read_blocks, write_blocks, Block, FormatError};
pub use tiers::{IoStats, TieredConfig, TieredWriter};
