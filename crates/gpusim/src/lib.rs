//! `hacc-gpusim` — a warp-execution GPU simulator.
//!
//! The paper's short-range solver is GPU-resident: ~50 interaction kernels
//! run on MI250X/PVC/H100 devices, the hottest of them using the
//! *warp-splitting* technique (Algorithm 1). We cannot run on those
//! devices, so this crate provides the faithful software substitute used
//! throughout the reproduction:
//!
//! * [`device`] — the vendor catalog with the paper's Table I peak FP32
//!   rates and warp widths (32 for Nvidia/Intel, 64 for AMD),
//! * [`counters`] — FLOP/byte/shuffle/atomic counters using the paper's
//!   accounting convention (FMA = 2 ops, transcendental = 1),
//! * [`exec`] — the one leaf-pair kernel executor and the one walk of an
//!   interaction list ([`sweep`]), running the *same physics* in either
//!   `Naive` or `WarpSplit` mode, lane-tiled exactly like the GPU kernels
//!   (half-warp of i-particles against half-warp of j-particles, partials
//!   exchanged by shuffle),
//! * [`reference`] — the one-sided oracle the tests and the short-range
//!   micro-benchmark swap in for [`sweep`]; no production path calls it,
//! * [`model`] — a roofline-style device timing model (compute vs memory
//!   bound, occupancy limited by register pressure, partial-tile lane
//!   masking) that converts counters into modeled kernel time and device
//!   utilization — the quantities plotted in Fig. 6.
//!
//! The executor's two modes produce bit-identical physical results; only
//! the counters differ. That property is what makes the warp-splitting
//! ablation (register pressure down, shuffles up, global traffic down)
//! meaningful.

#![forbid(unsafe_code)]

pub mod counters;
pub mod device;
pub mod exec;
pub mod model;
pub mod profile;
pub mod reference;

pub use counters::{KernelCounters, PairFlops};
pub use device::{DeviceSpec, Vendor};
pub use exec::{
    execute_leaf_pair, execute_leaf_self, execute_with_relaunch, sweep, ExecMode, SplitKernel,
};
pub use model::ExecutionModel;
pub use profile::{ProfileRow, ProfileTable};
