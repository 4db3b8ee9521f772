//! `hacc-grav` — the short-range gravity solver.
//!
//! The complement of the spectrally filtered PM force in `hacc-mesh`:
//! within the chaining-mesh neighborhood, particle pairs feel the
//! *residual* Newtonian force
//!
//! ```text
//! f_sr(r) = (G m / r^2) [ erfc(r / 2 r_s) + (r / r_s sqrt(pi)) e^{-r^2/4 r_s^2} ]
//! ```
//!
//! which decays to zero within a few split scales `r_s`, keeping the
//! interaction strictly node-local (the separation-of-scales architecture
//! of Fig. 2). As in HACC, the splitting function is evaluated through a
//! cheap tabulated fit rather than calling `erfc` per pair.
//!
//! The pair force runs as a `hacc-gpusim` kernel so it shares the
//! warp-splitting executor and counters with the SPH operators.

#![forbid(unsafe_code)]

pub mod kernel;
pub mod pipeline;
pub mod split;

pub use kernel::{GravAccum, GravState, GravityKernel};
pub use pipeline::{grav_step, grav_step_sinks, GravConfig, GravResult};
pub use split::{ForceSplitTable, CUTOFF_SPLIT_SCALES};
