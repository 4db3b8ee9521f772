//! `hacc-mesh` — the long-range (particle-mesh) gravity solver.
//!
//! CRK-HACC computes gravity with a separation-of-scales approach: the
//! smooth long-range field comes from a spectrally filtered particle-mesh
//! (PM) solve on a global FFT mesh in FP64, and the residual short-range
//! force is evaluated by the tree/particle kernels (see `hacc-grav`). This
//! crate implements the PM half:
//!
//! * [`cic`] — cloud-in-cell deposit and interpolation over each rank's
//!   footprint: a routed deposit and patch gathers, sparse exchanges with
//!   the plane owners only,
//! * [`poisson`] — the k-space Green's function with Gaussian long-range
//!   filtering and CIC deconvolution, plus spectral force gradients,
//! * [`pm`] — the [`pm::PmSolver`] orchestrating
//!   deposit → real FFT → Green × ik on the half spectrum → two real
//!   inverse FFTs for the three force fields → interpolation.
//!
//! The split is the Ewald-style Gaussian pair: the PM force is filtered by
//! `exp(-k² r_s²)`, and `hacc-grav` supplies the complementary real-space
//! kernel `erfc(r/2r_s) + (r/(r_s √π)) exp(-r²/4r_s²)` so that
//! PM + short-range ≈ Newton on all resolved scales.

#![forbid(unsafe_code)]

pub mod cic;
pub mod pm;
pub mod poisson;

pub use pm::{PmConfig, PmSolver};
