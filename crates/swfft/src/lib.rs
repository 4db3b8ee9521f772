//! `hacc-swfft` — from-scratch serial and distributed FFTs.
//!
//! This is the analog of HACC's SWFFT library: the long-range gravity
//! solver needs forward/inverse 3-D FFTs over a mesh distributed across all
//! ranks. The paper's Frontier-E run transformed a 12,600³ grid (two
//! trillion cells); here the same code paths run on 32³–256³ grids over
//! 1–64 simulated ranks.
//!
//! Layers:
//!
//! * [`complex`] — a minimal `Complex64` (no external num crates).
//! * [`serial`] — iterative radix-2 Cooley–Tukey with cached twiddles, and
//!   Bluestein's algorithm so arbitrary lengths work (the paper's grid,
//!   12,600, is not a power of two); one butterfly body that transforms a
//!   single line or eight side by side, and the batched row and column
//!   passes every 3-D transform runs its lines through, bit-identical to
//!   transforming each line alone.
//! * [`dist`] — slab-decomposed distributed 3-D FFT over
//!   [`hacc_ranks::Comm`] (simple, rank count capped at `n`), complex and
//!   real-to-complex (the Hermitian half spectrum the PM solve runs on),
//! * [`pencil`] — the full SWFFT pencil decomposition (`P1 × P2` process
//!   grid, two transpose rounds, up to `n²` ranks) — what let HACC put a
//!   12,600³ grid across 72,000 ranks.
//!
//! # Example
//!
//! ```
//! use hacc_swfft::{Complex64, serial::FftPlan};
//!
//! let plan = FftPlan::new(8);
//! let mut data: Vec<Complex64> =
//!     (0..8).map(|i| Complex64::new(i as f64, 0.0)).collect();
//! let orig = data.clone();
//! plan.forward(&mut data);
//! plan.inverse(&mut data);
//! for (a, b) in data.iter().zip(&orig) {
//!     assert!((a.re - b.re).abs() < 1e-12);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod complex;
pub mod dist;
pub mod pencil;
pub mod serial;

pub use complex::Complex64;
pub use dist::DistFft3d;
pub use pencil::PencilFft3d;
pub use serial::FftPlan;
