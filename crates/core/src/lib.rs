//! `hacc-core` — the CRK-HACC simulation driver.
//!
//! Glues every substrate into the full code of Fig. 2: the spectral
//! long-range solver (`hacc-mesh`/`hacc-swfft`) over all ranks
//! (`hacc-ranks`), GPU-resident short-range physics (`hacc-grav`,
//! `hacc-sph` on `hacc-gpusim`) inside chaining-mesh trees (`hacc-tree`),
//! astrophysical subgrid sources (`hacc-subgrid`), in-situ analysis
//! (`hacc-analysis`), and multi-tiered I/O (`hacc-iosim`).
//!
//! The integration scheme is the paper's separation of scales: per global
//! PM step, a long-range half-kick, a block of adaptive short-range
//! subcycles (rung-based, FAST-style), and a closing long-range half-kick
//! — the closing half-kicks of one step riding on the next step's opening
//! solves — with overload refresh and a single tree build per PM step,
//! full checkpoints every step, and in-situ analysis at a configurable
//! cadence.
//!
//! Entry points: [`driver::run_simulation`] / [`driver::resume_simulation`]
//! — the full run, fresh or resumed, under the chaos supervisor.

#![forbid(unsafe_code)]

pub mod config;
pub mod driver;
pub mod ic;
pub mod kicks;
pub mod overload;
pub mod particles;
pub mod timers;
pub mod timestep;

pub use config::{Physics, SimConfig};
pub use driver::{resume_simulation, run_simulation, SimReport, StepRecord};
pub use particles::{ParticleStore, Species};
pub use timers::Timers;
