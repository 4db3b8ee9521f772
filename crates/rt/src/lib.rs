//! `hacc-rt`: the hermetic runtime under the whole workspace.
//!
//! This simulated machine must build and test with **zero network access
//! and zero crates.io dependencies** — the same constraint CRK-HACC faces
//! on air-gapped HPC systems where vendor toolchains and batch nodes see
//! no package registry. What the workspace still needs of what it once
//! pulled from crates.io is vendored here as a minimal, well-tested
//! replacement, beside the rank scheduler:
//!
//! * [`rng`] — a seedable, splittable xoshiro256++ generator behind
//!   `rand`-shaped [`rng::Rng`]/[`rng::SeedableRng`] traits;
//! * [`rand`] — a path-compatibility facade so call sites keep writing
//!   `rand::rngs::StdRng::seed_from_u64(..)` after switching their `use`;
//! * [`sync`] — `Mutex` with parking_lot's no-poisoning API;
//! * [`sched`] — the rank scheduler: `lanes` run permits multiplexing
//!   any number of ranks, the host's one parallelism mechanism;
//! * [`prop`] — a bounded-shrinking property-test macro covering the
//!   `proptest!` call sites.
//!
//! See DESIGN.md § "Dependency policy: hermetic builds via `hacc-rt`".

#![forbid(unsafe_code)]

pub mod prop;
pub mod rng;
pub mod sched;
pub mod sync;

/// Path-compatibility facade mirroring the `rand` crate layout.
///
/// `use hacc_rt::rand::{self, Rng, SeedableRng};` lets existing call
/// sites keep their fully qualified `rand::rngs::StdRng` paths.
pub mod rand {
    pub use crate::rng::{Rng, SeedableRng};

    /// Mirrors `rand::rngs`.
    pub mod rngs {
        pub use crate::rng::StdRng;
    }
}
