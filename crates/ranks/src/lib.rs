//! Simulated MPI: SPMD communicators over scheduled rank tasks.
//!
//! The Frontier-E run used ~72,000 MPI ranks (8 per node on 9,000 nodes).
//! This crate reproduces the communication *semantics* CRK-HACC relies on —
//! point-to-point sends with tags, barriers, reductions, gathers, and the
//! all-to-all-v exchange used for particle overloading and FFT pencil
//! transposes — with messages filed in one `(src, tag)`-matched mailbox
//! per rank and every rank a cooperative task multiplexed onto the run
//! lanes of `hacc_rt::sched`, which scales to thousands of ranks per
//! host.
//!
//! The programming model is SPMD, exactly like MPI: every rank executes the
//! same function, and collectives must be entered by all ranks of the
//! communicator in the same order.
//!
//! # Example
//!
//! ```
//! use hacc_ranks::World;
//!
//! let sums = World::run(4, |comm| {
//!     let mine = (comm.rank() + 1) as f64;
//!     comm.all_reduce_f64(mine, |a, b| a + b)
//! });
//! assert!(sums.iter().all(|&s| s == 10.0));
//! ```

#![forbid(unsafe_code)]

pub mod comm;
mod mailbox;
pub mod smoke;
pub mod topology;

pub use comm::{Backend, Comm, Tag, World};
pub use topology::CartDecomp;
