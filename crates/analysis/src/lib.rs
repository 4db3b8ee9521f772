//! `hacc-analysis` — the in-situ analysis pipeline.
//!
//! The paper runs *all* science analysis on the GPU during the simulation
//! (Section IV-B3): clustering methods (friends-of-friends halo finding,
//! DBSCAN) built on the ArborX geometric-search library, plus summary
//! statistics. Post-processing petabytes offline is infeasible at this
//! scale, so in-situ analysis is a first-class architectural component —
//! 11.6% of the Frontier-E runtime.
//!
//! * [`bvh`] — a Morton-ordered linear BVH (the ArborX analog) with
//!   fixed-radius neighbor queries, all served by one traversal;
//! * [`mod@dbscan`] — the one clustering kernel, `dbscan::cluster`: DBSCAN
//!   by one union-find over BVH walks. FOF ([`fof`], with halo property
//!   reduction) is DBSCAN at `min_pts = 2`;
//! * [`power`] — matter power spectrum P(k) from the distributed FFT;
//! * [`massfunc`] — halo mass functions;
//! * [`slices`] — density/temperature slice extraction (Fig. 3).

#![forbid(unsafe_code)]

pub mod bvh;
pub mod dbscan;
pub mod fof;
pub mod hod;
pub mod maps;
pub mod massfunc;
pub mod power;
pub mod slices;
pub mod twopoint;

pub use bvh::Lbvh;
pub use dbscan::{dbscan, DbscanLabel};
pub use fof::{fof_halos, Halo};
pub use hod::{populate, Galaxy, HodParams};
pub use maps::{compton_y_map, xray_map, SkyMap};
pub use massfunc::mass_function;
pub use power::measure_power;
pub use slices::{slice_grid, SliceSpec};
pub use twopoint::{correlation_function, XiBin};
