//! Cosmology background, units, and linear theory for the Frontier-E
//! reproduction.
//!
//! This crate provides everything "upstream" of the N-body/hydro solver:
//! physical constants in simulation units, the FLRW background expansion
//! history, the linear growth factor, the Eisenstein–Hu transfer function,
//! and the normalized linear matter power spectrum used to seed initial
//! conditions.
//!
//! # Units
//!
//! Following HACC conventions, the simulation works in comoving coordinates
//! with lengths in `Mpc/h`, velocities in `km/s` (peculiar), masses in
//! `M_sun/h`, and the scale factor `a` as the time variable (`a = 1` today,
//! redshift `z = 1/a - 1`).
//!
//! # Example
//!
//! ```
//! use hacc_units::{CosmologyParams, Background};
//!
//! let cosmo = CosmologyParams::planck2018();
//! let bg = Background::new(cosmo);
//! // Growth factor is normalized to D(a=1) = 1.
//! let d_half = bg.growth_factor(0.5);
//! assert!(d_half > 0.4 && d_half < 0.8);
//! ```

#![forbid(unsafe_code)]

pub mod constants;
pub mod cosmology;
pub mod interp;
pub mod power;
pub mod transfer;

pub use cosmology::{Background, CosmologyParams};
pub use interp::InterpTable;
pub use power::LinearPower;
pub use transfer::eisenstein_hu_no_wiggle;
