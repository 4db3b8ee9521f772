//! `hacc-sph` — Conservative Reproducing Kernel SPH (CRKSPH).
//!
//! CRK-HACC evolves baryonic gas with CRKSPH (Frontiere, Raskin & Owen
//! 2017): a mesh-free higher-order SPH formulation whose interpolants are
//! corrected to reproduce constant and linear fields *exactly*, removing
//! the leading-order errors of classic SPH while keeping explicit
//! conservation of mass, momentum, and energy.
//!
//! Pipeline per hydro evaluation (each stage is a `hacc-gpusim`
//! [`hacc_gpusim::SplitKernel`], executed over the chaining-mesh leaf
//! pairs exactly like the paper's GPU kernels):
//!
//! 1. [`hydro::DensityKernel`] — raw SPH density `rho_i = sum m_j W_ij`,
//!    giving per-particle volumes `V_i = m_i / rho_i`;
//! 2. [`hydro::MomentsKernel`] — the moments `m0, m1, m2` of the kernel,
//!    inverted into the linear-order correction coefficients `A_i, B_i`
//!    (this is the paper's highest-FLOP kernel);
//! 3. [`hydro::ForceKernel`] — corrected-kernel momentum and energy
//!    updates with Monaghan artificial viscosity, in the antisymmetrized
//!    pair form that conserves momentum to machine precision.
//!
//! The public driver is [`pipeline::sph_step_sinks`] ([`pipeline::sph_step`]
//! when every particle's forces are wanted).
//!
//! An optional fourth stage ([`hydro::VelGradKernel`]) computes velocity
//! divergence and curl for the Balsara (1995) shear limiter
//! (`HydroOptions::use_balsara`), which suppresses artificial viscosity
//! in pure shear/rotation while keeping it in compression.
//!
//! # Simplifications vs the full CRKSPH paper (documented per DESIGN.md)
//!
//! * The correction-coefficient *gradients* (`∇A`, `∇B`) are dropped from
//!   the force gradient (they are subdominant and do not affect the
//!   conservation proofs, which rely only on pair antisymmetry).

#![forbid(unsafe_code)]

pub mod crk;
pub mod eos;
pub mod hydro;
pub mod kernel;
pub mod pipeline;

pub use crk::{invert_sym3, CrkCorrections, Moments};
pub use eos::IdealGas;
pub use hydro::{ForceKernel, HydroOptions, VelGradKernel};
pub use kernel::{CubicSpline, SphKernel, WendlandC4};
pub use pipeline::{sph_step, sph_step_sinks, SphInput, SphResult};
