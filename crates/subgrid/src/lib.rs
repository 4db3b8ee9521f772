//! `hacc-subgrid` — astrophysical source and sink models.
//!
//! CRK-HACC couples the hydro solver to calibrated subgrid astrophysics:
//! radiative and metal-line cooling, a UV background, stochastic star
//! formation, supernova feedback with chemical enrichment, and AGN
//! seeding/accretion/feedback. AGN feedback is not modelled here: a
//! black-hole population is state a run would have to migrate and
//! checkpoint, and nothing in this reproduction reads one. The paper's
//! production models are CLOUDY-tabulated and calibrated on Perlmutter
//! mid-scale runs; per the reproduction's substitution rule we use the
//! standard analytic forms from the galaxy-formation literature, which
//! preserve the performance-relevant behaviour: they fire in dense
//! collapsed regions, force short timesteps there, and inject energy
//! stochastically.
//!
//! * [`cooling`] — primordial + metal-line cooling `Λ(T, Z)` with UV
//!   heating, and a stable exponential-decay integrator;
//! * [`starform`] — Schmidt-law stochastic star formation above a density
//!   threshold;
//! * [`feedback`] — supernova thermal energy dumps and mass return with
//!   metal yields.
//!
//! Units follow the simulation conventions: specific energies in
//! `(km/s)²`, densities in comoving `(M_sun/h)/(Mpc/h)³`, rates per Gyr.

#![forbid(unsafe_code)]

pub mod cooling;
pub mod feedback;
pub mod starform;

pub use cooling::CoolingModel;
pub use feedback::SupernovaModel;
pub use starform::StarFormationModel;
