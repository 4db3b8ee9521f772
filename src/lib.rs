//! `frontier-sim` — umbrella crate for the CRK-HACC / Frontier-E
//! reproduction.
//!
//! Re-exports the public API of every workspace crate so examples,
//! integration tests, and downstream users can depend on a single crate.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every table and figure.

#![forbid(unsafe_code)]

pub use hacc_analysis as analysis;
pub use hacc_core as core;
pub use hacc_fault as fault;
pub use hacc_gpusim as gpusim;
pub use hacc_grav as grav;
pub use hacc_iosim as iosim;
pub use hacc_mesh as mesh;
pub use hacc_ranks as ranks;
pub use hacc_san as san;
pub use hacc_sph as sph;
pub use hacc_subgrid as subgrid;
pub use hacc_swfft as swfft;
pub use hacc_telem as telem;
pub use hacc_tree as tree;
pub use hacc_units as units;
