//! `hacc-tree` — chaining mesh and coarse-leaf k-d trees.
//!
//! CRK-HACC organizes each rank's (overloaded) subdomain into fixed-size
//! chaining-mesh (CM) bins roughly four PM cells wide; short-range forces
//! only couple a bin to itself and its 26 neighbors. Inside each bin a
//! k-d tree subdivides particles into *coarse base leaves* of a few hundred
//! particles — much shallower than a CPU tree — and only those leaves are
//! kept. As particles drift during subcycles, leaf bounding boxes *grow*
//! instead of the tree being rebuilt; the tree is reconstructed only once
//! per global PM step. Leaf-pair interaction lists drive the GPU kernels.
//!
//! This crate is purely geometric: it knows nothing about forces. The SPH
//! and gravity crates consume [`ChainingMesh::interaction_pairs`].

#![forbid(unsafe_code)]

pub mod aabb;
pub mod cmesh;
pub mod kdtree;

pub use aabb::Aabb;
pub use cmesh::{ChainingMesh, CmConfig, LeafId, MAX_LEAF};
pub use kdtree::Leaf;
