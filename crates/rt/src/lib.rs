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
//!   `proptest!` call sites;
//! * [`fnv1a`] — the workspace's one digest.
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

/// 64-bit FNV-1a over the little-endian bytes of `words`, in order: the
/// workspace's one digest (the final state hash, the rank smoke's
/// per-rank and per-run digests).
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for b in word.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_is_the_published_byte_hash() {
        // FNV-1a 64 of no bytes is the offset basis, of the byte "a"
        // 0xaf63dc4c8601ec8c; the word 0x61 is "a" and seven zero bytes.
        let prime = 0x0000_0100_0000_01b3u64;
        assert_eq!(super::fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a([0x61]), 0xaf63_dc4c_8601_ec8cu64.wrapping_mul(prime.wrapping_pow(7)));
    }
}
