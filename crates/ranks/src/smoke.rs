//! Self-checking communication smoke workload.
//!
//! One round exercises every collective kind the workspace uses —
//! barrier, broadcast, gather, all-gather, all-reduce, exclusive scan,
//! all-to-all-v — plus a point-to-point ring, with every payload drawn
//! from a closed-form splitmix mix of `(seed, phase, rank, ...)`. Each
//! rank asserts the exact expected value for everything it receives, so
//! a routing, matching, or scheduling bug fails loudly instead of
//! corrupting a digest silently.
//!
//! The per-rank return value is an order-sensitive FNV-1a digest over
//! all observed payloads. Because every payload is a pure function of
//! `(seed, size, rank)`, the digest is bitwise-reproducible across
//! lane counts and hosts — the scaling tier compares the
//! `frontier-sim ranks` output across repeated runs.

use crate::comm::Comm;

/// Deterministic value generator (splitmix64 finalizer over a word
/// list). The same function drives the collective property tests.
pub fn mix(vals: &[u64]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &v in vals {
        h ^= v.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    h
}

/// Run `rounds` self-checking rounds of the full collective suite plus
/// a p2p ring; returns this rank's digest.
///
/// Panics (with the offending rank, phase, and values) on any received
/// payload that differs from its closed-form expectation.
pub fn smoke(comm: &mut Comm, seed: u64, rounds: usize) -> u64 {
    let n = comm.size();
    let me = comm.rank() as u64;
    // Every observed payload, in order: the digest's input.
    let mut seen = Vec::new();
    for round in 0..rounds as u64 {
        let s = mix(&[seed, round]);

        comm.barrier();

        // Broadcast from a round-dependent root.
        let root = (mix(&[s, 1]) % n as u64) as usize;
        let want = mix(&[s, 2, root as u64]);
        let got = comm.broadcast(root, want);
        assert_eq!(got, want, "rank {me}: broadcast from root {root}");
        seen.push(got);

        // Gather at the same root.
        if let Some(all) = comm.gather(root, mix(&[s, 3, me])) {
            for (r, &v) in all.iter().enumerate() {
                assert_eq!(
                    v,
                    mix(&[s, 3, r as u64]),
                    "root {root}: gather slot {r}"
                );
                seen.push(v);
            }
        }

        // All-gather.
        let all = comm.all_gather(mix(&[s, 4, me]));
        for (r, &v) in all.iter().enumerate() {
            assert_eq!(v, mix(&[s, 4, r as u64]), "rank {me}: all_gather slot {r}");
            seen.push(v);
        }

        // All-reduce: rank-ordered wrapping sum (bitwise-deterministic).
        let sum = comm.all_reduce(mix(&[s, 5, me]), |a: u64, b| a.wrapping_add(b));
        let want: u64 = (0..n as u64)
            .fold(0u64, |acc, r| acc.wrapping_add(mix(&[s, 5, r])));
        assert_eq!(sum, want, "rank {me}: all_reduce sum");
        seen.push(sum);

        // Exclusive prefix scan over small counts.
        let scan = comm.exscan_u64(mix(&[s, 6, me]) & 0xffff);
        let want: u64 = (0..me).map(|r| mix(&[s, 6, r]) & 0xffff).sum();
        assert_eq!(scan, want, "rank {me}: exscan");
        seen.push(scan);

        // All-to-all-v with ragged per-pair lengths (0..=3).
        let sends: Vec<Vec<u64>> = (0..n as u64)
            .map(|dst| {
                let len = mix(&[s, 7, me, dst]) % 4;
                (0..len).map(|i| mix(&[s, 8, me, dst, i])).collect()
            })
            .collect();
        let recvs = comm.all_to_allv(sends);
        for (src, block) in recvs.iter().enumerate() {
            let src = src as u64;
            let want_len = (mix(&[s, 7, src, me]) % 4) as usize;
            assert_eq!(
                block.len(),
                want_len,
                "rank {me}: a2av block length from {src}"
            );
            for (i, &v) in block.iter().enumerate() {
                assert_eq!(
                    v,
                    mix(&[s, 8, src, me, i as u64]),
                    "rank {me}: a2av payload from {src} slot {i}"
                );
                seen.push(v);
            }
        }

        // Point-to-point ring: each rank forwards to its right neighbor.
        // The buffered send never blocks, so send-then-recv is safe.
        let right = (comm.rank() + 1) % n;
        let left = (comm.rank() + n - 1) % n;
        let tag = mix(&[s, 9]) & !(0b11 << 62); // keep reserved high bits clear
        comm.send(right, tag, mix(&[s, 10, me]));
        let got: u64 = comm.recv(left, tag);
        assert_eq!(got, mix(&[s, 10, left as u64]), "rank {me}: ring from {left}");
        seen.push(got);
    }
    hacc_rt::fnv1a(seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;

    #[test]
    fn digest_depends_on_seed_and_rank() {
        for n in [3usize, 4, 8] {
            let a = World::run(n, |comm| smoke(comm, 1, 2));
            let b = World::run(n, |comm| smoke(comm, 2, 2));
            assert_ne!(a, b, "n={n}");
            // Gather lands only on the root, so digests differ by rank.
            assert!(a.windows(2).any(|w| w[0] != w[1]), "n={n}");
        }
    }
}
