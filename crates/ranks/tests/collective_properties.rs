//! Property tests for the `Comm` collectives: every collective must match
//! a single-threaded reference computed from the same per-rank inputs,
//! across world sizes 1, 2, 4, and 8 (satellite of the telemetry PR's
//! collective-semantics test tier).

use hacc_ranks::{Comm, World};
use hacc_rt::prop::prelude::*;

const SIZES: [usize; 4] = [1, 2, 4, 8];

/// Deterministic per-(seed, rank, ...) value generator (splitmix64 mix).
fn mix(vals: &[u64]) -> u64 {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_to_allv_matches_reference(seed in 0u64..10_000) {
        // Each rank r sends rank d a vector fully determined by
        // (seed, r, d); rank d must receive exactly data(s, d) from each
        // source s, in rank order.
        let data = |src: u64, dst: u64| -> Vec<u64> {
            let len = (mix(&[seed, src, dst]) % 5) as usize;
            (0..len as u64).map(|k| mix(&[seed, src, dst, k])).collect()
        };
        for &n in &SIZES {
            let out = World::run(n, |c: &mut Comm| {
                let sends: Vec<Vec<u64>> = (0..n as u64)
                    .map(|d| data(c.rank() as u64, d))
                    .collect();
                c.all_to_allv(sends)
            });
            for (dst, recvd) in out.iter().enumerate() {
                prop_assert_eq!(recvd.len(), n);
                for (src, buf) in recvd.iter().enumerate() {
                    prop_assert_eq!(buf, &data(src as u64, dst as u64));
                }
            }
        }
    }

    #[test]
    fn exchange_matches_all_to_allv_on_sparse_patterns(seed in 0u64..10_000) {
        // A random directed pattern, self-edges included: `s` sends `d`
        // a buffer exactly when `edge(s, d)`. The sparse exchange must
        // hand each rank what the dense all-to-all-v delivers from the
        // same sources, whatever order the sends are listed in.
        let edge = |s: usize, d: usize| mix(&[seed, 3, s as u64, d as u64]) % 3 == 0;
        let data = |src: u64, dst: u64| -> Vec<u64> {
            let len = (mix(&[seed, src, dst]) % 5) as usize;
            (0..len as u64).map(|k| mix(&[seed, src, dst, k])).collect()
        };
        for &n in &SIZES {
            let out = World::run(n, |c: &mut Comm| {
                let r = c.rank();
                let mut sends: Vec<(usize, Vec<u64>)> = (0..n)
                    .filter(|&d| edge(r, d))
                    .map(|d| (d, data(r as u64, d as u64)))
                    .collect();
                sends.sort_by_key(|(d, _)| mix(&[seed, 5, *d as u64]));
                let sources: Vec<usize> = (0..n).filter(|&s| edge(s, r)).collect();
                let sparse = c.exchange(sends, &sources);
                let dense = c.all_to_allv(
                    (0..n)
                        .map(|d| if edge(r, d) { data(r as u64, d as u64) } else { Vec::new() })
                        .collect(),
                );
                (sources, sparse, dense)
            });
            for (dst, (sources, sparse, dense)) in out.iter().enumerate() {
                prop_assert_eq!(sparse.len(), sources.len(), "rank {} of {}", dst, n);
                for (&src, buf) in sources.iter().zip(sparse) {
                    prop_assert_eq!(buf, &dense[src]);
                    prop_assert_eq!(buf, &data(src as u64, dst as u64));
                }
            }
        }
    }

    #[test]
    fn exscan_matches_prefix_sum_reference(seed in 0u64..10_000) {
        for &n in &SIZES {
            let vals: Vec<u64> = (0..n as u64).map(|r| mix(&[seed, r]) % 1_000).collect();
            let out = World::run(n, |c: &mut Comm| {
                c.exscan_u64(mix(&[seed, c.rank() as u64]) % 1_000)
            });
            for r in 0..n {
                let expect: u64 = vals[..r].iter().sum();
                prop_assert_eq!(out[r], expect, "rank {} of {}", r, n);
            }
        }
    }

    #[test]
    fn all_reduce_f64_sum_is_bitwise_rank_ordered(seed in 0u64..10_000) {
        // Floating-point addition is not associative, so the contract is
        // stronger than "close": the result must be the *rank-ordered*
        // left fold, bit for bit, on every rank.
        for &n in &SIZES {
            let vals: Vec<f64> = (0..n as u64)
                .map(|r| (mix(&[seed, r]) % 1_000_000) as f64 * 1e-3 - 500.0)
                .collect();
            let expect = vals[1..].iter().fold(vals[0], |a, &b| a + b);
            let out = World::run(n, |c: &mut Comm| {
                let v = (mix(&[seed, c.rank() as u64]) % 1_000_000) as f64 * 1e-3 - 500.0;
                c.all_reduce_f64(v, |a, b| a + b)
            });
            for (r, &got) in out.iter().enumerate() {
                prop_assert_eq!(
                    got.to_bits(), expect.to_bits(),
                    "rank {} of {}: {} vs {}", r, n, got, expect
                );
            }
        }
    }

    #[test]
    fn all_reduce_min_max_match_reference(seed in 0u64..10_000) {
        for &n in &SIZES {
            let vals: Vec<u64> = (0..n as u64).map(|r| mix(&[seed, r])).collect();
            let out = World::run(n, |c: &mut Comm| {
                let v = mix(&[seed, c.rank() as u64]);
                (c.all_reduce(v, |a, b| a.min(b)), c.all_reduce(v, |a, b| a.max(b)))
            });
            let (mn, mx) = (
                *vals.iter().min().unwrap(),
                *vals.iter().max().unwrap(),
            );
            for &(gmin, gmax) in &out {
                prop_assert_eq!(gmin, mn);
                prop_assert_eq!(gmax, mx);
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order(seed in 0u64..10_000) {
        for &n in &SIZES {
            let root = (mix(&[seed, 41]) % n as u64) as usize;
            let vals: Vec<u64> = (0..n as u64).map(|r| mix(&[seed, 7, r])).collect();
            let out = World::run(n, |c: &mut Comm| {
                c.gather(root, mix(&[seed, 7, c.rank() as u64]))
            });
            for (r, res) in out.iter().enumerate() {
                if r == root {
                    prop_assert_eq!(res.as_ref().unwrap(), &vals);
                } else {
                    prop_assert!(res.is_none());
                }
            }
        }
    }

    #[test]
    fn broadcast_delivers_root_value_everywhere(seed in 0u64..10_000) {
        for &n in &SIZES {
            let root = (mix(&[seed, 13]) % n as u64) as usize;
            let sent = mix(&[seed, 17, root as u64]);
            let out = World::run(n, |c: &mut Comm| {
                c.broadcast(root, mix(&[seed, 17, c.rank() as u64]))
            });
            prop_assert!(out.iter().all(|&v| v == sent));
        }
    }
}
