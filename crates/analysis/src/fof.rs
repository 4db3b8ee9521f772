//! Friends-of-friends halo finding (Davis et al. 1985): DBSCAN's
//! clustering kernel at `min_pts = 2` (`dbscan::cluster`), plus the halo
//! property reductions.

use crate::dbscan::cluster;

/// A friends-of-friends halo.
#[derive(Debug, Clone)]
pub struct Halo {
    /// Member particle indices.
    pub members: Vec<u32>,
    /// Total mass.
    pub mass: f64,
    /// Mass-weighted center.
    pub center: [f64; 3],
    /// Mass-weighted mean velocity.
    pub velocity: [f64; 3],
}

/// Run FOF with linking length `b_link` (absolute length, not a fraction
/// of mean separation) and keep groups with at least `min_members`. The
/// groups are the clusters at `min_pts = 2`, so a particle without a
/// friend is in none. Halos are returned sorted by descending mass.
pub fn fof_halos(
    positions: &[[f64; 3]],
    velocities: &[[f64; 3]],
    masses: &[f64],
    b_link: f64,
    min_members: usize,
) -> Vec<Halo> {
    let n = positions.len();
    assert_eq!(velocities.len(), n);
    assert_eq!(masses.len(), n);
    // Members in ascending index, groups in cluster-id order.
    let clusters = cluster(positions, b_link, 2);
    let mut groups = vec![Vec::new(); clusters.count];
    for (i, label) in clusters.label.iter().enumerate() {
        if let Some(c) = label {
            groups[*c as usize].push(i as u32);
        }
    }
    let mut halos: Vec<Halo> = groups
        .into_iter()
        .filter(|members| members.len() >= min_members)
        .map(|members| {
            let mut mass = 0.0;
            let mut center = [0.0f64; 3];
            let mut velocity = [0.0f64; 3];
            for &i in &members {
                let m = masses[i as usize];
                mass += m;
                for d in 0..3 {
                    center[d] += m * positions[i as usize][d];
                    velocity[d] += m * velocities[i as usize][d];
                }
            }
            for d in 0..3 {
                center[d] /= mass;
                velocity[d] /= mass;
            }
            Halo {
                members,
                mass,
                center,
                velocity,
            }
        })
        .collect();
    // e1: allow: halo masses are sums of finite particle masses and cannot be NaN
    halos.sort_by(|a, b| b.mass.partial_cmp(&a.mass).unwrap());
    halos
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_rt::rand::{self, Rng, SeedableRng};

    fn blob(center: [f64; 3], n: usize, r: f64, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                [
                    center[0] + rng.gen_range(-r..r),
                    center[1] + rng.gen_range(-r..r),
                    center[2] + rng.gen_range(-r..r),
                ]
            })
            .collect()
    }

    #[test]
    fn two_separated_blobs_two_halos() {
        let mut pos = blob([2.0; 3], 50, 0.3, 1);
        pos.extend(blob([8.0; 3], 80, 0.3, 2));
        let vel = vec![[0.0; 3]; pos.len()];
        let mass = vec![1.0; pos.len()];
        let halos = fof_halos(&pos, &vel, &mass, 0.3, 10);
        assert_eq!(halos.len(), 2);
        // Sorted by mass: the 80-particle blob first.
        assert_eq!(halos[0].members.len(), 80);
        assert_eq!(halos[1].members.len(), 50);
        // Centers near the blob centers.
        for d in 0..3 {
            assert!((halos[0].center[d] - 8.0).abs() < 0.2);
            assert!((halos[1].center[d] - 2.0).abs() < 0.2);
        }
    }

    #[test]
    fn linking_length_merges_blobs() {
        let mut pos = blob([2.0; 3], 30, 0.3, 3);
        pos.extend(blob([3.2; 3], 30, 0.3, 4));
        let vel = vec![[0.0; 3]; pos.len()];
        let mass = vec![1.0; pos.len()];
        let small = fof_halos(&pos, &vel, &mass, 0.25, 5);
        let large = fof_halos(&pos, &vel, &mass, 2.0, 5);
        assert!(small.len() >= 2, "short link should split: {}", small.len());
        assert_eq!(large.len(), 1, "long link should merge");
        assert_eq!(large[0].members.len(), 60);
    }

    #[test]
    fn isolated_particles_are_not_halos() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let pos: Vec<[f64; 3]> = (0..100)
            .map(|_| {
                [
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                ]
            })
            .collect();
        let vel = vec![[0.0; 3]; 100];
        let mass = vec![1.0; 100];
        // Sparse field, tiny linking length, min 5 members: nothing.
        let halos = fof_halos(&pos, &vel, &mass, 0.5, 5);
        assert!(halos.is_empty(), "found {} spurious halos", halos.len());
    }

    #[test]
    fn mass_weighted_properties() {
        // Two particles, unequal masses.
        let pos = vec![[0.0; 3], [1.0, 0.0, 0.0]];
        let vel = vec![[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]];
        let mass = vec![3.0, 1.0];
        let halos = fof_halos(&pos, &vel, &mass, 1.5, 2);
        assert_eq!(halos.len(), 1);
        let h = &halos[0];
        assert!((h.mass - 4.0).abs() < 1e-12);
        assert!((h.center[0] - 0.25).abs() < 1e-12);
        assert!((h.velocity[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn chain_percolates_into_one_halo() {
        // A chain of particles spaced just under the linking length must
        // percolate into a single group (FOF's defining transitivity).
        let pos: Vec<[f64; 3]> = (0..50).map(|i| [i as f64 * 0.9, 0.0, 0.0]).collect();
        let vel = vec![[0.0; 3]; 50];
        let mass = vec![1.0; 50];
        let halos = fof_halos(&pos, &vel, &mass, 1.0, 2);
        assert_eq!(halos.len(), 1);
        assert_eq!(halos[0].members.len(), 50);
    }
}
