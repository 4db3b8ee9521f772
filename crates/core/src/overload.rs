//! Particle migration and overload (ghost) exchange.
//!
//! CRK-HACC's key communication-avoidance device (Fig. 2, top left):
//! rank subdomains *overlap* — every rank keeps read-only copies of all
//! particles within an overload width of its boundary, so the entire
//! short-range solve (tree build, SPH, gravity, subgrid, clustering
//! analysis) is node-local for a full PM step. The overload is refreshed
//! once per PM step with a sparse exchange among each rank's 27
//! neighbours, right after particles that drifted out of their owner's
//! subdomain migrate (a dense all-to-all).

use crate::particles::{ParticleRecord, ParticleStore};
use hacc_ranks::{CartDecomp, Comm};

/// Wrap owned positions periodically into `[0, box)³`.
pub fn wrap_positions(store: &mut ParticleStore, box_size: f64) {
    for p in store.pos.iter_mut().take(store.n_owned) {
        for d in 0..3 {
            p[d] = p[d].rem_euclid(box_size);
        }
    }
}

/// Migrate owned particles to the ranks that own their (wrapped)
/// positions. Ghosts are discarded. Preserves every particle exactly once
/// globally.
pub fn migrate(
    comm: &mut Comm,
    decomp: &CartDecomp,
    store: &mut ParticleStore,
    box_size: f64,
) {
    store.truncate_to_owned();
    wrap_positions(store, box_size);
    let mut sends: Vec<Vec<ParticleRecord>> = vec![Vec::new(); comm.size()];
    for i in 0..store.len() {
        let p = store.pos[i];
        let owner = decomp.owner_of([
            p[0] / box_size,
            p[1] / box_size,
            p[2] / box_size,
        ]);
        sends[owner].push(store.extract(i));
    }
    let recvd = comm.all_to_allv(sends);
    let mut fresh = ParticleStore::new();
    for buf in recvd {
        for r in buf {
            fresh.insert(r);
        }
    }
    fresh.seal_owned();
    *store = fresh;
}

/// The axes a rank treats as periodic inside itself: those its subdomain
/// spans whole (`dims[d] == 1`), in a box at least three overload widths
/// long. Along such an axis every rank's only neighbour is itself, so
/// the overload would hold nothing but periodic copies of the rank's own
/// particles; [`exchange_overload`] ships no images along it, and the
/// driver's chaining meshes wrap over `[0, box_size)` instead. Their bins
/// are the short-range cutoff wide, which `SimConfig::check` keeps within
/// the overload width, so a wrapped axis holds the three bins minimum
/// image needs. Smaller boxes keep their images.
pub fn wrapped_axes(decomp: &CartDecomp, box_size: f64, width: f64) -> [bool; 3] {
    decomp.dims.map(|n| n == 1 && box_size >= 3.0 * width)
}

/// Refresh the overload: append ghost copies of every remote (and
/// periodic-image) particle within `width` of this rank's subdomain.
/// Owned particles must already be wrapped and correctly homed
/// (run [`migrate`] first). Ghost positions are shifted by the periodic
/// image so they are spatially contiguous with the receiving domain.
/// Along the [`wrapped_axes`] no image is shipped.
pub fn exchange_overload(
    comm: &mut Comm,
    decomp: &CartDecomp,
    store: &mut ParticleStore,
    box_size: f64,
    width: f64,
) {
    store.truncate_to_owned();
    let rank = comm.rank();
    // Sanity: the overload cannot exceed a subdomain extent, or
    // next-nearest neighbors would be needed.
    for d in 0..3 {
        let extent = box_size / decomp.dims[d] as f64;
        assert!(
            width <= extent + 1e-12,
            "overload width {width} exceeds subdomain extent {extent}"
        );
    }

    // Precompute every neighbor's subdomain in box units.
    let subdomain = |r: usize| -> ([f64; 3], [f64; 3]) {
        let (lo, hi) = decomp.subdomain(r);
        (
            [lo[0] * box_size, lo[1] * box_size, lo[2] * box_size],
            [hi[0] * box_size, hi[1] * box_size, hi[2] * box_size],
        )
    };

    // Candidate receivers: the (deduplicated, ascending) 27-neighborhood
    // of this rank. Because the overload width never exceeds a subdomain
    // extent, any rank whose extended domain contains one of our particle
    // images is in this set. The relation is symmetric, so the same list
    // names the ranks that send to this one.
    let mut neighbor_ranks: Vec<usize> = Vec::with_capacity(27);
    for dx in -1isize..=1 {
        for dy in -1isize..=1 {
            for dz in -1isize..=1 {
                neighbor_ranks.push(decomp.neighbor(rank, [dx, dy, dz]));
            }
        }
    }
    neighbor_ranks.sort_unstable();
    neighbor_ranks.dedup();
    let extended: Vec<([f64; 3], [f64; 3])> = neighbor_ranks
        .iter()
        .map(|&nr| {
            let (lo, hi) = subdomain(nr);
            (
                [lo[0] - width, lo[1] - width, lo[2] - width],
                [hi[0] + width, hi[1] + width, hi[2] + width],
            )
        })
        .collect();

    let wrap = wrapped_axes(decomp, box_size, width);
    let images = |d: usize| if wrap[d] { 0..=0 } else { -1i64..=1 };

    let mut sends: Vec<Vec<ParticleRecord>> = vec![Vec::new(); neighbor_ranks.len()];
    for i in 0..store.n_owned {
        let p = store.pos[i];
        // Enumerate every periodic image; ship each image to every
        // neighbor rank whose extended domain contains it.
        for kx in images(0) {
            for ky in images(1) {
                for kz in images(2) {
                    let img = [
                        p[0] + kx as f64 * box_size,
                        p[1] + ky as f64 * box_size,
                        p[2] + kz as f64 * box_size,
                    ];
                    let self_image = kx == 0 && ky == 0 && kz == 0;
                    for (ni, &nr) in neighbor_ranks.iter().enumerate() {
                        if self_image && nr == rank {
                            continue;
                        }
                        let (elo, ehi) = &extended[ni];
                        if (0..3).all(|d| img[d] >= elo[d] && img[d] < ehi[d]) {
                            let mut rec = store.extract(i);
                            rec.pos = img;
                            sends[ni].push(rec);
                        }
                    }
                }
            }
        }
    }
    // Ghosts land in ascending source rank order, as a dense all-to-all
    // would deliver them.
    let recvd = comm.exchange(
        neighbor_ranks.iter().copied().zip(sends).collect(),
        &neighbor_ranks,
    );
    for buf in recvd {
        for r in buf {
            store.insert(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::particles::Species;
    use hacc_ranks::World;
    use hacc_rt::rand::{self, Rng, SeedableRng};

    /// A unit-mass dark-matter particle at rest.
    fn dm(pos: [f64; 3], id: u64) -> ParticleRecord {
        ParticleRecord {
            pos,
            vel: [0.0; 3],
            mass: 1.0,
            species: Species::DarkMatter,
            u: 0.0,
            metals: 0.0,
            h: 0.0,
            id,
        }
    }

    fn random_store(rank: usize, n: usize, box_size: f64) -> ParticleStore {
        let mut rng = rand::rngs::StdRng::seed_from_u64(rank as u64 + 100);
        let mut s = ParticleStore::new();
        for i in 0..n {
            let pos = [(); 3].map(|()| rng.gen_range(0.0..box_size));
            s.insert(dm(pos, (rank * n + i) as u64));
        }
        s.seal_owned();
        s
    }

    #[test]
    fn migrate_homes_every_particle() {
        let box_size = 10.0;
        let results = World::run(4, |comm| {
            let decomp = CartDecomp::new(comm.size());
            let mut store = random_store(comm.rank(), 100, box_size);
            migrate(comm, &decomp, &mut store, box_size);
            let (lo, hi) = decomp.subdomain(comm.rank());
            for p in &store.pos {
                for d in 0..3 {
                    assert!(
                        p[d] >= lo[d] * box_size - 1e-12 && p[d] < hi[d] * box_size + 1e-12,
                        "particle outside domain after migrate"
                    );
                }
            }
            let ids: Vec<u64> = store.id.clone();
            (store.len(), ids)
        });
        let total: usize = results.iter().map(|(n, _)| n).sum();
        assert_eq!(total, 400);
        let mut all_ids: Vec<u64> = results.into_iter().flat_map(|(_, ids)| ids).collect();
        all_ids.sort_unstable();
        all_ids.dedup();
        assert_eq!(all_ids.len(), 400, "ids lost or duplicated");
    }

    #[test]
    fn migrate_wraps_out_of_box_positions() {
        let box_size = 8.0;
        World::run(2, |comm| {
            let decomp = CartDecomp::new(comm.size());
            let mut s = ParticleStore::new();
            if comm.rank() == 0 {
                let out_of_box = dm([-1.0, 9.0, 4.0], 7);
                s.insert(ParticleRecord { species: Species::Gas, u: 1.0, h: 0.1, ..out_of_box });
            }
            s.seal_owned();
            migrate(comm, &decomp, &mut s, box_size);
            for p in &s.pos {
                for d in 0..3 {
                    assert!(p[d] >= 0.0 && p[d] < box_size);
                }
            }
            let n = comm.all_reduce_sum_u64(s.len() as u64);
            assert_eq!(n, 1);
        });
    }

    /// Golden overload invariant: after the exchange, every rank can see
    /// (as owned or ghost) every particle within `width` of its domain,
    /// including periodic images, at the correctly shifted position, and
    /// holds no other ghost. Along a wrapped axis the domain is the
    /// period `[0, box)` itself: no image falls inside it. Width 2 wraps
    /// the axis the 2x2x1 decomposition spans; width 4 (under three per
    /// box) keeps its images.
    #[test]
    fn overload_covers_extended_domain() {
        let box_size = 10.0;
        let n_per_rank = 60;
        for (width, wraps) in [(2.0, [false, false, true]), (4.0, [false; 3])] {
            let results = World::run(4, |comm| {
                let decomp = CartDecomp::new(comm.size());
                assert_eq!(wrapped_axes(&decomp, box_size, width), wraps);
                let mut store = random_store(comm.rank(), n_per_rank, box_size);
                migrate(comm, &decomp, &mut store, box_size);
                // Capture the global particle set for brute-force checking.
                let owned: Vec<([f64; 3], u64)> = (0..store.n_owned)
                    .map(|i| (store.pos[i], store.id[i]))
                    .collect();
                let all: Vec<([f64; 3], u64)> = comm
                    .all_gather(owned)
                    .into_iter()
                    .flatten()
                    .collect();
                exchange_overload(comm, &decomp, &mut store, box_size, width);
                let (lo, hi) = decomp.subdomain(comm.rank());
                let pad = wraps.map(|w| if w { 0.0 } else { width });
                let lo = [0, 1, 2].map(|d| lo[d] * box_size - pad[d]);
                let hi = [0, 1, 2].map(|d| hi[d] * box_size + pad[d]);
                // Brute force: every global particle image in the extended
                // domain must be present in the local store.
                let (mut missing, mut wanted) = (0, 0);
                for (p, id) in &all {
                    for kx in -1i64..=1 {
                        for ky in -1i64..=1 {
                            for kz in -1i64..=1 {
                                let img = [
                                    p[0] + kx as f64 * box_size,
                                    p[1] + ky as f64 * box_size,
                                    p[2] + kz as f64 * box_size,
                                ];
                                let inside = (0..3).all(|d| img[d] >= lo[d] && img[d] < hi[d]);
                                if !inside {
                                    continue;
                                }
                                wanted += 1;
                                let found = store.pos.iter().zip(&store.id).any(|(q, &qid)| {
                                    qid == *id && (0..3).all(|d| (q[d] - img[d]).abs() < 1e-9)
                                });
                                if !found {
                                    missing += 1;
                                }
                            }
                        }
                    }
                }
                (missing, wanted, store.len())
            });
            for (missing, wanted, held) in results {
                assert_eq!(missing, 0, "missing overload images at width {width}");
                assert_eq!(held, wanted, "ghosts outside the domain at width {width}");
            }
        }
    }

    /// A box under three overload widths wraps no axis: one rank then
    /// sources its boundary from periodic copies of its own particles.
    #[test]
    fn single_rank_gets_periodic_self_images() {
        let box_size = 10.0;
        World::run(1, |comm| {
            let decomp = CartDecomp::new(1);
            assert_eq!(wrapped_axes(&decomp, box_size, 4.0), [false; 3]);
            let mut s = ParticleStore::new();
            s.insert(dm([0.5, 5.0, 5.0], 1));
            s.insert(dm([5.0, 5.0, 5.0], 2));
            s.seal_owned();
            exchange_overload(comm, &decomp, &mut s, box_size, 4.0);
            // Particle 1 near x=0: an image at x = 10.5 must appear.
            let has_image = s
                .pos
                .iter()
                .skip(s.n_owned)
                .any(|p| (p[0] - 10.5).abs() < 1e-12);
            assert!(has_image, "periodic self-image missing");
            // The interior particle produces no ghosts.
            let interior_ghosts = s
                .id
                .iter()
                .skip(s.n_owned)
                .filter(|&&id| id == 2)
                .count();
            assert_eq!(interior_ghosts, 0);
        });
    }

    /// One rank's `(rank, owned ids, ghost positions and ids)`.
    type RankGhosts = (usize, Vec<u64>, Vec<([f64; 3], u64)>);

    /// The ghosts each rank holds after migrate + exchange, with the
    /// overload width of `SimConfig::small(np)` (4 cells of 1 Mpc/h) and
    /// 300 random particles per rank.
    fn ghosts_of(n_ranks: usize, np: usize) -> Vec<RankGhosts> {
        let cfg = crate::config::SimConfig::small(np);
        let width = cfg.overload_cells * cfg.cell_size();
        World::run(n_ranks, |comm| {
            let decomp = CartDecomp::new(comm.size());
            let mut store = random_store(comm.rank(), 300, cfg.box_size);
            migrate(comm, &decomp, &mut store, cfg.box_size);
            exchange_overload(comm, &decomp, &mut store, cfg.box_size, width);
            let n = store.n_owned;
            let ghosts = store.pos[n..].iter().copied().zip(store.id[n..].iter().copied());
            (comm.rank(), store.id[..n].to_vec(), ghosts.collect())
        })
    }

    #[test]
    fn one_rank_world_holds_no_ghosts() {
        for np in [12, 16] {
            let cfg = crate::config::SimConfig::small(np);
            let width = cfg.overload_cells * cfg.cell_size();
            assert_eq!(wrapped_axes(&CartDecomp::new(1), cfg.box_size, width), [true; 3]);
            for (_, owned, ghosts) in ghosts_of(1, np) {
                assert_eq!(owned.len(), 300);
                assert!(ghosts.is_empty(), "np {np}: {} ghosts", ghosts.len());
            }
        }
    }

    #[test]
    fn ghosts_come_only_from_shared_axes_and_other_ranks() {
        let box_size = 16.0;
        for n_ranks in [2, 4] {
            let decomp = CartDecomp::new(n_ranks);
            let wrap = wrapped_axes(&decomp, box_size, 4.0);
            assert!(wrap.iter().any(|&w| w) && !wrap.iter().all(|&w| w));
            for (rank, owned, ghosts) in ghosts_of(n_ranks, 16) {
                assert!(!ghosts.is_empty(), "{n_ranks} ranks: rank {rank} has no ghosts");
                let (lo, hi) = decomp.subdomain(rank);
                for (p, id) in ghosts {
                    assert!(!owned.contains(&id), "rank {rank} holds an image of its own {id}");
                    // Inside the period along the wrapped axes, outside
                    // the subdomain along some shared one.
                    for d in (0..3).filter(|&d| wrap[d]) {
                        assert!((0.0..box_size).contains(&p[d]), "ghost {id} imaged along {d}");
                    }
                    let outside = (0..3).filter(|&d| !wrap[d]).any(|d| {
                        p[d] < lo[d] * box_size || p[d] >= hi[d] * box_size
                    });
                    assert!(outside, "ghost {id} at {p:?} inside rank {rank}'s subdomain");
                }
            }
        }
    }

    /// Per-rank ghost counts of [`ghosts_of`]`(8, 16)`.
    const PINNED_EIGHT_RANK_GHOSTS: [usize; 8] = [2124, 2094, 2088, 2103, 2115, 2068, 2102, 2106];

    #[test]
    fn eight_rank_ghosts_are_unchanged() {
        // 2x2x2 spans no axis: every ghost is a neighbour's particle or a
        // periodic image, exactly as before wrapped axes existed. Counts
        // pinned from the exchange that always shipped images.
        assert_eq!(wrapped_axes(&CartDecomp::new(8), 16.0, 4.0), [false; 3]);
        let counts: Vec<usize> = ghosts_of(8, 16).iter().map(|(_, _, g)| g.len()).collect();
        assert_eq!(counts, PINNED_EIGHT_RANK_GHOSTS);
    }

    #[test]
    fn ghosts_do_not_accumulate_across_refreshes() {
        let box_size = 10.0;
        World::run(2, |comm| {
            let decomp = CartDecomp::new(comm.size());
            let mut store = random_store(comm.rank(), 40, box_size);
            migrate(comm, &decomp, &mut store, box_size);
            exchange_overload(comm, &decomp, &mut store, box_size, 1.5);
            let ghosts1 = store.len() - store.n_owned;
            exchange_overload(comm, &decomp, &mut store, box_size, 1.5);
            let ghosts2 = store.len() - store.n_owned;
            assert_eq!(ghosts1, ghosts2, "refresh must replace, not append");
        });
    }
}
