//! The short-range symmetric-tile microbenchmark behind the tier-5
//! kernel ratchet (`BENCH_kernels.json`).
//!
//! Times the tiled symmetric leaf executors against the pre-fix one-sided
//! reference over identical interaction lists, emits `*_pairs_per_s` /
//! `*_speedup` metrics through [`hacc_bench::baseline`], and (under the
//! ratchet) asserts the headline >= 2x win the symmetric-tile fix claims.
//! The other hot kernels (1-D FFT, tree build, CRKSPH stack, FOF, LBVH,
//! block encode) are timed by the repo benchmark's `--trace 1` census.

use hacc_bench::{baseline, workloads};
use hacc_gpusim::{LeafExec, SplitKernel};
use std::hint::black_box;
use std::time::Instant;

/// Time repeated sweeps of one workload arm until `min_time_s` has been
/// spent measuring, returning pairs/second and the per-sweep pair count
/// (so the count and the wall time come from the same sweeps).
fn pairs_per_s<K: SplitKernel>(
    w: &workloads::ShortRangeWorkload<K>,
    exec: LeafExec,
    min_time_s: f64,
) -> (f64, u64)
where
    K::Accum: Default + Clone,
{
    // Warmup sweep (also the pair count — identical every sweep).
    let pairs = black_box(w.run(exec)).pairs;
    let mut sweeps = 0u32;
    let t = Instant::now();
    let mut elapsed;
    loop {
        black_box(w.run(exec));
        sweeps += 1;
        elapsed = t.elapsed().as_secs_f64();
        if elapsed >= min_time_s {
            break;
        }
    }
    (pairs as f64 * sweeps as f64 / elapsed, pairs)
}

fn main() {
    // Fixed measurement budget per arm: long enough for stable pairs/sec
    // (the ratchet tolerance is 15%), short enough for the verify gate,
    // and the same for blessed baselines and ratchet runs.
    let min_t = 0.3;
    let n = 20_000;
    let grav = workloads::grav_workload(n, 11);
    let force = workloads::crk_force_workload(n, 11);
    let density = workloads::sph_density_workload(n, 11);
    let moments = workloads::crk_moments_workload(n, 11);

    let (grav_tiled, gp) = pairs_per_s(&grav, LeafExec::Tiled, min_t);
    let (grav_ref, _) = pairs_per_s(&grav, LeafExec::Reference, min_t);
    let (force_tiled, fp) = pairs_per_s(&force, LeafExec::Tiled, min_t);
    let (force_ref, _) = pairs_per_s(&force, LeafExec::Reference, min_t);
    let (density_tiled, dp) = pairs_per_s(&density, LeafExec::Tiled, min_t);
    let (moments_tiled, mp) = pairs_per_s(&moments, LeafExec::Tiled, min_t);
    let grav_speedup = grav_tiled / grav_ref;
    let force_speedup = force_tiled / force_ref;

    println!(
        "bench  short_range_symmetric/grav ({gp} pairs): tiled {:.3e} pairs/s, reference {:.3e} pairs/s, speedup {grav_speedup:.2}x",
        grav_tiled, grav_ref
    );
    println!(
        "bench  short_range_symmetric/crk_force ({fp} pairs): tiled {:.3e} pairs/s, reference {:.3e} pairs/s, speedup {force_speedup:.2}x",
        force_tiled, force_ref
    );
    println!(
        "bench  short_range_symmetric/sph_density ({dp} pairs): tiled {density_tiled:.3e} pairs/s"
    );
    println!(
        "bench  short_range_symmetric/crk_moments ({mp} pairs): tiled {moments_tiled:.3e} pairs/s"
    );

    baseline::record(&[
        ("short_range_grav_tiled_pairs_per_s", grav_tiled),
        ("short_range_grav_reference_pairs_per_s", grav_ref),
        ("short_range_grav_symmetric_speedup", grav_speedup),
        ("short_range_crk_force_tiled_pairs_per_s", force_tiled),
        ("short_range_crk_force_reference_pairs_per_s", force_ref),
        ("short_range_crk_force_symmetric_speedup", force_speedup),
        ("short_range_sph_density_tiled_pairs_per_s", density_tiled),
        ("short_range_crk_moments_tiled_pairs_per_s", moments_tiled),
    ]);

    // Acceptance: the headline short-range kernel must hold its measured
    // >= 2x win whenever the ratchet gate is armed.
    if baseline::ratchet_mode() {
        assert!(
            force_speedup >= 2.0,
            "crk_force symmetric speedup {force_speedup:.2}x fell below the 2x acceptance line"
        );
    }
}
