//! The microbenchmarks behind the tier-5 kernel ratchet
//! (`BENCH_kernels.json`): the short-range symmetric tiles, the
//! long-range PM solve and the batched slab FFT.
//!
//! Times three sweeps of identical interaction lists against each other —
//! the production one (symmetric tiles over lane-compacted leaf pairs), the
//! same tiles swept dense, and the one-sided oracle
//! (`hacc_gpusim::reference::sweep`) — and
//! `PmSolver::accelerations` (real transforms over half spectra) against
//! the same solve assembled from the complex transforms with one inverse
//! per component, and `DistFft3d::forward` (batched line passes) against
//! the same 3-D transform one line at a time through `FftPlan::forward`;
//! emits `*_pairs_per_s` (list-sized pairs) /
//! `*_cells_per_s` / `*_speedup` metrics through [`hacc_bench::baseline`],
//! and (under the ratchet) asserts the >= 2x win the symmetric-tile fix
//! claims and the >= 1.55x win of the half-spectrum solve.
//! Every `*_speedup` is the ratio of two arms' fastest times over samples
//! in which the arms alternate and their order flips every sample (ABBA),
//! so no arm always runs after the same one and a host that slows the run
//! down in bursts, which only ever adds time, drops out; the absolute
//! rates are printed and recorded as information only.
//! The other hot kernels (1-D FFT, tree build, CRKSPH stack, FOF, LBVH,
//! block encode) are timed by the repo benchmark's `--trace 1` census.

use hacc_bench::baseline;
use hacc_bench::workloads::{self, Arm};
use hacc_gpusim::SplitKernel;
use hacc_mesh::poisson::{apply_greens_gradient, GreensOptions};
use hacc_mesh::{cic, PmConfig, PmSolver};
use hacc_ranks::{Comm, World};
use hacc_rt::rand::{self, Rng, SeedableRng};
use hacc_swfft::{Complex64, DistFft3d, FftPlan};
use std::hint::black_box;
use std::time::Instant;

/// Time repeated production sweeps of one workload until `min_time_s` has
/// been spent measuring, returning list-sized pairs/second
/// (`KernelCounters::list_pairs`: rows of every arm, and of baselines
/// blessed before compaction existed, count the same pairs) and the
/// per-sweep count (so the count and the wall time come from the same
/// sweeps).
fn pairs_per_s<K: SplitKernel>(w: &workloads::ShortRangeWorkload<K>, min_time_s: f64) -> (f64, u64) {
    // Warmup sweep (also the pair count — identical every sweep).
    let pairs = black_box(w.run(Arm::Tiled)).list_pairs();
    let mut sweeps = 0u32;
    let t = Instant::now();
    let mut elapsed;
    loop {
        black_box(w.run(Arm::Tiled));
        sweeps += 1;
        elapsed = t.elapsed().as_secs_f64();
        if elapsed >= min_time_s {
            break;
        }
    }
    (pairs as f64 * sweeps as f64 / elapsed, pairs)
}

/// The fastest of a series of times.
fn fastest(times: impl IntoIterator<Item = f64>) -> f64 {
    times.into_iter().fold(f64::MAX, f64::min)
}

/// What [`short_range_arms`] measured of one workload.
struct Arms {
    /// List-sized pairs per sweep.
    pairs: u64,
    /// Production sweep, list-sized pairs per second.
    tiled_per_s: f64,
    /// Reference sweep, pairs per second.
    reference_per_s: f64,
    /// Fastest reference time ÷ fastest dense-tiled time: the symmetric
    /// tiles alone, both arms evaluating every pair of the list.
    symmetric_speedup: f64,
    /// Fastest dense-tiled time ÷ fastest production time: lane
    /// compaction alone, both arms through the same tile executor.
    compaction_speedup: f64,
}

/// Alternate one production, one dense and one reference sweep of a
/// workload, in reversed order every other sample, until the production
/// arm has measured for `min_time_s` and each arm has at least five
/// samples. On a 2-core host sharing a core with a memory-streaming
/// process, a fixed order slowed the dense arm alone (its median time rose
/// 40%, its fastest did not move) and pulled crk_force's median symmetric
/// ratio from 2.8 to 2.3.
fn short_range_arms<K: SplitKernel>(w: &workloads::ShortRangeWorkload<K>, min_time_s: f64) -> Arms {
    // Warm-up sweeps (also the pair count — identical every sweep).
    let pairs = black_box(w.run(Arm::Tiled)).list_pairs();
    black_box(w.run(Arm::Dense));
    black_box(w.run(Arm::Reference));
    let timed = |arm| {
        let t = Instant::now();
        black_box(w.run(arm));
        t.elapsed().as_secs_f64()
    };
    // Per arm in `[Tiled, Dense, Reference]` order: total and fastest time.
    let (mut total, mut best) = ([0.0; 3], [f64::MAX; 3]);
    let mut order = [Arm::Tiled, Arm::Dense, Arm::Reference];
    let mut samples = 0;
    while total[0] < min_time_s || samples < 5 {
        for arm in order {
            let t = timed(arm);
            total[arm as usize] += t;
            best[arm as usize] = best[arm as usize].min(t);
        }
        order.reverse();
        samples += 1;
    }
    let swept = pairs as f64 * samples as f64;
    Arms {
        pairs,
        tiled_per_s: swept / total[0],
        reference_per_s: swept / total[2],
        symmetric_speedup: best[2] / best[1],
        compaction_speedup: best[1] / best[0],
    }
}

/// The PM solve assembled from its public pieces over the full complex
/// spectrum, one inverse transform and one plane gather per force
/// component: the reference `accelerations` is tested against.
fn three_inverse_accelerations(
    comm: &mut Comm,
    solver: &PmSolver,
    fft: &DistFft3d,
    positions: &[[f64; 3]],
    masses: &[f64],
) -> Vec<[f64; 3]> {
    let cfg = solver.config();
    let n = cfg.n;
    let cell_vol = (cfg.box_size / n as f64).powi(3);
    let mut rho: Vec<Complex64> = solver
        .mass_slab(comm, positions, masses)
        .iter()
        .map(|&m| Complex64::new(m / cell_vol, 0.0))
        .collect();
    fft.forward(comm, &mut rho);
    let opts = GreensOptions {
        prefactor: cfg.prefactor,
        split_scale: cfg.split_scale,
        deconvolve_cic: cfg.deconvolve_cic,
    };
    let force_k = apply_greens_gradient(&rho, n, fft.y0, fft.ny, cfg.box_size, &opts);
    drop(rho);
    let needed = cic::needed_planes(n, cfg.box_size, positions);
    let mut accel = vec![[0.0f64; 3]; positions.len()];
    for (d, mut comp) in force_k.into_iter().enumerate() {
        fft.inverse(comm, &mut comp);
        let real: Vec<f64> = comp.iter().map(|c| c.re).collect();
        drop(comp);
        let planes = cic::gather_planes(comm, n, &real, &needed);
        let vals = cic::interpolate(n, cfg.box_size, positions, &planes);
        for (a, v) in accel.iter_mut().zip(vals) {
            a[d] = v;
        }
    }
    accel
}

/// The long-range layer: a 64³ PM solve on 2 ranks, `samples` alternating
/// calls of `accelerations` and the complex three-inverse assembly inside one
/// world, each timed on its slower rank. Returns (grid cells per second of
/// the fastest `accelerations` call — interference only ever adds — and
/// the fastest reference time ÷ the fastest `accelerations` time). Every
/// other sample runs the reference first, so neither arm always inherits
/// what the other leaves behind: with a fixed order, glibc's `malloc`
/// tunables (trim and mmap thresholds, arena count) alone moved one
/// build's ratio between 1.55 and 1.85.
fn long_range(samples: usize) -> (f64, f64) {
    let n = 64;
    let box_size = 64.0;
    let per_rank = World::run(2, |comm| {
        let solver = PmSolver::new(comm, PmConfig::new(n, box_size, 4.0 * std::f64::consts::PI));
        let fft = DistFft3d::new(comm, n);
        // Few particles per cell, each rank's in its own half of the box:
        // the transforms carry the solve, as on the `pm-grid` workload.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11 + comm.rank() as u64);
        let x_lo = comm.rank() as f64 * box_size / 2.0;
        let pos: Vec<[f64; 3]> = (0..2048)
            .map(|_| {
                let [y, z] = [0; 2].map(|_| rng.gen_range(0.0..box_size));
                [x_lo + rng.gen_range(0.0..box_size / 2.0), y, z]
            })
            .collect();
        let mass = vec![1.0; pos.len()];
        // Sample 0 is the warm-up.
        let timings: Vec<(f64, f64)> = (0..=samples)
            .map(|s| {
                let (mut half, mut reference) = (0.0, 0.0);
                for reference_arm in [s % 2 == 1, s % 2 == 0] {
                    let t = Instant::now();
                    if reference_arm {
                        black_box(three_inverse_accelerations(
                            comm, &solver, &fft, &pos, &mass,
                        ));
                        reference = t.elapsed().as_secs_f64();
                    } else {
                        black_box(solver.accelerations(comm, &pos, &mass));
                        half = t.elapsed().as_secs_f64();
                    }
                }
                (half, reference)
            })
            .collect();
        timings[1..].to_vec()
    });
    let slower = |s: usize, arm: fn(&(f64, f64)) -> f64| {
        per_rank.iter().map(|t| arm(&t[s])).fold(0.0, f64::max)
    };
    let half = fastest((0..samples).map(|s| slower(s, |t| t.0)));
    let reference = fastest((0..samples).map(|s| slower(s, |t| t.1)));
    ((n * n * n) as f64 / half, reference / half)
}

/// The complex 3-D transform of an `n³` cube (layout `(x·n + y)·n + z`)
/// one line at a time through the public `FftPlan::forward`: the z rows in
/// place, then the y and the x columns, eight adjacent columns at a time
/// gathered into eight lines, each transformed and scattered back — the
/// per-line algorithm the batched passes of `DistFft3d` replaced.
fn per_line_fft3(plan: &FftPlan, data: &mut [Complex64]) {
    let n = plan.len();
    for row in data.chunks_exact_mut(n) {
        plan.forward(row);
    }
    let mut lines = vec![Complex64::zero(); 8 * n];
    // y: each x-plane is n rows of n columns; x: the cube is n rows of n².
    for (matrix, stride) in [(n * n, n), (n * n * n, n * n)] {
        for block in data.chunks_exact_mut(matrix) {
            for c0 in (0..stride).step_by(8) {
                let w = 8.min(stride - c0);
                for (r, row) in block.chunks_exact(stride).enumerate() {
                    for (c, v) in row[c0..c0 + w].iter().enumerate() {
                        lines[c * n + r] = *v;
                    }
                }
                for line in lines[..w * n].chunks_exact_mut(n) {
                    plan.forward(line);
                }
                for (r, row) in block.chunks_exact_mut(stride).enumerate() {
                    for (c, v) in row[c0..c0 + w].iter_mut().enumerate() {
                        *v = lines[c * n + r];
                    }
                }
            }
        }
    }
}

/// The batched slab FFT: `samples` alternating 64³ complex forward
/// transforms on one rank, `DistFft3d::forward` against [`per_line_fft3`],
/// the order swapped every other sample as in [`long_range`]. Returns the
/// fastest per-line time ÷ the fastest batched time. The warm-up
/// sample checks that both arms compute the same bits (on one rank the
/// slab transform's output is the cube with x and y swapped).
fn batched_fft(samples: usize) -> f64 {
    let n = 64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let cube: Vec<Complex64> = (0..n * n * n)
        .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    let plan = FftPlan::new(n);
    let timings = World::run(1, |comm| {
        let fft = DistFft3d::new(comm, n);
        (0..=samples)
            .map(|s| {
                let (mut batched, mut per_line) = (cube.clone(), cube.clone());
                let (mut batched_s, mut per_line_s) = (0.0, 0.0);
                for per_line_arm in [s % 2 == 1, s % 2 == 0] {
                    let t = Instant::now();
                    if per_line_arm {
                        per_line_fft3(&plan, black_box(&mut per_line));
                        per_line_s = t.elapsed().as_secs_f64();
                    } else {
                        fft.forward(comm, black_box(&mut batched));
                        batched_s = t.elapsed().as_secs_f64();
                    }
                }
                if s == 0 {
                    let swapped = |i: usize| (i / n % n * n + i / (n * n)) * n + i % n;
                    assert!(
                        (0..n * n * n).all(|i| batched[i] == per_line[swapped(i)]),
                        "the batched and the per-line transform disagree"
                    );
                }
                (batched_s, per_line_s)
            })
            .collect::<Vec<_>>()
    })
    .pop()
    .expect("one rank");
    let timings = &timings[1..];
    fastest(timings.iter().map(|t| t.1)) / fastest(timings.iter().map(|t| t.0))
}

fn main() {
    // Fixed measurement budget per arm: long enough for a stable ratio
    // (the ratchet tolerance is 15%), short enough for the verify
    // gate, and the same for blessed baselines and ratchet runs.
    let min_t = 0.6;
    let n = 20_000;
    let grav = workloads::grav_workload(n, 11);
    let force = workloads::crk_force_workload(n, 11);
    let density = workloads::sph_density_workload(n, 11);
    let moments = workloads::crk_moments_workload(n, 11);

    let g = short_range_arms(&grav, min_t);
    let f = short_range_arms(&force, min_t);
    let (density_tiled, dp) = pairs_per_s(&density, min_t);
    let (moments_tiled, mp) = pairs_per_s(&moments, min_t);

    for (name, a) in [("grav", &g), ("crk_force", &f)] {
        println!(
            "bench  short_range_symmetric/{name} ({} list pairs): tiled {:.3e} pairs/s, reference {:.3e} pairs/s, symmetric {:.2}x, compaction {:.2}x",
            a.pairs, a.tiled_per_s, a.reference_per_s, a.symmetric_speedup, a.compaction_speedup
        );
    }
    println!(
        "bench  short_range_symmetric/sph_density ({dp} list pairs): tiled {density_tiled:.3e} pairs/s"
    );
    println!(
        "bench  short_range_symmetric/crk_moments ({mp} list pairs): tiled {moments_tiled:.3e} pairs/s"
    );

    let (pm_cells_per_s, half_speedup) = long_range(11);
    println!(
        "bench  long_range/pm_solve (64^3 cells, 2 ranks): {pm_cells_per_s:.3e} cells/s, {half_speedup:.2}x the complex three-inverse assembly"
    );

    let batched_speedup = batched_fft(21);
    println!(
        "bench  long_range/batched_fft (64^3 complex forward, 1 rank): {batched_speedup:.2}x the per-line transform"
    );

    baseline::record(&[
        ("long_range_batched_fft_speedup", batched_speedup),
        ("long_range_pm_solve_cells_per_s", pm_cells_per_s),
        ("long_range_half_spectrum_speedup", half_speedup),
        ("short_range_grav_tiled_pairs_per_s", g.tiled_per_s),
        ("short_range_grav_reference_pairs_per_s", g.reference_per_s),
        ("short_range_grav_symmetric_speedup", g.symmetric_speedup),
        ("short_range_grav_compaction_speedup", g.compaction_speedup),
        ("short_range_crk_force_tiled_pairs_per_s", f.tiled_per_s),
        ("short_range_crk_force_reference_pairs_per_s", f.reference_per_s),
        ("short_range_crk_force_symmetric_speedup", f.symmetric_speedup),
        ("short_range_crk_force_compaction_speedup", f.compaction_speedup),
        ("short_range_sph_density_tiled_pairs_per_s", density_tiled),
        ("short_range_crk_moments_tiled_pairs_per_s", moments_tiled),
    ]);

    // Acceptance: the headline short-range kernel must hold its measured
    // >= 2x win, and the half-spectrum solve its >= 1.55x (two complex
    // grids' worth of transforms for four; 3 transposes, 1 footprint
    // all-gather and 4 sparse rounds for 4, 4 and 4), whenever the ratchet
    // gate is armed.
    if baseline::ratchet_mode() {
        assert!(
            f.symmetric_speedup >= 2.0,
            "crk_force symmetric speedup {:.2}x fell below the 2x acceptance line",
            f.symmetric_speedup
        );
        assert!(
            half_speedup >= 1.55,
            "half-spectrum speedup {half_speedup:.2}x fell below the 1.55x acceptance line"
        );
    }
}
