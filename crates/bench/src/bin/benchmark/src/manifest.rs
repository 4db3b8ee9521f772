//! The benchmark's declared surface: metric tables and `BENCHMARK.json`.
//!
//! These tables are the single source of the metric names. `--manifest`
//! renders them as `BENCHMARK.json`; the checked-in file at the
//! repository root is that output (a test compares them byte for byte),
//! and every run is checked to print exactly these names.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 20;

/// This directory, relative to the repository root.
pub const BENCH_DIR: &str = "crates/bench/src/bin/benchmark";

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics with the relative worsening that counts as a
/// regression. The issue proposed 0.10 (0.25 for `setup_s`) and allowed
/// widening from the measured table. On the sizing host three ten-seed
/// sets spread (quartile distance ÷ median) by 0.03–0.16 in ordinary
/// conditions and by up to 0.22–0.28 in its worst state, host-speed
/// scaling included (README, "A/A table and bounds"), so every bound is
/// the widest the contract allows.
pub const END_TO_END: [(MetricDef, f64); 6] = [
    (m("wall_s", "s", "lower"), 0.25),
    (m("particle_updates_per_s", "1/s", "higher"), 0.25),
    (m("step_wall_s", "s", "lower"), 0.25),
    (m("setup_s", "s", "lower"), 0.25),
    (m("cpu_s", "s", "lower"), 0.25),
    (m("peak_rss_mb", "MB", "lower"), 0.25),
];

/// Per-layer metrics of the traced run, grouped by layer crate. For
/// counts and shares that describe the workload rather than a cost
/// (`mesh.grid_cells`, the `core.phase_*_share` cross-checks) the
/// direction is nominal.
pub const PER_LAYER: [MetricDef; 84] = [
    // core — driver glue around the layers
    m("core.ic_s", "s", "lower"),
    m("core.migrate_s", "s", "lower"),
    m("core.overload_s", "s", "lower"),
    m("core.ghost_ratio", "ratio", "lower"),
    m("core.serial_wall_s", "s", "lower"),
    m("core.rank_speedup", "ratio", "higher"),
    m("core.step_imbalance", "ratio", "lower"),
    m("core.phase_short_range_share", "ratio", "lower"),
    m("core.phase_long_range_share", "ratio", "lower"),
    m("core.phase_tree_build_share", "ratio", "lower"),
    m("core.phase_analysis_share", "ratio", "lower"),
    m("core.phase_io_share", "ratio", "lower"),
    m("core.phase_misc_share", "ratio", "lower"),
    // mesh — particle-mesh long-range solve
    m("mesh.pm_accel_s", "s", "lower"),
    m("mesh.deposit_s", "s", "lower"),
    m("mesh.greens_s", "s", "lower"),
    m("mesh.interp_s", "s", "lower"),
    m("mesh.grid_cells", "count", "lower"),
    m("mesh.cells_per_s", "1/s", "higher"),
    // swfft — distributed FFT
    m("swfft.fwd3d_s", "s", "lower"),
    m("swfft.inv3d_s", "s", "lower"),
    m("swfft.fft1d_s", "s", "lower"),
    m("swfft.fft1d_gflops", "GFLOP/s", "higher"),
    m("swfft.transpose_bytes", "B", "lower"),
    m("swfft.comm_frac", "ratio", "lower"),
    m("swfft.pencil_fwd3d_s", "s", "lower"),
    // tree — chaining mesh and interaction lists
    m("tree.build_s", "s", "lower"),
    m("tree.build_gas_s", "s", "lower"),
    m("tree.pairs_s", "s", "lower"),
    m("tree.grow_s", "s", "lower"),
    m("tree.leaves", "count", "lower"),
    m("tree.leaf_pairs", "count", "lower"),
    m("tree.leaf_fill", "ratio", "higher"),
    // gpusim — leaf-pair executor
    m("gpusim.null_ns_per_pair", "ns", "lower"),
    // grav — short-range gravity
    m("grav.step_s", "s", "lower"),
    m("grav.pairs", "count", "lower"),
    m("grav.pairs_per_s", "1/s", "higher"),
    m("grav.kernel_pairs_per_s", "1/s", "higher"),
    m("grav.overhead_frac", "ratio", "lower"),
    m("grav.useful_pair_frac", "ratio", "higher"),
    m("grav.masked_lane_frac", "ratio", "lower"),
    m("grav.flops", "count", "lower"),
    m("grav.host_gflops", "GFLOP/s", "higher"),
    m("grav.allocs", "count", "lower"),
    m("grav.alloc_bytes", "B", "lower"),
    // sph — CRKSPH pipeline
    m("sph.step_s", "s", "lower"),
    m("sph.pairs", "count", "lower"),
    m("sph.pairs_per_s", "1/s", "higher"),
    m("sph.density_pairs_per_s", "1/s", "higher"),
    m("sph.moments_pairs_per_s", "1/s", "higher"),
    m("sph.force_pairs_per_s", "1/s", "higher"),
    m("sph.overhead_frac", "ratio", "lower"),
    m("sph.useful_pair_frac", "ratio", "higher"),
    m("sph.masked_lane_frac", "ratio", "lower"),
    m("sph.flops", "count", "lower"),
    m("sph.host_gflops", "GFLOP/s", "higher"),
    m("sph.allocs", "count", "lower"),
    m("sph.alloc_bytes", "B", "lower"),
    m("sph.h_spread", "ratio", "lower"),
    // subgrid
    m("subgrid.cool_ns_per_particle", "ns", "lower"),
    // ranks / rt — message passing and the rank scheduler
    m("ranks.msgs_per_step", "count", "lower"),
    m("ranks.bytes_per_step", "B", "lower"),
    m("ranks.collectives_per_step", "count", "lower"),
    m("ranks.a2av_s", "s", "lower"),
    m("ranks.allreduce_us", "us", "lower"),
    m("ranks.smoke_s", "s", "lower"),
    m("ranks.hops_per_s", "1/s", "higher"),
    m("rt.spawn_s", "s", "lower"),
    m("rt.lanes", "count", "higher"),
    // iosim — tiered checkpoints
    m("iosim.ckpt_write_s", "s", "lower"),
    m("iosim.ckpt_bytes", "B", "lower"),
    m("iosim.ckpt_drain_s", "s", "lower"),
    m("iosim.ckpt_load_s", "s", "lower"),
    m("iosim.encode_mb_per_s", "MB/s", "higher"),
    // analysis — in-situ analysis
    m("analysis.fof_s", "s", "lower"),
    m("analysis.power_s", "s", "lower"),
    m("analysis.xi_s", "s", "lower"),
    m("analysis.bvh_build_s", "s", "lower"),
    m("analysis.halos", "count", "higher"),
    // trace — the census against the measured step
    m("trace.census_step_s", "s", "lower"),
    m("trace.attributed_frac", "ratio", "higher"),
    m("trace.short_range_share", "ratio", "lower"),
    m("trace.long_range_share", "ratio", "lower"),
    m("trace.overhead_frac", "ratio", "lower"),
];

/// Unit of a declared metric, by name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|(d, _)| d)
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let manifest_path = format!("{BENCH_DIR}/Cargo.toml");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        &manifest_path,
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str(BENCH_DIR)])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(d, bound)| {
                        Json::obj([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", Json::str(d.better)),
                            ("bound", Json::num(*bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::str(d.name)),
                            ("unit", Json::str(d.unit)),
                            ("better", Json::str(d.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn declared_surface_meets_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(d, _)| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(name_ok(n, 64, "_.-"), "bad name {n:?}");
            assert!(n.starts_with(|c: char| c.is_ascii_alphanumeric()), "{n:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        for d in END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER.iter()) {
            assert!(
                name_ok(d.unit, 16, "_/%.-"),
                "bad unit {:?} on {}",
                d.unit,
                d.name
            );
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
        }
        for (d, bound) in &END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", d.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|(d, _)| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.0.unit, setup.0.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|(_, b)| *b <= setup.1),
            "setup_s has the largest bound"
        );

        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
        assert!(benchmark_json().pretty().len() <= 64 * 1024);
    }

    /// The checked-in `BENCHMARK.json` is exactly what `--manifest`
    /// prints, so its name sets equal the tables above in both directions.
    #[test]
    fn checked_in_benchmark_json_is_the_rendered_manifest() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..");
        let on_disk = std::fs::read_to_string(root.join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json().pretty(),
            "regenerate with `benchmark --manifest`"
        );
    }
}
