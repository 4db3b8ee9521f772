//! The warp-split short-range kernel across device vendors (Fig. 6
//! left, via the execution model), as a runnable program.
//!
//! ```sh
//! cargo run --release --example device_portability
//! ```

use frontier_sim::gpusim::{DeviceSpec, ExecMode, ExecutionModel};

fn main() {
    println!("== warp-split kernel across vendors ==");
    let cloud = hacc_bench_cloud(12_000, 23.0);
    for dev in DeviceSpec::catalog() {
        let counters = sph_counters(&cloud, 23.0, dev, ExecMode::WarpSplit);
        let naive = sph_counters(&cloud, 23.0, dev, ExecMode::Naive);
        let model = ExecutionModel::new(dev);
        println!(
            "  {:<28} util {:>5.1}%  split speedup {:>4.2}x",
            dev.name,
            model.utilization(&counters) * 100.0,
            model.kernel_time_s(&naive) / model.kernel_time_s(&counters)
        );
    }
}

/// Local uniform-cloud helper (examples cannot depend on the bench crate).
fn hacc_bench_cloud(n: usize, extent: f64) -> Vec<[f64; 3]> {
    use hacc_rt::rand::{self, Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    (0..n)
        .map(|_| {
            [
                rng.gen_range(0.0..extent),
                rng.gen_range(0.0..extent),
                rng.gen_range(0.0..extent),
            ]
        })
        .collect()
}

fn sph_counters(
    positions: &[[f64; 3]],
    extent: f64,
    device: DeviceSpec,
    mode: ExecMode,
) -> frontier_sim::gpusim::KernelCounters {
    use frontier_sim::sph::pipeline::{sph_step, SphConfig, SphInput};
    use frontier_sim::sph::CubicSpline;
    use frontier_sim::tree::{ChainingMesh, CmConfig};
    let n = positions.len();
    let vel = vec![[0.0; 3]; n];
    let mass = vec![1.0; n];
    let spacing = extent / (n as f64).cbrt();
    let h = vec![1.3 * spacing; n];
    let u = vec![10.0; n];
    let cm = ChainingMesh::build(
        positions,
        [0.0; 3],
        [extent; 3],
        &CmConfig {
            bin_width: 6.3 * spacing,
            max_leaf: 128,
        },
    );
    let cfg: SphConfig<CubicSpline> = SphConfig {
        device,
        mode,
        ..SphConfig::new()
    };
    let input = SphInput {
        pos: positions,
        vel: &vel,
        mass: &mass,
        h: &h,
        u: &u,
    };
    sph_step(&input, &cm, &cfg).counters.merged()
}
