//! The multi-tier I/O subsystem standalone: checkpoints, bleed, pruning,
//! fault injection, and restart — Section IV-B4 without the simulation.
//!
//! ```sh
//! cargo run --release --example io_tiering
//! ```

use frontier_sim::iosim::format::Block;
use frontier_sim::iosim::{
    simulate_run, FaultInjector, TieredConfig, TieredWriter,
};
use hacc_rt::rand::{self, SeedableRng};

fn main() {
    let base = std::env::temp_dir().join(format!("io-tiering-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cfg = TieredConfig::frontier(&base);
    let pfs_dir = cfg.pfs_dir.clone();
    println!("staging to {}", base.display());

    // Write a short campaign of checkpoints through the tiers.
    let mut writer = TieredWriter::new(cfg).unwrap();
    for step in 0..6u64 {
        let state: Vec<f64> = (0..200_000).map(|i| (step * 7 + i) as f64).collect();
        let blocks = vec![
            Block::from_f64("state", &state),
            Block::from_u64("step", &[step]),
        ];
        let frac = step as f64 / 6.0;
        let blocking = writer
            .write_checkpoint(step, &blocks, frac, 1.0 + frac)
            .unwrap();
        writer.advance_time(1128.0); // the paper's ~18.8-minute mean PM step
        println!(
            "  step {step}: blocking {:.1} ms (modeled NVMe sync), modeled bleed overlaps the solver",
            blocking * 1000.0
        );
    }
    let stats = writer.finish();
    println!("\n-- tier statistics (modeled at 9,000 Frontier nodes) --");
    println!("  checkpoints        : {}", stats.checkpoints);
    println!("  bled to PFS        : {}", stats.files_bled);
    println!("  pruned (window 2)  : {}", stats.files_pruned);
    println!("  machine data       : {:.2} GB", stats.bytes_machine as f64 / 1e9);
    println!(
        "  effective bandwidth: {:.1} TB/s (Orion peak: 4.6; the paper: 5.45)",
        stats.effective_bandwidth_tbs()
    );

    // Simulate a torn final checkpoint and restart.
    let (latest, path) = TieredWriter::latest_checkpoint(&pfs_dir).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let k = bytes.len() - 20;
    bytes[k] ^= 0xFF;
    std::fs::write(&path, bytes).unwrap();
    println!("\ncorrupted checkpoint {latest} (simulated torn write)...");
    let (restart_step, blocks) = TieredWriter::load_latest_valid(&pfs_dir).unwrap();
    println!(
        "  restart recovers step {restart_step} (CRC-validated), {} blocks",
        blocks.len()
    );

    // The fault-tolerance arithmetic that justifies per-step checkpoints.
    println!("\n-- why checkpoint every step (MTTI ~ hours, Ref. 15) --");
    let inj = FaultInjector::new(4.0);
    for cadence in [1u32, 8, 64] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let out = simulate_run(&mut rng, 625, 196.0 / 625.0, 0.01, 0.4, cadence, &inj);
        println!(
            "  checkpoint every {cadence:>2} steps: wall {:>6.1} h, lost work {:>6.1} h, {} interrupts",
            out.wall_hours, out.lost_hours, out.interrupts
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
