//! Fig. 3 — matter density and gas temperature slices, early vs late.
//!
//! The paper shows slices at z = 9 (smooth) and z = 0 (clustered, with
//! feedback-heated gas). We evolve the miniature box, slice the initial
//! conditions and the final checkpoint, write CSV + PGM artifacts, and
//! check the structural claim: density contrast grows as structure forms
//! while the temperature field develops hot regions.

use hacc_analysis::slices::{slice_grid, write_csv, write_pgm, SliceSpec};
use hacc_bench::{artifact_dir, bench_config, compare, mean_std};
use hacc_core::ic::distributed_ics;
use hacc_core::{run_simulation, Physics};
use hacc_iosim::TieredWriter;
use hacc_ranks::World;
use hacc_units::{Background, LinearPower};

fn load_final_state(io_base: &std::path::Path, ranks: usize) -> (Vec<[f64; 3]>, Vec<f64>, Vec<f64>) {
    let mut pos = Vec::new();
    let mut mass = Vec::new();
    let mut u = Vec::new();
    for r in 0..ranks {
        let dir = io_base.join("pfs").join(format!("rank-{r}"));
        let (_, blocks) =
            TieredWriter::load_latest_valid(&dir).expect("final checkpoint");
        let field = |name: &str| -> Vec<f64> {
            blocks
                .iter()
                .find(|b| b.name == name)
                .unwrap_or_else(|| panic!("missing field {name}"))
                .as_f64()
        };
        let (x, y, z) = (field("x"), field("y"), field("z"));
        for i in 0..x.len() {
            pos.push([x[i], y[i], z[i]]);
        }
        mass.extend(field("mass"));
        u.extend(field("u"));
    }
    (pos, mass, u)
}

fn main() {
    let ranks = 2;
    let mut cfg = bench_config(16, 6, Physics::Hydro);
    cfg.a_init = 0.1; // z = 9, the paper's early panel
    cfg.a_final = 0.4;
    let io_base = artifact_dir().join("fig3_io");
    let _ = std::fs::remove_dir_all(&io_base);
    cfg.io_dir = Some(io_base.clone());
    let bg = Background::new(cfg.cosmology);
    let power = LinearPower::new(cfg.cosmology);
    let dir = artifact_dir();
    let n_res = 64;
    let spec = SliceSpec {
        z_min: 0.0,
        z_max: cfg.box_size / 4.0,
        resolution: n_res,
        extent: cfg.box_size,
    };

    // Early slices straight from the ICs the run starts from.
    let (mut ic_pos, mut ic_mass, mut ic_u) = (Vec::new(), Vec::new(), Vec::new());
    for s in World::run(ranks, |comm| distributed_ics(&cfg, &bg, &power, comm)) {
        ic_pos.extend(s.pos);
        ic_mass.extend(s.mass);
        ic_u.extend(s.u);
    }
    let early_rho = slice_grid(&spec, &ic_pos, &ic_mass);
    let early_t = slice_grid(&spec, &ic_pos, &ic_u);
    write_csv(&dir.join("fig3_density_early.csv"), &early_rho, n_res).unwrap();
    write_pgm(&dir.join("fig3_density_early.pgm"), &early_rho, n_res).unwrap();

    // Evolve and slice the final checkpoint.
    let report = run_simulation(&cfg, ranks);
    let (pos, mass, u) = load_final_state(&io_base, ranks);
    let late_rho = slice_grid(&spec, &pos, &mass);
    let energy: Vec<f64> = mass.iter().zip(&u).map(|(m, u)| m * u).collect();
    let late_t = slice_grid(&spec, &pos, &energy);
    write_csv(&dir.join("fig3_density_late.csv"), &late_rho, n_res).unwrap();
    write_pgm(&dir.join("fig3_density_late.pgm"), &late_rho, n_res).unwrap();
    write_csv(&dir.join("fig3_temperature_late.csv"), &late_t, n_res).unwrap();

    // Density contrast: sigma/mean of the slice.
    let (m0, s0) = mean_std(&early_rho);
    let (m1, s1) = mean_std(&late_rho);
    let contrast_early = s0 / m0.max(1e-30);
    let contrast_late = s1 / m1.max(1e-30);
    let (mt0, _) = mean_std(&early_t);
    let (mt1, _) = mean_std(&late_t);

    println!("\n=== Fig. 3 — density/temperature slices ===");
    println!(
        "  early (z={:.0}):  density contrast σ/μ = {contrast_early:.3}",
        1.0 / cfg.a_init - 1.0
    );
    println!(
        "  late  (z={:.1}):  density contrast σ/μ = {contrast_late:.3}",
        1.0 / cfg.a_final - 1.0
    );
    compare(
        "clustering grows early -> late",
        "smooth z=9 vs cosmic-web z=0",
        &format!("σ/μ {contrast_early:.2} -> {contrast_late:.2}"),
        contrast_late > contrast_early,
    );
    compare(
        "gas heats as structure forms",
        "hot filaments/halos in late panel",
        &format!("mean u-slice {mt0:.2e} -> {mt1:.2e}"),
        mt1 > mt0,
    );
    println!("  stars formed during the run: {}", report.total_stars);
    println!("  artifacts in {}", dir.display());
    let _ = std::fs::remove_dir_all(&io_base);
}
