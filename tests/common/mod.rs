//! Scaffolding shared by the integration tests. Each test binary
//! compiles this module on its own and uses part of it.
#![allow(dead_code)]

use frontier_sim::core::particles::ParticleRecord;
use frontier_sim::iosim::TieredWriter;
use std::path::{Path, PathBuf};

/// Scratch directory, `frontier-<test binary>-<tag>-<pid>` under the
/// temp dir, that cleans itself up on success but survives a failing
/// test, so the checkpoint files that triggered the failure can be
/// inspected.
pub struct TempRunDir(PathBuf);

impl TempRunDir {
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "frontier-{}-{tag}-{}",
            env!("CARGO_CRATE_NAME"),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempRunDir {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("test failed; run artifacts kept at {}", self.0.display());
        } else {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Full final particle state from the checkpoints, sorted by particle id
/// so the ordering is decomposition-independent.
pub fn final_state(dir: &Path, ranks: usize) -> Vec<(u64, Vec<f64>)> {
    let fields = &ParticleRecord::COLUMNS[..ParticleRecord::F64_COLUMNS];
    let mut rows = Vec::new();
    for r in 0..ranks {
        let pfs = dir.join("pfs").join(format!("rank-{r}"));
        let (_, blocks) = TieredWriter::load_latest_valid(&pfs).unwrap();
        let ids = blocks.iter().find(|b| b.name == "id").unwrap().as_u64();
        let cols: Vec<Vec<f64>> = fields
            .iter()
            .map(|n| blocks.iter().find(|b| b.name == *n).unwrap().as_f64())
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            rows.push((id, cols.iter().map(|c| c[i]).collect()));
        }
    }
    rows.sort_by_key(|(id, _)| *id);
    rows
}
