//! The five workloads: fixed `frontier-sim` configurations, each sized so
//! a different layer carries the run (README, "Workloads").
//!
//! Every workload goes through the public driver entry point
//! `hacc_core::run_simulation` on `SimConfig::small(np)` plus the
//! overrides below. The seed reaches `cfg.seed` and nothing else: the
//! program sees only initial conditions generated from it.

use hacc_core::{Physics, SimConfig};
use hacc_ranks::Backend;
use std::path::Path;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` (at most 200 characters).
    pub why: &'static str,
    pub ranks: usize,
    overrides: fn(&mut SimConfig),
    /// Particles per dimension (per species).
    np: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "hydro-highz",
        why: "Full hydro, near-uniform gas with uniform h: CRKSPH + short-range gravity are ~90% of wall, so any sph/grav/tree/gpusim change must win here; PM, I/O and analysis are a few % each.",
        ranks: 2,
        np: 16,
        overrides: |c| {
            c.pm_steps = 3;
        },
    },
    Workload {
        name: "hydro-lowz-flat",
        why: "Same short-range layers used differently: clustered field, wide h spread, flat stepping (5 kicks per tree build, leaf boxes grown not rebuilt) - shows what assuming uniformity costs.",
        ranks: 2,
        np: 16,
        overrides: |c| {
            c.pm_steps = 1;
            c.a_init = 0.40;
            c.a_final = 0.45;
            c.flat_stepping = true;
        },
    },
    Workload {
        name: "gravity-io",
        why: "Gravity-only baseline with checkpoint and analysis every step: table-lookup grav kernel ~70%, no sph, and the only workload where analysis, iosim and PM are each visible; 4x the working set.",
        ranks: 2,
        np: 32,
        overrides: |c| {
            c.physics = Physics::GravityOnly;
            c.pm_steps = 3;
            c.analysis_every = 1;
        },
    },
    Workload {
        name: "pm-grid",
        why: "128^3 PM grid over few particles: long-range solve (mesh CIC + Green's function, swfft 1-D FFTs and transposes) is >80% and short-range <2%, so FFT/PM work shows and short-range work must not.",
        ranks: 2,
        np: 32,
        overrides: |c| {
            c.physics = Physics::GravityOnly;
            c.ngrid = 128;
            c.pm_steps = 1;
            c.analysis_every = 0;
            c.checkpoint_every = 0;
        },
    },
    Workload {
        name: "ranks-64",
        why: "64 ranks multiplexed on the host's lanes, ~2e5 messages per run: collectives, park/wake, migrate and overload exchange carry the step, short-range is ~10% of CPU; counts, not scaling.",
        ranks: 64,
        np: 32,
        overrides: |c| {
            c.physics = Physics::GravityOnly;
            c.ngrid = 64;
            c.pm_steps = 2;
            c.analysis_every = 0;
            c.checkpoint_every = 0;
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The run's configuration. `quick` shrinks the problem (np and grid
    /// halved, one PM step, `ranks-64` on 16 ranks) for the plumbing smoke
    /// test; its numbers mean nothing.
    pub fn config(&self, seed: u64, io_dir: &Path, quick: bool) -> SimConfig {
        let mut cfg = SimConfig::small(if quick { self.np / 2 } else { self.np });
        (self.overrides)(&mut cfg);
        if quick {
            cfg.pm_steps = 1;
            if cfg.ngrid != cfg.np {
                cfg.ngrid /= 2;
            }
        }
        cfg.seed = seed;
        cfg.io_dir = Some(io_dir.to_path_buf());
        // The program's default backend, pinned so no environment
        // variable decides what is measured.
        cfg.backend = Some(Backend::Cooperative);
        cfg
    }

    pub fn ranks(&self, quick: bool) -> usize {
        if quick {
            self.ranks.min(16)
        } else {
            self.ranks
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_config_validates_and_takes_the_seed() {
        for w in &WORKLOADS {
            for quick in [false, true] {
                let cfg = w.config(77, Path::new("x"), quick);
                cfg.validate();
                assert_eq!(cfg.seed, 77);
                assert_eq!(cfg.backend, Some(Backend::Cooperative));
                assert!(cfg.chaos.is_none() && !cfg.sanitize);
            }
        }
    }
}
