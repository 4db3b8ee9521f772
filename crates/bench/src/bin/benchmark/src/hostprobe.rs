//! A fixed reference computation that measures the *host*, not the program.
//!
//! The shared 2-vCPU VM this benchmark is sized on flips, for tens of
//! seconds to minutes at a time, between a quiet state and a disturbed
//! one in which every compute-bound instruction stream — the program's
//! and this probe's alike — runs 1.4–1.6× slower, in wall and in CPU
//! seconds (README, "Host states"). No estimator inside a 20 s run can
//! see through a state that outlasts the run: ten back-to-back runs of
//! one workload spread by 17–45% as measured.
//!
//! The probe is the benchmark's own code, so no change to the repository
//! can make it faster or slower. It runs before every repetition, outside
//! the timed window, on as many threads as the program has lanes, and the
//! lower-mid (`stats::Quartiles::lower_mid`) of its readings is the run's
//! host-speed reading: the end-to-end times are reported as their lower-mid
//! scaled by [`REFERENCE_S`]` / reading`, i.e. in seconds of the quiet
//! sizing host. Scaled that way the same kind of ten-run sets spread by
//! 3–22% (README, "Host states").
//!
//! The work is a tile pair loop — FMA, square root, divide, table lookup —
//! the instruction mix of the short-range kernels that carry most runs. A
//! second, memory-streaming part was tried and dropped: the disturbed
//! state barely moves it (±5%), so it tracks nothing.

use std::hint::black_box;
use std::time::Instant;

/// The probe's reading on the sizing host in its quiet state, seconds.
pub const REFERENCE_S: f64 = 0.060;

const TILE: usize = 384;
const TABLE: usize = 8192;
const ROUNDS: usize = 60;

/// Inputs of the probe, built once per process.
pub struct Probe {
    pos: Vec<[f64; 3]>,
    table: Vec<f64>,
    threads: usize,
}

impl Probe {
    pub fn new(threads: usize) -> Self {
        Self {
            pos: (0..TILE)
                .map(|i| {
                    let t = i as f64;
                    [
                        (t * 0.37).sin() * 3.0,
                        (t * 0.73).cos() * 3.0,
                        (t * 0.11).sin() * 3.0,
                    ]
                })
                .collect(),
            table: (0..TABLE).map(|i| (-(i as f64) / 2000.0).exp()).collect(),
            threads: threads.max(1),
        }
    }

    fn pair_loop(&self) -> f64 {
        let scale = (TABLE - 2) as f64 / 40.0;
        let mut total = 0.0;
        for round in 0..ROUNDS {
            for pi in &self.pos {
                let mut a = [0.0f64; 3];
                for pj in &self.pos {
                    let d = [pi[0] - pj[0], pi[1] - pj[1], pi[2] - pj[2]];
                    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + round as f64 * 1e-12;
                    let x = (r2 * scale).min((TABLE - 2) as f64);
                    let k = x as usize;
                    let g = self.table[k] + (self.table[k + 1] - self.table[k]) * (x - k as f64);
                    let s = g / ((r2 + 0.01) * (r2 + 0.01).sqrt());
                    a[0] -= s * d[0];
                    a[1] -= s * d[1];
                    a[2] -= s * d[2];
                }
                total += a[0] + a[1] + a[2];
            }
        }
        total
    }

    /// One reading: seconds until every thread has finished the loop
    /// (about 0.06 s on the sizing host).
    pub fn read(&self) -> f64 {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|| black_box(self.pair_loop()));
            }
        });
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reading_is_positive_and_the_work_is_not_optimised_away() {
        let p = Probe::new(2);
        assert!(p.pair_loop().is_finite());
        // 60 × 384² pair evaluations cannot take less than a millisecond.
        assert!(p.read() > 1e-3);
    }
}
