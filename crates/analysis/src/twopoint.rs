//! Two-point correlation function — the configuration-space clustering
//! statistic behind the paper's "statistically converged measurements for
//! all clustering probes".
//!
//! Estimator: the natural estimator `xi(r) = DD(r) / RR_exp(r) - 1`, with
//! the expected random pair count computed analytically for a periodic
//! box (no random catalog needed): for `N` points in volume `V`, the
//! expected pairs in a shell `[r0, r1)` are
//! `RR_exp = N (N-1) / 2 × (V_shell / V)`.

use crate::bvh::Lbvh;

/// One correlation-function bin.
#[derive(Debug, Clone, Copy)]
pub struct XiBin {
    /// Bin center radius.
    pub r: f64,
    /// Data-data pair count in the shell.
    pub dd: u64,
    /// Expected (unclustered) pair count.
    pub rr_expected: f64,
    /// The correlation function `DD/RR - 1`.
    pub xi: f64,
}

/// Measure xi(r) for points in a periodic `box_size³` volume with
/// logarithmic bins from `r_min` to `r_max`.
///
/// Note: pair counting uses the BVH without periodic wrapping; keep
/// `r_max` well below `box_size/2` and accept the (small) edge deficit,
/// or pre-wrap the input with ghost images for full periodicity.
pub fn correlation_function(
    positions: &[[f64; 3]],
    box_size: f64,
    r_min: f64,
    r_max: f64,
    n_bins: usize,
) -> Vec<XiBin> {
    assert!(r_min > 0.0 && r_max > r_min && n_bins > 0);
    let n = positions.len() as f64;
    let volume = box_size * box_size * box_size;
    let bvh = Lbvh::build(positions);
    let log_step = (r_max / r_min).ln() / n_bins as f64;
    let edges: Vec<f64> = (0..=n_bins)
        .map(|i| r_min * (log_step * i as f64).exp())
        .collect();

    // Cumulative counts per edge from one walk per point out to the
    // outermost edge, binning each pair by `d2 <= r_e²` at every edge
    // (self-matches skipped). Each unordered pair is counted twice,
    // walked from both ends.
    let mut cum = vec![0u64; n_bins + 1];
    for (i, p) in positions.iter().enumerate() {
        bvh.walk(p, edges[n_bins], |j, d2| {
            for (c, r) in cum.iter_mut().zip(&edges) {
                *c += u64::from(j as usize != i && d2 <= r * r);
            }
            true
        });
    }

    (0..n_bins)
        .map(|b| {
            let dd2 = cum[b + 1] - cum[b]; // double-counted
            let dd = dd2 / 2;
            let shell =
                4.0 / 3.0 * std::f64::consts::PI * (edges[b + 1].powi(3) - edges[b].powi(3));
            let rr = n * (n - 1.0) / 2.0 * shell / volume;
            XiBin {
                r: (edges[b] * edges[b + 1]).sqrt(),
                dd,
                rr_expected: rr,
                xi: if rr > 0.0 { dd as f64 / rr - 1.0 } else { 0.0 },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hacc_rt::rand::{self, Rng, SeedableRng};

    fn poisson(n: usize, l: f64, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                [
                    rng.gen_range(0.0..l),
                    rng.gen_range(0.0..l),
                    rng.gen_range(0.0..l),
                ]
            })
            .collect()
    }

    #[test]
    fn poisson_field_has_no_correlation() {
        let pts = poisson(4000, 50.0, 3);
        let bins = correlation_function(&pts, 50.0, 0.5, 5.0, 6);
        for b in &bins {
            // Within a few sigma of zero: sigma_xi ~ 1/sqrt(DD).
            let sigma = 1.0 / (b.rr_expected.max(1.0)).sqrt();
            assert!(
                b.xi.abs() < 6.0 * sigma + 0.1,
                "xi({:.2}) = {:.3} (sigma {sigma:.3})",
                b.r,
                b.xi
            );
        }
    }

    #[test]
    fn clustered_field_positive_at_small_r() {
        // Pairs of points at fixed tiny separation: strong small-scale
        // correlation, none at large scales.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        // Fill the full box so the analytic RR volume normalization holds.
        let mut pts = Vec::new();
        for _ in 0..1500 {
            let p = [
                rng.gen_range(0.0..49.7),
                rng.gen_range(0.0..50.0),
                rng.gen_range(0.0..50.0),
            ];
            pts.push(p);
            pts.push([p[0] + 0.3, p[1], p[2]]);
        }
        let bins = correlation_function(&pts, 50.0, 0.2, 8.0, 8);
        let small = &bins[0];
        let large = bins.last().unwrap();
        assert!(small.xi > 3.0, "small-scale xi = {}", small.xi);
        assert!(large.xi.abs() < 0.3, "large-scale xi = {}", large.xi);
    }

    #[test]
    fn pair_counts_are_exact_for_known_configuration() {
        // Three collinear points at separations 1 and 1 (and 2).
        let pts = vec![[10.0, 10.0, 10.0], [11.0, 10.0, 10.0], [12.0, 10.0, 10.0]];
        let bins = correlation_function(&pts, 20.0, 0.5, 4.0, 3);
        let total_dd: u64 = bins.iter().map(|b| b.dd).sum();
        assert_eq!(total_dd, 3, "three unordered pairs");
    }
}
