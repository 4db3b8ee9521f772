//! Quartiles of a run's per-repetition samples.
//!
//! Which quartile a metric reports depends on what its noise looks like
//! (README, "Estimators"): as-measured timings — every per-layer second of
//! the census, the step wall it is held against — report the **lower
//! quartile**, because host interference is one-sided and bursty and the
//! lower quartile tracks the quiet mode; the host-scaled end-to-end times
//! report [`Quartiles::lower_mid`] of both the times and the probe readings,
//! because once the host state is divided out what matters is that
//! numerator and denominator sample it the same way. All three quartiles and the sample
//! count ride along in `results.json`.

/// Quartiles and sample count of one metric over a run's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Smallest sample.
    pub min: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub n: usize,
}

impl Quartiles {
    /// Location of the quieter half: the geometric mean of the lower
    /// quartile and the median. The estimator of the host-scaled times —
    /// over fifteen ten-run sets it spread least, in the worst case and on
    /// average, of the quartiles, their mean and trimmed means (README,
    /// "Host states").
    pub fn lower_mid(&self) -> f64 {
        (self.p25 * self.p50).sqrt()
    }
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)` (the
/// "exclusive" method: the i-th cut sits at rank `i (m + 1) / 4`, linearly
/// interpolated along the nearest segment of the sorted samples) — the
/// same rule the acceptance procedure applies across runs — except that a
/// cut never leaves the sample range (Python extrapolates when there are
/// two samples; a time below the fastest repetition was never measured).
/// One sample is its own quartiles; an empty input yields zeros with
/// `n = 0`.
pub fn quartiles(samples: &[f64]) -> Quartiles {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| -> f64 {
        match m {
            0 => 0.0,
            1 => v[0],
            _ => {
                let j = (i * (m + 1) / 4).clamp(1, m - 1);
                let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
                ((v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0).clamp(v[0], v[m - 1])
            }
        }
    };
    Quartiles {
        min: v.first().copied().unwrap_or(0.0),
        p25: cut(1),
        p50: cut(2),
        p75: cut(3),
        n: m,
    }
}

/// Lower quartile of `samples` (see [`quartiles`]).
pub fn p25(samples: &[f64]) -> f64 {
    quartiles(samples).p25
}

/// `num / den`, or zero when the denominator is zero or not finite — a
/// ratio over an absent quantity (no gas, no checkpoint) reads as zero
/// instead of poisoning the output with NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den.is_finite() && den != 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8], n=4)
        let q = quartiles(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]);
        assert_eq!((q.min, q.p25, q.p50, q.p75, q.n), (1.0, 2.25, 4.5, 6.75, 8));
        // statistics.quantiles([10, 20, 30], n=4) == [10, 20, 30]
        let q = quartiles(&[30.0, 10.0, 20.0]);
        assert_eq!((q.p25, q.p50, q.p75), (10.0, 20.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; the
        // extrapolated outer cuts are clamped to the sample range here.
        let q = quartiles(&[2.0, 1.0]);
        assert_eq!((q.p25, q.p50, q.p75), (1.0, 1.5, 2.0));
        // statistics.quantiles([1, 3, 3, 9, 27], n=4) == [2.0, 3.0, 18.0]
        let q = quartiles(&[27.0, 1.0, 9.0, 3.0, 3.0]);
        assert_eq!((q.p25, q.p50, q.p75), (2.0, 3.0, 18.0));
    }

    #[test]
    fn lower_mid_is_between_the_lower_quartile_and_the_median() {
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(q.lower_mid(), (2.25f64 * 4.5).sqrt());
        assert!(q.p25 < q.lower_mid() && q.lower_mid() < q.p50);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(quartiles(&[]).n, 0);
        assert_eq!((quartiles(&[]).p25, quartiles(&[]).min), (0.0, 0.0));
        let q = quartiles(&[4.2]);
        assert_eq!((q.p25, q.p50, q.p75, q.n), (4.2, 4.2, 4.2, 1));
        assert_eq!(p25(&[5.0, 1.0, 3.0]), 1.0);
    }

    #[test]
    fn ratio_never_divides_by_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, f64::NAN), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
