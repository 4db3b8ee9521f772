//! Machine-readable bench baselines and the performance ratchet.
//!
//! Bench targets call [`record`] with named scalar metrics (pairs/sec,
//! speedups). Each metric prints as a `metric  <name> = <value>` line so
//! runs stay greppable, and two environment variables wire the metrics
//! into the repo's perf gate:
//!
//! * `HACC_BENCH_JSON=<path>` — merge the metrics into a flat JSON
//!   baseline file (`{"metrics": {"name": value, ...}}`). Used by
//!   `scripts/bench_update.sh` to (re-)bless `BENCH_kernels.json`.
//! * `HACC_BENCH_BASELINE=<path>` — ratchet the metrics against a
//!   previously blessed baseline. The dimensionless `*_speedup` metrics —
//!   each the ratio of two arms' fastest times over interleaved samples
//!   whose order flips every sample, which the host's speed cancels out
//!   of — fail the process with a delta table
//!   when they drop more than [`RATCHET_TOLERANCE`] below their baseline:
//!   the tier-5 gate in `scripts/verify.sh`. Absolute rates (`*_per_s`)
//!   and cost multiples move with the host by themselves; they are
//!   measured, printed and written as information, and gated by the
//!   repository benchmark, which normalises by its host-speed probe.
//!
//! The JSON handling is deliberately minimal (flat string→f64 map, no
//! dependency): the writer below and a lenient scanner that accepts any
//! `"name": number` pairs regardless of surrounding structure.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// Allowed fractional drop below the blessed baseline before the ratchet
/// trips (15%, absorbing run-to-run timer noise).
pub const RATCHET_TOLERANCE: f64 = 0.15;

/// Parse `"name": number` pairs out of a baseline file. Lenient by
/// design: nested objects (the `"metrics"` wrapper) are skipped, order
/// and whitespace are free, unparsable values are ignored.
pub fn parse(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '"' {
            continue;
        }
        let mut key = String::new();
        for k in chars.by_ref() {
            if k == '"' {
                break;
            }
            key.push(k);
        }
        while matches!(chars.peek(), Some(w) if w.is_whitespace()) {
            chars.next();
        }
        if chars.peek() != Some(&':') {
            continue;
        }
        chars.next();
        while matches!(chars.peek(), Some(w) if w.is_whitespace()) {
            chars.next();
        }
        if matches!(chars.peek(), Some('{') | Some('"') | None) {
            continue; // nested object / string value: not a metric
        }
        let mut val = String::new();
        while matches!(chars.peek(), Some(v) if !matches!(v, ',' | '}' | '\n')) {
            val.push(chars.next().unwrap());
        }
        if let Ok(v) = val.trim().parse::<f64>() {
            out.insert(key, v);
        }
    }
    out
}

/// Render a metric map as the canonical baseline JSON.
pub fn render(metrics: &BTreeMap<String, f64>) -> String {
    let mut s = String::from("{\n  \"metrics\": {\n");
    let last = metrics.len().saturating_sub(1);
    for (i, (k, v)) in metrics.iter().enumerate() {
        s.push_str(&format!(
            "    \"{k}\": {v:?}{}\n",
            if i == last { "" } else { "," }
        ));
    }
    s.push_str("  }\n}\n");
    s
}

/// Load a baseline file; missing file yields an empty map.
pub fn load(path: &Path) -> BTreeMap<String, f64> {
    match std::fs::read_to_string(path) {
        Ok(text) => parse(&text),
        Err(_) => BTreeMap::new(),
    }
}

/// One ratchet comparison row.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Metric name.
    pub name: String,
    /// Blessed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub measured: f64,
    /// `measured / baseline - 1`.
    pub rel: f64,
    /// True when the drop exceeds [`RATCHET_TOLERANCE`].
    pub regressed: bool,
}

/// True for the metrics the ratchet applies to: the dimensionless
/// speedups. Everything else is informational.
fn ratcheted(name: &str) -> bool {
    name.ends_with("_speedup")
}

/// Compare fresh metrics against a baseline map. Only metrics present in
/// both participate, and only the ratcheted ones can regress; the others
/// are informational (`regressed = false`, `rel` only).
pub fn compare(
    fresh: &[(String, f64)],
    baseline: &BTreeMap<String, f64>,
) -> Vec<Delta> {
    fresh
        .iter()
        .filter_map(|(name, m)| {
            let b = *baseline.get(name)?;
            let rel = if b != 0.0 { m / b - 1.0 } else { 0.0 };
            Some(Delta {
                name: name.clone(),
                baseline: b,
                measured: *m,
                rel,
                regressed: ratcheted(name) && rel < -RATCHET_TOLERANCE,
            })
        })
        .collect()
}

fn print_delta_table(deltas: &[Delta]) {
    println!("\n  perf ratchet (tolerance -{:.0}%):", RATCHET_TOLERANCE * 100.0);
    println!(
        "  {:<44} {:>14} {:>14} {:>8}  verdict",
        "metric", "baseline", "measured", "delta"
    );
    for d in deltas {
        println!(
            "  {:<44} {:>14.4e} {:>14.4e} {:>+7.1}%  [{}]",
            d.name,
            d.baseline,
            d.measured,
            d.rel * 100.0,
            if d.regressed {
                "REGRESSED"
            } else if ratcheted(&d.name) {
                "ok"
            } else {
                "info"
            }
        );
    }
}

/// Record a batch of metrics: print them, merge them into
/// `HACC_BENCH_JSON` when set, and ratchet them against
/// `HACC_BENCH_BASELINE` when set (process exit 1 on regression).
pub fn record(metrics: &[(&str, f64)]) {
    let owned: Vec<(String, f64)> =
        metrics.iter().map(|&(n, v)| (n.to_string(), v)).collect();
    for (name, value) in &owned {
        println!("metric  {name} = {value:.6e}");
    }

    if let Some(path) = std::env::var_os("HACC_BENCH_JSON") {
        let path = Path::new(&path);
        let mut all = load(path);
        for (n, v) in &owned {
            all.insert(n.clone(), *v);
        }
        let mut f = std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("cannot write baseline {path:?}: {e}"));
        f.write_all(render(&all).as_bytes()).expect("baseline write");
        println!("  wrote {} metrics -> {}", all.len(), path.display());
    }

    if let Some(path) = std::env::var_os("HACC_BENCH_BASELINE") {
        let path = Path::new(&path);
        let base = load(path);
        assert!(
            !base.is_empty(),
            "HACC_BENCH_BASELINE {path:?} is missing or has no metrics"
        );
        let deltas = compare(&owned, &base);
        print_delta_table(&deltas);
        let bad: Vec<&Delta> = deltas.iter().filter(|d| d.regressed).collect();
        if !bad.is_empty() {
            eprintln!(
                "perf ratchet FAILED: {} metric(s) regressed more than {:.0}%",
                bad.len(),
                RATCHET_TOLERANCE * 100.0
            );
            std::process::exit(1);
        }
    }
}

/// True when the ratchet gate is active (used by benches to turn on
/// hard acceptance asserts only under `scripts/verify.sh`).
pub fn ratchet_mode() -> bool {
    std::env::var_os("HACC_BENCH_BASELINE").is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert("grav_pairs_per_s".to_string(), 2.5e8);
        m.insert("crk_force_symmetric_speedup".to_string(), 2.31);
        let parsed = parse(&render(&m));
        assert_eq!(parsed, m);
    }

    #[test]
    fn parser_skips_wrapper_and_junk() {
        let text = r#"{ "metrics": { "a_per_s": 10.0, "note": "text", "b": 1e3 } }"#;
        let m = parse(text);
        assert_eq!(m.get("a_per_s"), Some(&10.0));
        assert_eq!(m.get("b"), Some(&1000.0));
        assert!(!m.contains_key("metrics"));
        assert!(!m.contains_key("note"));
    }

    #[test]
    fn ratchet_trips_only_past_tolerance_on_speedups() {
        let mut base = BTreeMap::new();
        base.insert("x_per_s".to_string(), 100.0);
        base.insert("y_speedup".to_string(), 2.0);
        base.insert("cost_multiple".to_string(), 16.0);
        // 10% down: within tolerance.
        let d = compare(&[("y_speedup".to_string(), 1.8)], &base);
        assert!(!d[0].regressed);
        // 25% down: trips.
        let d = compare(&[("y_speedup".to_string(), 1.5)], &base);
        assert!(d[0].regressed);
        // Absolute rates and cost multiples move with the host: they
        // never trip, even when they move a lot.
        let d = compare(&[("x_per_s".to_string(), 50.0)], &base);
        assert!(!d[0].regressed && d[0].rel < -0.4);
        let d = compare(&[("cost_multiple".to_string(), 4.0)], &base);
        assert!(!d[0].regressed);
        // Unknown metrics are ignored (first bless).
        let d = compare(&[("new_per_s".to_string(), 1.0)], &base);
        assert!(d.is_empty());
    }

    #[test]
    fn improvements_never_trip() {
        let mut base = BTreeMap::new();
        base.insert("x_speedup".to_string(), 100.0);
        let d = compare(&[("x_speedup".to_string(), 250.0)], &base);
        assert!(!d[0].regressed);
        assert!(d[0].rel > 1.0);
    }
}
