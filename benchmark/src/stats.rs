//! Order statistics over pooled timing samples, and the result digest the
//! correctness checks compare.

use bobw_dist::CellOutput;
use bobw_measure::Cdf;

/// Median of `samples` (`bobw_measure::Cdf`'s nearest-rank quantile, the
/// one quantile definition in the repo); an empty pool reads 0.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Nearest-rank percentile `p` (0..=100); an empty pool reads 0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    Cdf::new(samples.to_vec())
        .quantile(p / 100.0)
        .unwrap_or(0.0)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them: the builder's driver
/// takes a metric's run-to-run spread from these, so `--selfcheck` does
/// too. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    Some([1, 2, 3].map(|i| {
        // Position i·(n+1)/4, counted from 1, interpolated linearly (and
        // beyond the ends when the position falls outside the data).
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    }))
}

/// The tail percentiles the reports choose from, ascending, in per mille
/// (integers, so "ten samples beyond" is exact).
const TAILS: [usize; 5] = [750, 900, 950, 990, 999];

/// The highest percentile of [`TAILS`] that still has at least ten of `n`
/// samples beyond it — a tail read off fewer samples than that is mostly
/// noise. `None` when even p75 is not supported (n < 40).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rev()
        .find(|&&p| n * (1000 - p) >= 10 * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// `p50 / p<tail> (n)` rendering of a pool for the human-readable report.
pub fn describe(samples: &[f64]) -> String {
    let n = samples.len();
    let med = median(samples);
    match highest_supported_percentile(n) {
        Some(p) => format!("p50 {med:.3}  p{p} {:.3}  (n={n})", percentile(samples, p)),
        None => format!("p50 {med:.3}  (n={n})"),
    }
}

/// Digest of a cell's *result* — the deterministic half of a
/// [`CellOutput`]; the `CellPerf` half is host time and must not enter.
/// Two digests are equal iff the results serialize to the same JSON, which
/// is the byte-identity the repo's own determinism gates use.
pub fn result_digest(output: &CellOutput) -> u64 {
    let json = match output {
        CellOutput::Failover(r, _) => serde_json::to_string(r),
        CellOutput::Control(r, _) => serde_json::to_string(r),
    }
    .expect("results serialize");
    bobw_dist::proto::fnv1a(json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_core::{CellPerf, ExperimentConfig, Testbed};
    use bobw_dist::{execute_cell, CellSpec};

    #[test]
    fn quantiles_of_small_pools() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&v), 51.0);
        assert_eq!(percentile(&v, 95.0), 96.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        let ten = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        assert_eq!(quartiles(&ten), Some([1.75, 3.5, 5.25]));
        assert_eq!(quartiles(&[10.0, 20.0, 30.0]), Some([10.0, 20.0, 30.0]));
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 5.0]), Some([1.5, 4.0, 6.5]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn picker_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn digest_ignores_perf_and_sees_results() {
        let mut cfg = ExperimentConfig::quick(3);
        cfg.targets_per_site = 10;
        let tb = Testbed::new(cfg);
        let cell = |site: &str| CellSpec::Failover {
            technique: "anycast".into(),
            site: site.into(),
        };
        let a = execute_cell(&tb, &cell("ams")).unwrap();
        let again = execute_cell(&tb, &cell("ams")).unwrap();
        let other = execute_cell(&tb, &cell("bos")).unwrap();
        assert_eq!(result_digest(&a), result_digest(&again));
        assert_ne!(result_digest(&a), result_digest(&other));
        // Host time lives in CellPerf only: zeroing it moves nothing.
        let CellOutput::Failover(r, _) = a.clone() else {
            unreachable!()
        };
        let zeroed = CellOutput::Failover(r, CellPerf::ZERO);
        assert_eq!(result_digest(&a), result_digest(&zeroed));
    }
}
