//! The client population model for the unicast failover baseline.
//!
//! The paper argues (without measuring directly — its emulated CDN has no
//! real client population) that unicast failover is bounded by DNS caching
//! and its violations: top domains' median TTL is ~10 minutes [Moura '19],
//! Akamai uses 20 s [Schomp '20], and clients keep using expired records
//! with a median overshoot of 890 s [Allman '20]. This module samples a
//! population under those published parameters and computes each client's
//! failover time: how long after a site failure the client first tries a
//! *live* address.

use bobw_event::rng::lognormal;
use bobw_event::{RngFactory, SimDuration};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Median overshoot past expiry of a TTL-violating client, in seconds
/// (Allman '20: 890 s).
pub const OVERSHOOT_MEDIAN_S: f64 = 890.0;

/// Lognormal sigma of the violators' overshoot.
pub const OVERSHOOT_SIGMA: f64 = 1.0;

/// Parameters of the DNS failover baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DnsFailoverConfig {
    /// Record TTL.
    pub ttl: SimDuration,
    /// Fraction of clients that keep using records past TTL, each for an
    /// overshoot drawn from [`OVERSHOOT_MEDIAN_S`] / [`OVERSHOOT_SIGMA`].
    pub violator_fraction: f64,
    /// Latency of the re-resolution itself (recursive → authoritative).
    pub requery_latency: SimDuration,
}

impl Default for DnsFailoverConfig {
    fn default() -> Self {
        DnsFailoverConfig {
            // Median TTL across popular domains is ~10 min (§1).
            ttl: SimDuration::from_secs(600),
            violator_fraction: 0.25,
            requery_latency: SimDuration::from_millis(200),
        }
    }
}

impl DnsFailoverConfig {
    /// The Akamai-style low-TTL configuration (20 s records).
    pub fn low_ttl() -> DnsFailoverConfig {
        DnsFailoverConfig {
            ttl: SimDuration::from_secs(20),
            ..Default::default()
        }
    }
}

/// A sampled population of DNS clients.
#[derive(Debug, Clone)]
pub struct ClientPopulation {
    /// Per-client failover time after an unannounced site failure.
    failover: Vec<SimDuration>,
}

impl ClientPopulation {
    /// Samples `n` clients. Each client's cache phase at the failure
    /// instant is uniform in `[0, TTL)` (steady-state arrivals); violators
    /// add a lognormal overshoot.
    pub fn sample(cfg: &DnsFailoverConfig, n: usize, rng: &RngFactory) -> ClientPopulation {
        let mut failover = Vec::with_capacity(n);
        let ttl_s = cfg.ttl.as_secs_f64();
        for i in 0..n {
            let mut r = rng.stream("dns-client", i as u64);
            // Time remaining until the client's cached record expires.
            let remaining = r.gen_range(0.0..ttl_s.max(f64::MIN_POSITIVE));
            let overshoot = if r.gen_bool(cfg.violator_fraction.clamp(0.0, 1.0)) {
                lognormal(&mut r, OVERSHOOT_MEDIAN_S, OVERSHOOT_SIGMA)
            } else {
                0.0
            };
            let t = SimDuration::from_secs_f64(remaining + overshoot) + cfg.requery_latency;
            failover.push(t);
        }
        ClientPopulation { failover }
    }

    /// Per-client failover times (unsorted, client order).
    pub fn failover_times(&self) -> &[SimDuration] {
        &self.failover
    }

    pub fn len(&self) -> usize {
        self.failover.len()
    }

    pub fn is_empty(&self) -> bool {
        self.failover.is_empty()
    }

    /// Failover times in seconds, sorted ascending (CDF-ready).
    pub fn sorted_secs(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.failover.iter().map(|d| d.as_secs_f64()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_size_and_determinism() {
        let cfg = DnsFailoverConfig::default();
        let a = ClientPopulation::sample(&cfg, 500, &RngFactory::new(3));
        let b = ClientPopulation::sample(&cfg, 500, &RngFactory::new(3));
        assert_eq!(a.len(), 500);
        assert!(!a.is_empty());
        assert_eq!(a.failover_times(), b.failover_times());
    }

    #[test]
    fn compliant_clients_bounded_by_ttl() {
        let cfg = DnsFailoverConfig {
            violator_fraction: 0.0,
            ..Default::default()
        };
        let p = ClientPopulation::sample(&cfg, 2000, &RngFactory::new(4));
        let max = p.sorted_secs().last().copied().unwrap();
        // TTL 600 s + requery latency.
        assert!(max <= 600.5, "{max}");
        // Median near TTL/2 (uniform phase).
        let v = p.sorted_secs();
        let med = v[v.len() / 2];
        assert!((240.0..360.0).contains(&med), "{med}");
    }

    #[test]
    fn violators_create_a_long_tail() {
        let cfg = DnsFailoverConfig::default(); // 25% violators
        let p = ClientPopulation::sample(&cfg, 4000, &RngFactory::new(5));
        let v = p.sorted_secs();
        let p95 = v[(v.len() * 95) / 100];
        // With a 890 s-median overshoot on a quarter of clients, the tail
        // extends far beyond the 600 s TTL.
        assert!(p95 > 700.0, "{p95}");
    }

    #[test]
    fn low_ttl_shrinks_failover_but_violators_remain() {
        let p = ClientPopulation::sample(&DnsFailoverConfig::low_ttl(), 4000, &RngFactory::new(6));
        let v = p.sorted_secs();
        let med = v[v.len() / 2];
        // Most clients' records expire within 20 s...
        assert!(med < 25.0, "{med}");
        // ...but the violating tail still stretches to hundreds of seconds,
        // which is the paper's §1 point about Akamai-style low TTLs.
        let p90 = v[(v.len() * 90) / 100];
        assert!(p90 > 100.0, "{p90}");
    }

    #[test]
    fn sorted_is_monotone() {
        let p = ClientPopulation::sample(&DnsFailoverConfig::default(), 100, &RngFactory::new(7));
        let v = p.sorted_secs();
        for w in v.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
