//! Unicast DNS failover through the one failover loop: `Technique::Unicast`
//! under a site failure at 10 s followed, 2 s later, by a DNS de-steer
//! (`Drain`). Clients reconnect once their cached record expires, so
//! reconnection is bounded by the TTL; TTL violators stretch the tail.
//! One quick-scale cell of the built-in scenario is pinned.

use bobw_core::{run_failover, ExperimentConfig, FailoverResult, Technique, Testbed};
use bobw_event::SimDuration;
use bobw_measure::Cdf;
use bobw_scenario::{Scenario, ScenarioAction, ScenarioEvent};

/// The site fails at 10 s; DNS stops naming it at 12 s with records of
/// `ttl_s` and a `violators` share of clients past expiry.
fn dns_failover(ttl_s: f64, violators: Option<f64>) -> Scenario {
    let site = || "$site".to_string();
    Scenario {
        name: "dns".into(),
        description: String::new(),
        site: site(),
        measure_from_s: Some(10.0),
        events: vec![
            ScenarioEvent {
                at_s: 10.0,
                action: ScenarioAction::SiteFail {
                    site: site(),
                    graceful: None,
                },
            },
            ScenarioEvent {
                at_s: 12.0,
                action: ScenarioAction::Drain {
                    site: site(),
                    ttl_s,
                    shutdown_after_s: 0.0,
                    violators,
                },
            },
        ],
    }
}

/// Runs the unicast technique under `scenario`, probing for `window_s`.
fn run(scenario: Scenario, window_s: u64, site: &str) -> FailoverResult {
    let mut cfg = ExperimentConfig::quick(21);
    cfg.targets_per_site = 60;
    cfg.scenario = Some(scenario);
    cfg.probe.duration = SimDuration::from_secs(window_s);
    let tb = Testbed::new(cfg);
    run_failover(&tb, &Technique::Unicast, tb.site(site))
        .expect("cell runs")
        .0
}

#[test]
fn unicast_failover_is_dns_bound() {
    let r = run(dns_failover(60.0, None), 120, "bos");
    assert!(r.num_controllable > 0);
    assert_eq!(r.never_reconnected_fraction(), 0.0);
    let recon = Cdf::new(r.reconnection_secs());
    // Compliant clients re-resolve uniformly within the TTL after the DNS
    // update: median near detection + TTL/2 (2 s + 30 s) — far slower than
    // the BGP-layer techniques — and nobody later than detection + TTL +
    // one probe interval + the ping round trip.
    let med = recon.median().expect("targets reconnect");
    assert!(
        (12.0..=52.0).contains(&med),
        "median {med} outside DNS-bound range"
    );
    let max = recon.max().unwrap();
    assert!(
        max <= 2.0 + 60.0 + 1.5 + 1.0,
        "max {max} exceeds the TTL bound"
    );
    // Everyone ends at a surviving site.
    for o in &r.outcomes {
        assert_ne!(o.final_site, Some(r.failed_site));
    }
}

#[test]
fn violators_stretch_the_tail() {
    let strict = run(dns_failover(30.0, None), 300, "slc");
    let loose = run(dns_failover(30.0, Some(0.5)), 300, "slc");
    assert_eq!(strict.num_controllable, loose.num_controllable);
    let tail_strict = Cdf::new(strict.reconnection_secs())
        .quantile(0.9)
        .unwrap_or(0.0);
    let tail_loose = Cdf::new(loose.reconnection_secs())
        .quantile(0.9)
        .unwrap_or(f64::MAX);
    // With violators, the p90 extends beyond the TTL bound (or targets
    // fail to reconnect inside the window at all).
    let never = loose.never_reconnected_fraction();
    assert!(
        tail_loose > tail_strict || never > 0.0,
        "violators had no effect: {tail_strict} vs {tail_loose} (never {never})"
    );
}

#[test]
fn deterministic() {
    let a = run(dns_failover(45.0, Some(0.25)), 90, "msn");
    let b = run(dns_failover(45.0, Some(0.25)), 90, "msn");
    assert_eq!(a.outcomes, b.outcomes);
}

/// FNV-1a over the result's JSON, as in `session_golden.rs`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The cell behind the in-sim unicast rows of `unicast_dns` and
/// `repro_all`, at quick scale, seed 42, failing bos: its event count and
/// result hash freeze the scenario's compile, the drain's RNG draws and the
/// probing. A deliberate behaviour change updates them and says why.
#[test]
fn dns_failover_cell_is_frozen() {
    let mut cfg = ExperimentConfig::quick(42);
    cfg.scenario = Some(Scenario::dns_failover(cfg.detection_delay.as_secs_f64()));
    cfg.probe.duration = SimDuration::from_secs(1800);
    let tb = Testbed::new(cfg);
    let (result, perf) = run_failover(&tb, &Technique::Unicast, tb.site("bos")).expect("compiles");
    let json = serde_json::to_string(&result).unwrap();
    assert_eq!(
        (
            result.num_controllable,
            perf.events_processed,
            fnv1a(json.as_bytes())
        ),
        (47, 37876, 0x21e1_2388_cb5d_7261),
        "the unicast DNS failover cell drifted from its pinned output"
    );
}
