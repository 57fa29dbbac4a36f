//! End-to-end integration tests: the full §5 pipeline across all crates —
//! topology generation → BGP convergence → target selection → failure →
//! probing → metrics — checking the paper's headline relations.

use bobw::core::{run_failover, ExperimentConfig, Technique, Testbed};
use bobw::event::SimDuration;
use bobw::measure::Cdf;

fn testbed(seed: u64) -> Testbed {
    let mut cfg = ExperimentConfig::quick(seed);
    cfg.targets_per_site = 80;
    cfg.probe.duration = SimDuration::from_secs(240);
    Testbed::new(cfg)
}

fn failover_median(tb: &Testbed, t: &Technique, sites: &[&str]) -> f64 {
    let mut all = Vec::new();
    for s in sites {
        let (r, _) = run_failover(tb, t, tb.site(s)).expect("cell runs");
        all.extend(r.failover_secs());
    }
    Cdf::new(all).median().expect("samples")
}

const SITES: &[&str] = &["bos", "atl", "slc"];

#[test]
fn headline_reactive_anycast_close_to_anycast_superprefix_far() {
    // The paper's central quantitative claim (Figure 2): reactive-anycast's
    // failover is close to anycast's, proactive-superprefix's is much
    // slower.
    let tb = testbed(11);
    let anycast = failover_median(&tb, &Technique::Anycast, SITES);
    let reactive = failover_median(&tb, &Technique::ReactiveAnycast, SITES);
    let superprefix = failover_median(&tb, &Technique::ProactiveSuperprefix, SITES);
    assert!(
        reactive <= anycast * 4.0 + 5.0,
        "reactive-anycast failover {reactive}s too far from anycast {anycast}s"
    );
    assert!(
        superprefix > 3.0 * reactive,
        "superprefix failover {superprefix}s should be much slower than reactive {reactive}s"
    );
    assert!(
        superprefix > 20.0,
        "superprefix failover {superprefix}s should be withdrawal-convergence slow"
    );
}

#[test]
fn unicast_prefix_techniques_control_everything() {
    // §5.4.2: reactive-anycast and proactive-superprefix route all targets
    // to the specific site (the prefix is unicast in normal operation).
    let tb = testbed(12);
    for t in [
        Technique::ReactiveAnycast,
        Technique::ProactiveSuperprefix,
        Technique::Unicast,
    ] {
        let (r, _) = run_failover(&tb, &t, tb.site("bos")).expect("cell runs");
        assert!(r.num_selected > 0);
        assert!(
            r.control_fraction() > 0.99,
            "{} control {}",
            r.technique,
            r.control_fraction()
        );
    }
}

#[test]
fn prepending_controls_some_but_not_all() {
    // Table 1: prepending steers a strict subset of the not-anycast-routed
    // targets.
    let tb = testbed(13);
    let t = Technique::ProactivePrepending {
        prepends: 3,
        selective: false,
    };
    let mut controlled_everything = true;
    let mut controlled_nothing = true;
    for s in ["ams", "bos", "sea1", "sea2", "msn", "slc"] {
        let (r, _) = run_failover(&tb, &t, tb.site(s)).expect("cell runs");
        if r.num_selected == 0 {
            continue;
        }
        let f = r.control_fraction();
        if f < 0.999 {
            controlled_everything = false;
        }
        if f > 0.001 {
            controlled_nothing = false;
        }
    }
    assert!(
        !controlled_everything,
        "prepending must lose control somewhere (it is 'medium' control)"
    );
    assert!(!controlled_nothing, "prepending must steer someone");
}

#[test]
fn all_clients_eventually_served_by_survivors() {
    // Availability invariant: after failover every target that stabilized
    // ends at a live (non-failed) site.
    let tb = testbed(14);
    for t in [
        Technique::Anycast,
        Technique::ReactiveAnycast,
        Technique::ProactiveSuperprefix,
        Technique::Combined,
    ] {
        let failed = tb.site("atl");
        let (r, _) = run_failover(&tb, &t, failed).expect("cell runs");
        for o in &r.outcomes {
            if let Some(site) = o.final_site {
                assert_ne!(
                    site, failed,
                    "{}: target ended at the failed site",
                    r.technique
                );
            }
        }
        // And the overwhelming majority do stabilize within the window.
        let stabilized = r.outcomes.iter().filter(|o| o.failover.is_some()).count();
        assert!(
            stabilized * 10 >= r.outcomes.len() * 9,
            "{}: only {}/{} stabilized",
            r.technique,
            stabilized,
            r.outcomes.len()
        );
    }
}

#[test]
fn reconnection_lower_bounds_failover() {
    // Metric sanity across the whole pipeline (§5.4.1 definitions).
    let tb = testbed(15);
    let (r, _) = run_failover(&tb, &Technique::ReactiveAnycast, tb.site("slc")).expect("cell runs");
    for o in &r.outcomes {
        if let (Some(rec), Some(f)) = (o.reconnection, o.failover) {
            assert!(rec <= f, "reconnection {rec} > failover {f}");
        }
        // A target with a failover time must have reconnected.
        if o.failover.is_some() {
            assert!(o.reconnection.is_some());
        }
    }
}

#[test]
fn deterministic_end_to_end() {
    // Same seed, same everything: two independent testbeds and runs give
    // identical measurements.
    let ta = testbed(16);
    let tb = testbed(16);
    let (ra, _) = run_failover(&ta, &Technique::Combined, ta.site("msn")).expect("cell runs");
    let (rb, _) = run_failover(&tb, &Technique::Combined, tb.site("msn")).expect("cell runs");
    assert_eq!(ra.num_candidates, rb.num_candidates);
    assert_eq!(ra.num_controllable, rb.num_controllable);
    assert_eq!(ra.outcomes, rb.outcomes);
}

#[test]
fn different_seeds_change_the_internet_not_the_conclusions() {
    // Robustness: another seed still shows the superprefix-vs-reactive gap.
    let tb = testbed(99);
    let reactive = failover_median(&tb, &Technique::ReactiveAnycast, &["bos", "slc"]);
    let superprefix = failover_median(&tb, &Technique::ProactiveSuperprefix, &["bos", "slc"]);
    assert!(
        superprefix > 2.0 * reactive,
        "{superprefix} !> 2x {reactive}"
    );
}
