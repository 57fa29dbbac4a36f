//! Integration tests for the fault shapes the paper's §4/§7 risk
//! discussion turns on, each scripted as a [`Scenario`]: a botched
//! reactive reconfiguration (a `React` that skips sites or announces the
//! wrong prefix — reactive-anycast's "operationally treacherous" risk
//! made measurable) and a silent site crash (`Scenario::crashed`, where
//! neighbors must discover the failure via the BGP hold timer instead of
//! receiving withdrawals).

use bobw_core::{run_failover, ExperimentConfig, FailoverResult, Technique, Testbed};
use bobw_event::SimDuration;
use bobw_scenario::ScenarioAction;

fn config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(seed);
    cfg.targets_per_site = 60;
    cfg.probe.duration = SimDuration::from_secs(240);
    cfg
}

/// `cfg` running the baseline with its reaction botched: the first `skip`
/// sites never get the new configuration, and with `wrong_prefix` every
/// site announces the covering prefix instead of the specific one.
fn botched_reaction(
    mut cfg: ExperimentConfig,
    skip: usize,
    wrong_prefix: bool,
) -> ExperimentConfig {
    let mut scenario = cfg.fault_script();
    let react = scenario
        .events
        .last_mut()
        .expect("the baseline ends in its reaction");
    react.action = ScenarioAction::React {
        skip,
        stagger_s: None,
        wrong_prefix: wrong_prefix.then_some(true),
    };
    cfg.scenario = Some(scenario);
    cfg
}

/// `cfg` with the baseline failure a silent crash.
fn crashed(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.scenario = Some(cfg.fault_script().crashed());
    cfg
}

fn never_reconnected(r: &FailoverResult) -> usize {
    r.outcomes
        .iter()
        .filter(|o| o.reconnection.is_none())
        .count()
}

#[test]
fn skip_sites_degrades_failover_monotonically() {
    // Partial rollout: the first n backup sites never get the reactive
    // configuration. The more sites the automation skips, the more targets
    // are stranded; skipping every site strands (almost) everyone, because
    // only the faulty reaction would have re-announced the specific prefix.
    let mut stranded = Vec::new();
    for n in [0usize, 3, 7] {
        let tb = Testbed::new(botched_reaction(config(21), n, false));
        let (r, _) =
            run_failover(&tb, &Technique::ReactiveAnycast, tb.site("bos")).expect("cell runs");
        assert!(r.num_controllable > 0);
        stranded.push(never_reconnected(&r));
    }
    let (clean, partial, total) = (stranded[0], stranded[1], stranded[2]);
    assert!(
        partial >= clean,
        "skipping sites must not improve failover ({partial} < {clean})"
    );
    assert!(
        total > partial,
        "skipping all sites ({total}) must strand more targets than skipping 3 ({partial})"
    );
}

#[test]
fn wrong_prefix_typo_slows_failover_to_withdrawal_convergence() {
    // The Amazon-typo class of outage: every backup site announces the
    // *covering* prefix instead of the failed site's specific one.
    // Longest-prefix match keeps clients on the (dead) specific route
    // until its withdrawal converges — so instead of reactive-anycast's
    // fast failover, clients crawl back at proactive-superprefix speed.
    let clean_tb = Testbed::new(config(22));
    let (clean, _) = run_failover(&clean_tb, &Technique::ReactiveAnycast, clean_tb.site("bos"))
        .expect("cell runs");

    let tb = Testbed::new(botched_reaction(config(22), 0, true));
    let (typo, _) =
        run_failover(&tb, &Technique::ReactiveAnycast, tb.site("bos")).expect("cell runs");

    assert_eq!(clean.num_controllable, typo.num_controllable);
    assert!(
        never_reconnected(&typo) >= never_reconnected(&clean),
        "the typo must not save targets the clean reaction loses"
    );
    let median = |r: &FailoverResult| {
        let mut v = r.failover_secs();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (fast, slow) = (median(&clean), median(&typo));
    assert!(
        slow > 2.0 * fast,
        "wrong-prefix failover ({slow:.1}s) should be withdrawal-convergence \
         slow vs the clean reaction ({fast:.1}s)"
    );
}

#[test]
fn silent_crash_converges_only_after_hold_timer() {
    // Under a silent crash nothing is withdrawn: each neighbor discovers
    // the failure only when its hold timer expires, so no anycast target
    // can reconnect before `hold_time_s`. A graceful withdrawal at the
    // same seed reconnects well before that.
    let hold_s = 90.0;
    let mk = |crash: bool| {
        let mut cfg = config(23);
        if crash {
            cfg = crashed(cfg);
        }
        cfg.timing.hold_time_s = hold_s;
        let tb = Testbed::new(cfg);
        run_failover(&tb, &Technique::Anycast, tb.site("slc"))
            .expect("cell runs")
            .0
    };
    let graceful = mk(false);
    let crash = mk(true);

    let crash_recons: Vec<f64> = crash.reconnection_secs();
    assert!(
        !crash_recons.is_empty(),
        "some targets must still fail over"
    );
    let earliest_crash = crash_recons.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        earliest_crash >= hold_s,
        "a target reconnected after {earliest_crash:.1}s, before the {hold_s}s hold timer"
    );

    let graceful_recons = graceful.reconnection_secs();
    assert!(!graceful_recons.is_empty());
    let earliest_graceful = graceful_recons
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    assert!(
        earliest_graceful < hold_s,
        "graceful withdrawal should beat the hold timer (earliest {earliest_graceful:.1}s)"
    );
}

#[test]
fn bfd_style_detection_restores_fast_crash_failover() {
    // With a sub-second hold timer (BFD-style liveness detection) the
    // silent crash stops being special: reconnection times drop from the
    // hold-timer plateau back to withdrawal-convergence territory.
    let mk = |hold_s: f64| {
        let mut cfg = crashed(config(24));
        cfg.timing.hold_time_s = hold_s;
        let tb = Testbed::new(cfg);
        let (r, _) = run_failover(&tb, &Technique::Anycast, tb.site("msn")).expect("cell runs");
        let recons = r.reconnection_secs();
        assert!(!recons.is_empty());
        recons.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    let slow = mk(90.0);
    let fast = mk(0.5);
    assert!(slow >= 90.0);
    assert!(
        fast < slow / 2.0,
        "BFD-style detection (earliest {fast:.1}s) should be far faster than \
         hold-timer discovery (earliest {slow:.1}s)"
    );
}
