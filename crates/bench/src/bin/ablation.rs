//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **WRATE** (per-peer MRAI pacing of withdrawals): flipping it off
//!    collapses path exploration and with it the superprefix/anycast gap —
//!    showing the convergence regime the paper's numbers depend on.
//! 2. **MRAI band**: halving/doubling scales withdrawal convergence almost
//!    linearly but barely touches fresh-announcement propagation.
//! 3. **Detection delay**: reactive-anycast's reconnection tracks the CDN's
//!    outage-detection latency ("CDNs need to make new announcements
//!    quickly after the detection of an outage", §4).
//! 4. **Backup de-preferencing mechanism**: prepending vs selective
//!    prepending vs MED (§4's aside) — control and failover side by side.
//! 5. **Failure mode**: the paper assumes the failing site withdraws its
//!    announcements (§4); a silent crash (the baseline scenario, made
//!    `crashed()`) leaves discovery to the BGP hold timer (90 s default)
//!    unless the operator runs BFD-style detection.
//! 6. **Route-flap damping**: a site failure *is* a flap; routers that
//!    dampen the withdrawn prefix also suppress the valid routes
//!    reactive-anycast injects moments later — an interaction the paper
//!    does not discuss (and a reason RIPE-580 discourages damping).
//!
//! Run: `cargo run --release -p bobw-bench --bin ablation [--scale quick]`

use bobw_bench::{parse_cli, run_failover_grid_dispatch, run_or_exit, write_json, Dispatch};
use bobw_bgp::DampingConfig;
use bobw_core::{FailoverResult, Technique, Testbed};
use bobw_event::SimDuration;
use bobw_measure::Cdf;
use bobw_scenario::ScenarioAction;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct AblationRow {
    study: String,
    variant: String,
    technique: String,
    control_fraction: f64,
    reconnection_p50: f64,
    failover_p50: f64,
    failover_p90: f64,
}

/// Runs `technique` against each named site through the dispatcher (local
/// threads or remote workers); results come back in site order, so the
/// aggregate is independent of scheduling and dispatch mode.
fn site_results(
    testbed: &Testbed,
    technique: &Technique,
    sites: &[&str],
    dispatch: &mut Dispatch,
) -> Vec<FailoverResult> {
    let (mut grouped, _) = run_or_exit(run_failover_grid_dispatch(
        testbed,
        std::slice::from_ref(technique),
        sites,
        dispatch,
    ));
    grouped.pop().expect("one technique in, one group out")
}

#[allow(clippy::too_many_arguments)]
fn measure(
    rows: &mut Vec<AblationRow>,
    study: &str,
    variant: &str,
    testbed: &Testbed,
    technique: &Technique,
    sites: &[&str],
    dispatch: &mut Dispatch,
) {
    let mut recon = Vec::new();
    let mut fail = Vec::new();
    let mut ctrl = 0.0;
    for r in site_results(testbed, technique, sites, dispatch) {
        recon.extend(r.reconnection_secs());
        fail.extend(r.failover_secs());
        ctrl += r.control_fraction();
    }
    let rc = Cdf::new(recon);
    let fc = Cdf::new(fail);
    let row = AblationRow {
        study: study.to_string(),
        variant: variant.to_string(),
        technique: technique.name(),
        control_fraction: ctrl / sites.len() as f64,
        reconnection_p50: rc.median().unwrap_or(f64::NAN),
        failover_p50: fc.median().unwrap_or(f64::NAN),
        failover_p90: fc.quantile(0.9).unwrap_or(f64::NAN),
    };
    println!(
        "{:<18} {:<22} {:<26} ctrl={:>4.0}% recon p50={:>6.1}s failover p50={:>6.1}s p90={:>6.1}s",
        row.study,
        row.variant,
        row.technique,
        row.control_fraction * 100.0,
        row.reconnection_p50,
        row.failover_p50,
        row.failover_p90
    );
    rows.push(row);
}

fn main() {
    let cli = parse_cli();
    let mut dispatch = cli.dispatch();
    let sites = ["bos", "slc", "msn"];
    let mut rows = Vec::new();

    // --- 1. WRATE on/off. ---
    for wrate in [true, false] {
        let mut cfg = cli.scale.config(cli.seed);
        cfg.timing.withdrawal_rate_limiting = wrate;
        let tb = Testbed::new(cfg);
        let variant = if wrate {
            "wrate-on (default)"
        } else {
            "wrate-off"
        };
        measure(
            &mut rows,
            "wrate",
            variant,
            &tb,
            &Technique::ProactiveSuperprefix,
            &sites,
            &mut dispatch,
        );
        measure(
            &mut rows,
            "wrate",
            variant,
            &tb,
            &Technique::Anycast,
            &sites,
            &mut dispatch,
        );
    }

    // --- 2. MRAI band scale. ---
    for (label, factor) in [
        ("mrai-x0.5", 0.5),
        ("mrai-x1 (default)", 1.0),
        ("mrai-x2", 2.0),
    ] {
        let mut cfg = cli.scale.config(cli.seed);
        cfg.timing.mrai_min_s *= factor;
        cfg.timing.mrai_max_s *= factor;
        let tb = Testbed::new(cfg);
        measure(
            &mut rows,
            "mrai",
            label,
            &tb,
            &Technique::ProactiveSuperprefix,
            &sites,
            &mut dispatch,
        );
    }

    // --- 3. Detection delay for reactive-anycast. ---
    for secs in [0u64, 2, 10, 30] {
        let mut cfg = cli.scale.config(cli.seed);
        cfg.detection_delay = SimDuration::from_secs(secs);
        let tb = Testbed::new(cfg);
        measure(
            &mut rows,
            "detection",
            &format!("detect={secs}s"),
            &tb,
            &Technique::ReactiveAnycast,
            &sites,
            &mut dispatch,
        );
    }

    // --- 4. Backup de-preferencing mechanism. ---
    {
        let tb = Testbed::new(cli.scale.config(cli.seed));
        for t in [
            Technique::ProactivePrepending {
                prepends: 3,
                selective: false,
            },
            Technique::ProactivePrepending {
                prepends: 3,
                selective: true,
            },
            Technique::ProactiveMed { med: 100 },
            Technique::ProactiveNoExport { prepends: 3 },
        ] {
            measure(
                &mut rows,
                "backup-mech",
                &t.name(),
                &tb,
                &t,
                &sites,
                &mut dispatch,
            );
        }
    }

    // --- 5. Failure mode: graceful withdrawal vs silent crash. ---
    for (label, crash, hold) in [
        ("graceful (default)", false, 90.0),
        ("crash, hold=90s", true, 90.0),
        ("crash, BFD 0.5s", true, 0.5),
    ] {
        let mut cfg = cli.scale.config(cli.seed);
        if crash {
            cfg.scenario = Some(cfg.fault_script().crashed());
        }
        cfg.timing.hold_time_s = hold;
        let tb = Testbed::new(cfg);
        measure(
            &mut rows,
            "failure-mode",
            label,
            &tb,
            &Technique::Anycast,
            &sites,
            &mut dispatch,
        );
        measure(
            &mut rows,
            "failure-mode",
            label,
            &tb,
            &Technique::ReactiveAnycast,
            &sites,
            &mut dispatch,
        );
    }

    // --- 6. Route-flap damping vs reactive-anycast. A single clean
    // failure stays under Cisco-default thresholds; the operationally
    // scary case is a site that flapped (maintenance churn) before dying,
    // which pre-charges the penalty so the failure-time churn — including
    // reactive-anycast's *valid* replacement announcements — gets
    // suppressed. ---
    for (label, damping, flaps) in [
        ("off, clean failure", None, 0u32),
        ("on, clean failure", Some(DampingConfig::default()), 0),
        ("off, flappy site", None, 3),
        ("on, flappy site", Some(DampingConfig::default()), 3),
    ] {
        let mut cfg = cli.scale.config(cli.seed);
        cfg.timing.flap_damping = damping;
        cfg.pre_failure_flaps = flaps;
        let tb = Testbed::new(cfg);
        measure(
            &mut rows,
            "damping",
            label,
            &tb,
            &Technique::ReactiveAnycast,
            &sites,
            &mut dispatch,
        );
    }

    // --- 7. Risk made measurable: what a botched reactive-anycast
    // reconfiguration costs (Table 2's "risk" column; §4 calls the global
    // reconfiguration "operationally treacherous"), scripted as the
    // baseline's `React` skipping sites or announcing the wrong prefix. ---
    for (label, skip, wrong_prefix) in [
        ("clean reaction", 0, None),
        ("3 sites skipped", 3, None),
        ("all sites skipped", 7, None),
        ("wrong prefix (typo)", 0, Some(true)),
    ] {
        let mut cfg = cli.scale.config(cli.seed);
        let mut scenario = cfg.fault_script();
        let react = scenario
            .events
            .last_mut()
            .expect("the baseline ends in its reaction");
        react.action = ScenarioAction::React {
            skip,
            stagger_s: None,
            wrong_prefix,
        };
        cfg.scenario = Some(scenario);
        let tb = Testbed::new(cfg);
        let mut never = 0usize;
        let mut total = 0usize;
        let mut fail = Vec::new();
        for r in site_results(&tb, &Technique::ReactiveAnycast, &sites, &mut dispatch) {
            never += r
                .outcomes
                .iter()
                .filter(|o| o.reconnection.is_none())
                .count();
            total += r.outcomes.len();
            fail.extend(r.failover_secs());
        }
        let fc = Cdf::new(fail);
        println!(
            "{:<18} {:<22} {:<26} never-reconnected={:>3}/{:<4} failover p50={:>6.1}s p90={:>6.1}s",
            "risk",
            label,
            "reactive-anycast",
            never,
            total,
            fc.median().unwrap_or(f64::NAN),
            fc.quantile(0.9).unwrap_or(f64::NAN),
        );
        rows.push(AblationRow {
            study: "risk".into(),
            variant: label.into(),
            technique: "reactive-anycast".into(),
            control_fraction: 1.0 - never as f64 / total.max(1) as f64,
            reconnection_p50: f64::NAN,
            failover_p50: fc.median().unwrap_or(f64::NAN),
            failover_p90: fc.quantile(0.9).unwrap_or(f64::NAN),
        });
    }

    write_json(&cli, "ablation", &rows);
    dispatch.finish();
}
