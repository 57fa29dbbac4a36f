//! Site-failure drill: the operational scenario from the paper's
//! introduction. A CDN runs reactive-anycast; one site suffers an outage;
//! we watch the failure unfold target by target — disconnection, first
//! reconnection at a backup site, bouncing, and stabilization — the way an
//! on-call engineer would read it off the probe logs.
//!
//! ```sh
//! cargo run --release --example site_failure_drill
//! ```

use bobw::core::{run_failover, ExperimentConfig, Technique, Testbed};
use bobw::event::SimDuration;
use bobw::measure::Cdf;

fn main() {
    let mut cfg = ExperimentConfig::quick(1234);
    cfg.targets_per_site = 150;
    cfg.probe.duration = SimDuration::from_secs(240);
    let testbed = Testbed::new(cfg);
    let failed = testbed.site("atl");

    println!("== Site failure drill: 'atl' goes dark under reactive-anycast ==\n");
    let (r, _) = run_failover(&testbed, &Technique::ReactiveAnycast, failed).expect("cell runs");

    // Aggregate view.
    let recon = Cdf::new(r.reconnection_secs());
    let fail = Cdf::new(r.failover_secs());
    println!(
        "{} targets were being served by atl when it failed.",
        r.num_controllable
    );
    println!(
        "reconnection: p50 {:.1}s  p90 {:.1}s  p99 {:.1}s",
        recon.quantile(0.5).unwrap_or(f64::NAN),
        recon.quantile(0.9).unwrap_or(f64::NAN),
        recon.quantile(0.99).unwrap_or(f64::NAN),
    );
    println!(
        "failover:     p50 {:.1}s  p90 {:.1}s  p99 {:.1}s",
        fail.quantile(0.5).unwrap_or(f64::NAN),
        fail.quantile(0.9).unwrap_or(f64::NAN),
        fail.quantile(0.99).unwrap_or(f64::NAN),
    );

    // Where did clients land?
    let mut per_site = std::collections::BTreeMap::new();
    for o in &r.outcomes {
        if let Some(s) = o.final_site {
            *per_site
                .entry(testbed.cdn.name(s).to_string())
                .or_insert(0u32) += 1;
        }
    }
    println!("\nFinal landing sites:");
    for (site, count) in &per_site {
        println!("  {site:<6} {count}");
    }

    // Bouncing behaviour (§5.4.1: most targets bounce once or twice, with
    // little unreachability in between).
    let mut bounce_hist = std::collections::BTreeMap::new();
    let mut with_losses = 0;
    for o in &r.outcomes {
        *bounce_hist.entry(o.bounces.min(4)).or_insert(0u32) += 1;
        if o.losses_after_reconnect > 0 {
            with_losses += 1;
        }
    }
    println!("\nSite switches after first reconnection (bounces):");
    for (b, count) in &bounce_hist {
        let label = if *b >= 4 {
            "4+".to_string()
        } else {
            b.to_string()
        };
        println!("  {label:<3} bounces: {count} targets");
    }
    println!(
        "{} of {} targets saw additional packet loss after reconnecting.",
        with_losses,
        r.outcomes.len()
    );

    // The §5.4.1 argument for short connections.
    let gaps: Vec<f64> = r
        .outcomes
        .iter()
        .filter_map(|o| o.gap())
        .map(|d| d.as_secs_f64())
        .collect();
    if !gaps.is_empty() {
        let g = Cdf::new(gaps);
        println!(
            "\nreconnection→failover gap: p50 {:.1}s, p90 {:.1}s — short connections \
             established after reconnection are unlikely to be interrupted.",
            g.quantile(0.5).unwrap_or(f64::NAN),
            g.quantile(0.9).unwrap_or(f64::NAN)
        );
    }
}
