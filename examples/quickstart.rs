//! Quickstart: fail one CDN site under each redirection technique and
//! compare how quickly clients get back to service.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bobw::core::{run_failover, ExperimentConfig, Technique, Testbed};
use bobw::event::SimDuration;
use bobw::measure::Cdf;

fn main() {
    // A small Internet (a few hundred ASes) hosting the paper's 8-site CDN.
    let mut cfg = ExperimentConfig::quick(42);
    cfg.targets_per_site = 120;
    cfg.probe.duration = SimDuration::from_secs(240);
    let testbed = Testbed::new(cfg);
    println!(
        "Internet: {} ASes, {} links; CDN sites: {}",
        testbed.topo.len(),
        testbed.topo.link_count(),
        (0..testbed.cdn.num_sites())
            .map(|i| testbed
                .cdn
                .name(bobw::topology::SiteId(i as u8))
                .to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Fail Boston under each technique and compare.
    let site = testbed.site("bos");
    println!("\nFailing site 'bos' under each technique:\n");
    println!(
        "{:<26} {:>8} {:>12} {:>12} {:>10}",
        "technique", "targets", "recon p50", "failover p50", "control"
    );
    for technique in [
        Technique::Anycast,
        Technique::ReactiveAnycast,
        Technique::ProactivePrepending {
            prepends: 3,
            selective: false,
        },
        Technique::ProactiveSuperprefix,
        Technique::Combined,
    ] {
        let (r, _) = run_failover(&testbed, &technique, site).expect("cell runs");
        let recon = Cdf::new(r.reconnection_secs());
        let fail = Cdf::new(r.failover_secs());
        println!(
            "{:<26} {:>8} {:>11.1}s {:>11.1}s {:>9.0}%",
            r.technique,
            r.num_controllable,
            recon.median().unwrap_or(f64::NAN),
            fail.median().unwrap_or(f64::NAN),
            r.control_fraction() * 100.0
        );
    }

    println!(
        "\nReading the table: reactive-anycast and proactive-prepending recover nearly as \
         fast as anycast while retaining (all or most of) unicast's steering control — \
         the paper's 'best of both worlds'. proactive-superprefix controls everything \
         but pays for it with BGP withdrawal convergence."
    );
}
