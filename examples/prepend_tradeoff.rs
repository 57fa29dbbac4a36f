//! The proactive-prepending tradeoff dial (§4, §5.4.2, Appendix C.2):
//! sweep the prepend count and watch control rise while failover slows —
//! then check which kind of site benefits (commercial-IX sea1 vs
//! university-hosted sea2).
//!
//! ```sh
//! cargo run --release --example prepend_tradeoff
//! ```

use bobw::core::{measure_control, run_failover, ExperimentConfig, Technique, Testbed};
use bobw::event::SimDuration;
use bobw::measure::Cdf;

fn main() {
    let mut cfg = ExperimentConfig::quick(77);
    cfg.targets_per_site = 120;
    cfg.probe.duration = SimDuration::from_secs(240);
    let testbed = Testbed::new(cfg);

    println!("== The prepend dial: control vs failover ==\n");

    // Control per prepend count, for the two Seattle sites.
    let prepend_counts = [1u8, 3, 5, 7];
    for site_name in ["sea1", "sea2"] {
        let site = testbed.site(site_name);
        let (r, _) = measure_control(&testbed, site, &prepend_counts);
        println!(
            "{site_name}: {:.0}% of nearby clients are NOT anycast-routed to it; steerable with:",
            r.frac_not_anycast_routed * 100.0
        );
        for (k, frac) in &r.steered {
            println!("    prepend {k}: {:>5.1}%", frac * 100.0);
        }
    }
    println!(
        "\nsea2 (university-hosted, behind the R&E fabric) holds control easily; sea1 \
         (commercial IX) cannot win clients whose upstreams prefer customer routes to \
         other sites no matter how much the backups prepend (Appendix C.1)."
    );

    // Failover per prepend count, aggregated over two sites.
    println!("\nFailover as the backups prepend more (failed site: slc):");
    let site = testbed.site("slc");
    for k in prepend_counts {
        let t = Technique::ProactivePrepending {
            prepends: k,
            selective: false,
        };
        let (r, _) = run_failover(&testbed, &t, site).expect("cell runs");
        let fail = Cdf::new(r.failover_secs());
        println!(
            "    prepend {k}: failover p50 {:>6.1}s  p90 {:>6.1}s  (control {:>4.0}%)",
            fail.quantile(0.5).unwrap_or(f64::NAN),
            fail.quantile(0.9).unwrap_or(f64::NAN),
            r.control_fraction() * 100.0
        );
    }
    println!(
        "\nLonger backup paths are less preferred during convergence, so more prepending \
         shifts the failover tail out — the Figure 5 tradeoff."
    );

    // The §4 recommendation: selective announcement to shared neighbors.
    println!("\nSelective prepending (only to neighbors shared with the intended site):");
    for selective in [false, true] {
        let t = Technique::ProactivePrepending {
            prepends: 3,
            selective,
        };
        let (r, _) = run_failover(&testbed, &t, site).expect("cell runs");
        let fail = Cdf::new(r.failover_secs());
        println!(
            "    selective={selective}: control {:>4.0}%  failover p50 {:>6.1}s  p90 {:>6.1}s  never-reconnected {:>4.1}%",
            r.control_fraction() * 100.0,
            fail.quantile(0.5).unwrap_or(f64::NAN),
            fail.quantile(0.9).unwrap_or(f64::NAN),
            r.never_reconnected_fraction() * 100.0
        );
    }
}
