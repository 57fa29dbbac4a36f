//! The unicast failover baseline the paper argues about but cannot measure
//! directly (§1, §2, §5.4.1): failover bounded by DNS caching and TTL
//! violations. Reproduced from published parameters: median TTL of popular
//! domains ~10 min [Moura '19], Akamai-style 20 s TTL [Schomp '20], median
//! 890 s use-past-expiry among violators [Allman '20].
//!
//! Run: `cargo run --release -p bobw-bench --bin unicast_dns`

use bobw_bench::{parse_cli, run_or_exit, unicast_dns_insim, write_json};
use bobw_dns::{ClientPopulation, DnsFailoverConfig};
use bobw_event::{RngFactory, SimDuration};
use bobw_measure::{cdf_table, Cdf};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct DnsBaselineRow {
    label: String,
    ttl_s: u64,
    violator_fraction: f64,
    samples: Vec<f64>,
}

fn main() {
    let cli = parse_cli();
    let rng = RngFactory::new(cli.seed);
    let n = 20_000;

    let scenarios = [
        ("ttl-600s (popular-domain median)", 600u64, 0.25),
        ("ttl-20s (Akamai-style)", 20, 0.25),
        ("ttl-600s compliant-only", 600, 0.0),
        ("ttl-20s compliant-only", 20, 0.0),
    ];

    let mut rows = Vec::new();
    let mut cdfs = Vec::new();
    for (i, (label, ttl, violators)) in scenarios.iter().enumerate() {
        let cfg = DnsFailoverConfig {
            ttl: SimDuration::from_secs(*ttl),
            violator_fraction: *violators,
            ..Default::default()
        };
        let pop = ClientPopulation::sample(&cfg, n, &rng.derive("dns", i as u64));
        let samples = pop.sorted_secs();
        cdfs.push((label.to_string(), Cdf::new(samples.clone())));
        rows.push(DnsBaselineRow {
            label: label.to_string(),
            ttl_s: *ttl,
            violator_fraction: *violators,
            samples,
        });
    }

    let refs: Vec<(String, &Cdf)> = cdfs.iter().map(|(l, c)| (l.clone(), c)).collect();
    println!(
        "{}",
        cdf_table(
            "Unicast failover baseline — time (s) until a client first uses a live address",
            &refs
        )
    );
    println!(
        "Compare against anycast/reactive-anycast failover medians of ~10s (Figure 2): even a \
         20s TTL leaves a violator tail of hundreds of seconds, which is the paper's case for \
         BGP-layer failover."
    );

    // --- In-simulation cross-check: run the unicast technique through the
    // same failover loop as Figure 2 (BGP + data plane + DNS de-steering
    // with TTL violators) and measure the same §5.4.1 metrics. ---
    let mut insim_recon = Vec::new();
    let mut insim_fail = Vec::new();
    for r in run_or_exit(unicast_dns_insim(&cli.scale.config(cli.seed))) {
        insim_recon.extend(r.reconnection_secs());
        insim_fail.extend(r.failover_secs());
    }
    let rc = Cdf::new(insim_recon);
    let fc = Cdf::new(insim_fail);
    println!(
        "\n{}",
        cdf_table(
            "In-simulation unicast failover (composite BGP+DNS+data plane, ttl 600s)",
            &[
                ("unicast-dns recon".to_string(), &rc),
                ("unicast-dns failover".to_string(), &fc),
            ]
        )
    );

    write_json(&cli, "unicast_dns", &rows);
}
