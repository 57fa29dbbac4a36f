//! Repeatability check (§5.4.1: "we evaluate each technique twice using
//! different sets of targets selected under the same criterion and observe
//! similar reconnection and failover time") — generalized: run Figure 2's
//! headline comparison across several independent Internets (seeds) and
//! report per-seed medians plus the cross-seed spread, verifying that the
//! paper's ordering is a property of the techniques, not of one topology.
//!
//! Run: `cargo run --release -p bobw-bench --bin stability [--scale quick]`

use bobw_bench::{
    grid_sites, parse_cli, run_failover_grid_dispatch, run_or_exit, write_json, TechniqueSeries,
};
use bobw_core::{Technique, Testbed};
use bobw_measure::Cdf;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct SeedRow {
    seed: u64,
    technique: String,
    reconnection_p50: f64,
    failover_p50: f64,
    failover_p90: f64,
    targets: usize,
}

fn main() {
    let cli = parse_cli();
    let mut dispatch = cli.dispatch();
    let seeds: Vec<u64> = (0..5).map(|i| cli.seed + i * 1000).collect();
    let techniques = [
        Technique::Anycast,
        Technique::ReactiveAnycast,
        Technique::ProactiveSuperprefix,
    ];

    let mut rows: Vec<SeedRow> = Vec::new();
    for &seed in &seeds {
        let testbed = Testbed::new(cli.scale.config(seed));
        // One shared work queue per seed: all ⟨technique, site⟩ cells.
        // Each seed is a separate batch; distributed workers rebuild their
        // testbed from the config shipped with the batch.
        let (grouped, _) = run_or_exit(run_failover_grid_dispatch(
            &testbed,
            &techniques,
            &grid_sites(&testbed),
            &mut dispatch,
        ));
        for (t, results) in techniques.iter().zip(&grouped) {
            let s = TechniqueSeries::from_results(t, results);
            rows.push(SeedRow {
                seed,
                technique: s.technique.clone(),
                reconnection_p50: s.reconnection_cdf().median().unwrap_or(f64::NAN),
                failover_p50: s.failover_cdf().median().unwrap_or(f64::NAN),
                failover_p90: s.failover_cdf().quantile(0.9).unwrap_or(f64::NAN),
                targets: s.num_targets,
            });
        }
        eprintln!("seed {seed} done");
    }

    println!("Stability across independent Internets (per-seed medians):\n");
    println!(
        "{:<8} {:<24} {:>10} {:>12} {:>12} {:>8}",
        "seed", "technique", "recon p50", "failover p50", "failover p90", "targets"
    );
    for r in &rows {
        println!(
            "{:<8} {:<24} {:>9.1}s {:>11.1}s {:>11.1}s {:>8}",
            r.seed, r.technique, r.reconnection_p50, r.failover_p50, r.failover_p90, r.targets
        );
    }

    // Cross-seed summary + the ordering invariant.
    println!("\nCross-seed spread of failover medians:");
    let mut orderings_hold = true;
    let mut by_seed: std::collections::BTreeMap<u64, (f64, f64, f64)> = Default::default();
    for r in &rows {
        let e = by_seed
            .entry(r.seed)
            .or_insert((f64::NAN, f64::NAN, f64::NAN));
        match r.technique.as_str() {
            "anycast" => e.0 = r.failover_p50,
            "reactive-anycast" => e.1 = r.failover_p50,
            "proactive-superprefix" => e.2 = r.failover_p50,
            _ => {}
        }
    }
    for t in &techniques {
        let vals: Vec<f64> = rows
            .iter()
            .filter(|r| r.technique == t.name())
            .map(|r| r.failover_p50)
            .collect();
        let c = Cdf::new(vals);
        println!(
            "  {:<24} min {:>6.1}s  median {:>6.1}s  max {:>6.1}s",
            t.name(),
            c.min().unwrap_or(f64::NAN),
            c.median().unwrap_or(f64::NAN),
            c.max().unwrap_or(f64::NAN)
        );
    }
    for (seed, (anycast, reactive, superprefix)) in &by_seed {
        // NaN medians must count as a violation, so compare via partial_cmp
        // instead of a negated `>`.
        let bound = 2.0 * reactive.max(*anycast);
        if superprefix.partial_cmp(&bound) != Some(std::cmp::Ordering::Greater) {
            orderings_hold = false;
            eprintln!(
                "seed {seed}: ordering violated (anycast {anycast:.1}, reactive {reactive:.1}, \
                 superprefix {superprefix:.1})"
            );
        }
    }
    println!(
        "\nordering invariant (superprefix > 2x others) holds on {}/{} seeds",
        by_seed
            .values()
            .filter(|(a, r, s)| s > &(2.0 * r.max(*a)))
            .count(),
        by_seed.len()
    );
    assert!(
        orderings_hold,
        "the paper's headline ordering must be seed-independent"
    );

    write_json(&cli, "stability", &rows);
    dispatch.finish();
}
