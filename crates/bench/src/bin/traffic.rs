//! Traffic grid: ⟨technique × load scenario⟩ with the demand-driven data
//! plane enabled.
//!
//! Runs the load-centric catalog scenarios (the baseline site failure, a
//! flash crowd, the Sinha-style overload cascade, and a DDoS
//! absorb-vs-shed drill) under each steering technique with
//! `cfg.traffic = Some(default)`, through the same parallel/distributed
//! runner as the paper figures (`--jobs N`, `--dispatch …`,
//! byte-identical either way).
//!
//! Outputs, per scenario, `results/traffic_<name>.json` with the
//! demand-weighted per-technique series, plus a cross-scenario matrix in
//! `results/traffic_matrix.json` extending the resilience matrix with the
//! load columns — demand-weighted reconnected fraction, weighted median
//! reconnection, peak post-event utilization, and shed fraction — and a
//! markdown rendering appended to `results/SUMMARY.md`.
//!
//! Run: `cargo run --release -p bobw-bench --bin traffic -- --scale quick`

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bobw_bench::{
    grid_sites, parse_cli, run_failover_grid_dispatch, run_or_exit, write_json, PerfLog,
    WeightedTechniqueSeries,
};
use bobw_core::{Technique, Testbed, TrafficConfig};
use bobw_measure::percent;
use bobw_scenario::load_file;
use serde::Serialize;

/// The load-centric slice of the catalog. Missing files are skipped with
/// a warning so a trimmed catalog still produces the scenarios it has.
const LOAD_SCENARIOS: &[&str] = &[
    "site-failure",
    "flash-crowd",
    "overload-cascade",
    "ddos-absorb-vs-shed",
];

/// One ⟨scenario, technique⟩ cell of the traffic matrix.
#[derive(Debug, Clone, Serialize)]
struct TrafficMatrixCell {
    /// Controllable targets probed through the scenario.
    targets: usize,
    /// Demand-weighted fraction of them that reconnected in the window.
    reconnected_weight_fraction: f64,
    /// Demand-weighted median reconnection time.
    weighted_median_reconnection_s: Option<f64>,
    /// Worst post-event site utilization (load/capacity; > 1 = overload).
    peak_utilization: Option<f64>,
    /// Shed demand as a fraction of offered demand.
    shed_fraction: Option<f64>,
}

impl TrafficMatrixCell {
    fn from_series(s: &WeightedTechniqueSeries) -> TrafficMatrixCell {
        TrafficMatrixCell {
            targets: s.num_targets,
            reconnected_weight_fraction: s.reconnected_weight_fraction(),
            weighted_median_reconnection_s: s.reconnection_cdf().median(),
            peak_utilization: s.peak_utilization,
            shed_fraction: s.shed_fraction,
        }
    }
}

fn main() {
    let cli = parse_cli();
    let mut dispatch = cli.dispatch();
    let mut scenarios = Vec::new();
    for name in LOAD_SCENARIOS {
        let path = cli.catalog.join(format!("{name}.json"));
        if !path.exists() {
            eprintln!("warning: skipping {name}: no {}", path.display());
            continue;
        }
        scenarios.push(run_or_exit(load_file(&path)));
    }
    if scenarios.is_empty() {
        eprintln!(
            "none of the load scenarios ({}) found in {}",
            LOAD_SCENARIOS.join(", "),
            cli.catalog.display()
        );
        std::process::exit(2);
    }
    let techniques = [
        Technique::Anycast,
        Technique::ReactiveAnycast,
        Technique::Combined,
    ];

    let mut perf = PerfLog::new(cli.jobs);
    // Scenario name → technique name → matrix cell.
    let mut matrix: BTreeMap<String, BTreeMap<String, TrafficMatrixCell>> = BTreeMap::new();
    let mut md = String::new();
    let _ = writeln!(
        md,
        "\n## Traffic & load matrix (scale {}, seed {})\n",
        cli.scale.name(),
        cli.seed
    );
    let _ = writeln!(
        md,
        "Demand-weighted reconnected fraction / peak post-event utilization \
         (>100% = overload) / shed fraction.\n"
    );
    let mut header = "| scenario |".to_string();
    let mut rule = "|---|".to_string();
    for t in &techniques {
        let _ = write!(header, " {} |", t.name());
        rule.push_str("---|");
    }
    let mut detail = String::new();

    for (si, scenario) in scenarios.iter().enumerate() {
        eprintln!(
            "[{}/{}] load scenario {} ({} jobs) ...",
            si + 1,
            scenarios.len(),
            scenario.name,
            cli.jobs
        );
        let mut cfg = cli.scale.config(cli.seed).with_scenario(scenario.clone());
        cfg.traffic = Some(TrafficConfig::default());
        let tb = Testbed::new(cfg);
        let (grouped, p) = run_or_exit(run_failover_grid_dispatch(
            &tb,
            &techniques,
            &grid_sites(&tb),
            &mut dispatch,
        ));
        perf.merge(p);
        let series: Vec<WeightedTechniqueSeries> = techniques
            .iter()
            .zip(&grouped)
            .map(|(t, results)| WeightedTechniqueSeries::from_results(t, results))
            .collect();
        write_json(&cli, &format!("traffic_{}", scenario.name), &series);

        let mut row = format!("| {} |", scenario.name);
        let _ = writeln!(detail, "### {} — {}\n", scenario.name, scenario.description);
        let _ = writeln!(detail, "```");
        for s in &series {
            let cell = TrafficMatrixCell::from_series(s);
            let _ = write!(
                row,
                " {} / {} / {} |",
                percent(cell.reconnected_weight_fraction),
                cell.peak_utilization
                    .map(percent)
                    .unwrap_or_else(|| "—".to_string()),
                cell.shed_fraction
                    .map(percent)
                    .unwrap_or_else(|| "—".to_string()),
            );
            let _ = writeln!(
                detail,
                "{:>24}: reconnected {} of demand, weighted median {}, \
                 peak util {}, shed {}, resteers {}",
                s.technique,
                percent(cell.reconnected_weight_fraction),
                cell.weighted_median_reconnection_s
                    .map(|m| format!("{m:.1}s"))
                    .unwrap_or_else(|| "—".to_string()),
                cell.peak_utilization
                    .map(|u| format!("{u:.2}"))
                    .unwrap_or_else(|| "—".to_string()),
                cell.shed_fraction
                    .map(percent)
                    .unwrap_or_else(|| "—".to_string()),
                s.resteers
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "—".to_string()),
            );
            matrix
                .entry(scenario.name.clone())
                .or_default()
                .insert(s.technique.clone(), cell);
        }
        let _ = writeln!(detail, "```\n");
        if si == 0 {
            let _ = writeln!(md, "{header}");
            let _ = writeln!(md, "{rule}");
        }
        let _ = writeln!(md, "{row}");
    }
    md.push('\n');
    md.push_str(&detail);
    let _ = writeln!(md, "{}", perf.markdown_section());

    write_json(&cli, "traffic_matrix", &matrix);

    // Append to the summary (repro_all rewrites it wholesale; the traffic
    // matrix rides behind whatever is there).
    let _ = std::fs::create_dir_all(&cli.out_dir);
    let path = cli.out_dir.join("SUMMARY.md");
    let mut summary = std::fs::read_to_string(&path).unwrap_or_default();
    summary.push_str(&md);
    std::fs::write(&path, &summary).expect("write summary");
    println!("{md}");
    eprintln!("summary appended to {}", path.display());
    dispatch.finish();
}
