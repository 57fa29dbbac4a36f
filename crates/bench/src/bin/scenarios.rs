//! Scenario grid: every technique under every catalog scenario.
//!
//! Loads the `scenarios/` catalog (see EXPERIMENTS.md "Scenario catalog"),
//! then runs the ⟨technique × scenario⟩ grid — each scenario across the
//! measured sites it names (`"$site"` fans over every site) — through the
//! same parallel/distributed runner as the paper figures (`--jobs N`,
//! `--dispatch tcp://…|unix://…`, byte-identical either way).
//!
//! Outputs, per scenario, `results/scenario_<name>.json` with the
//! per-technique reconnection/failover series, plus a cross-scenario
//! resilience matrix in `results/scenario_matrix.json` and a markdown
//! rendering appended to `results/SUMMARY.md`.
//!
//! Run: `cargo run --release -p bobw-bench --bin scenarios -- --scale quick`

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bobw_bench::{
    grid_sites, parse_cli, run_failover_grid_dispatch, run_or_exit, write_json, PerfLog,
    TechniqueSeries,
};
use bobw_core::{SessionModel, Technique, Testbed};
use bobw_measure::{cdf_row, percent};
use bobw_scenario::{catalog_files, load_file};
use serde::Serialize;

/// One ⟨scenario, technique⟩ cell of the resilience matrix.
#[derive(Debug, Clone, Serialize)]
struct MatrixCell {
    /// Controllable targets probed through the scenario.
    targets: usize,
    /// Fraction of them that reconnected within the probing window.
    reconnected_fraction: f64,
    median_reconnection_s: Option<f64>,
    median_failover_s: Option<f64>,
}

impl MatrixCell {
    fn from_series(s: &TechniqueSeries) -> MatrixCell {
        MatrixCell {
            targets: s.num_targets,
            reconnected_fraction: if s.num_targets == 0 {
                0.0
            } else {
                1.0 - s.never_reconnected as f64 / s.num_targets as f64
            },
            median_reconnection_s: s.reconnection_cdf().median(),
            median_failover_s: s.failover_cdf().median(),
        }
    }
}

fn main() {
    let cli = parse_cli();
    let mut dispatch = cli.dispatch();
    let files = run_or_exit(catalog_files(&cli.catalog));
    if files.is_empty() {
        eprintln!("no *.json scenarios in {}", cli.catalog.display());
        std::process::exit(2);
    }
    let mut techniques = Technique::figure2_set();
    techniques.push(Technique::Combined);

    let mut perf = PerfLog::new(cli.jobs);
    // Scenario name → technique name → matrix cell.
    let mut matrix: BTreeMap<String, BTreeMap<String, MatrixCell>> = BTreeMap::new();
    let mut md = String::new();
    let _ = writeln!(
        md,
        "\n## Scenario resilience matrix (scale {}, seed {})\n",
        cli.scale.name(),
        cli.seed
    );
    let _ = writeln!(md, "Reconnected fraction / median reconnection seconds.\n");
    let mut header = "| scenario |".to_string();
    let mut rule = "|---|".to_string();
    for t in &techniques {
        let _ = write!(header, " {} |", t.name());
        rule.push_str("---|");
    }
    let mut detail = String::new();
    let mut wrote_header = false;

    // Session-fault scenarios run twice — the abstract approximation and
    // the message-level FSMs — as adjacent `name` / `name+msg` matrix rows,
    // so the resilience matrix shows what the approximation misses (e.g.
    // damping/NOTIFICATION interaction only exists under message-level).
    let mut runs: Vec<(std::path::PathBuf, SessionModel, String)> = Vec::new();
    for path in &files {
        let scenario = run_or_exit(load_file(path));
        runs.push((path.clone(), SessionModel::Abstract, scenario.name.clone()));
        if scenario.uses_session_actions() {
            runs.push((
                path.clone(),
                SessionModel::MessageLevel,
                format!("{}+msg", scenario.name),
            ));
        }
    }

    for (si, (path, session_model, label)) in runs.iter().enumerate() {
        let scenario = run_or_exit(load_file(path));
        eprintln!(
            "[{}/{}] scenario {} ({} jobs) ...",
            si + 1,
            runs.len(),
            label,
            cli.jobs
        );
        let mut cfg = cli.scale.config(cli.seed).with_scenario(scenario.clone());
        cfg.session_model = *session_model;
        let tb = Testbed::new(cfg);
        let (grouped, p) = run_or_exit(run_failover_grid_dispatch(
            &tb,
            &techniques,
            &grid_sites(&tb),
            &mut dispatch,
        ));
        perf.merge(p);
        let series: Vec<TechniqueSeries> = techniques
            .iter()
            .zip(&grouped)
            .map(|(t, results)| TechniqueSeries::from_results(t, results))
            .collect();
        write_json(&cli, &format!("scenario_{label}"), &series);

        let mut row = format!("| {label} |");
        let _ = writeln!(detail, "### {} — {}\n", label, scenario.description);
        let _ = writeln!(detail, "```");
        for s in &series {
            let cell = MatrixCell::from_series(s);
            let _ = write!(
                row,
                " {} / {} |",
                percent(cell.reconnected_fraction),
                cell.median_reconnection_s
                    .map(|m| format!("{m:.1}s"))
                    .unwrap_or_else(|| "—".to_string())
            );
            let _ = writeln!(
                detail,
                "{}",
                cdf_row(&format!("{} recon", s.technique), &s.reconnection_cdf())
            );
            matrix
                .entry(label.clone())
                .or_default()
                .insert(s.technique.clone(), cell);
        }
        let _ = writeln!(detail, "```\n");
        if !wrote_header {
            let _ = writeln!(md, "{header}");
            let _ = writeln!(md, "{rule}");
            wrote_header = true;
        }
        let _ = writeln!(md, "{row}");
    }
    md.push('\n');
    md.push_str(&detail);
    let _ = writeln!(md, "{}", perf.markdown_section());

    write_json(&cli, "scenario_matrix", &matrix);

    // Append to the summary (repro_all rewrites it wholesale; the scenario
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
