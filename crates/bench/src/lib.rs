//! # bobw-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md §4 for the experiment index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `repro_all` | Figures 2–5, Tables 1–2, Appendix C.1, plus a markdown summary |
//! | `superprefix_survey` | §3 — covering-prefix survey pipeline |
//! | `unicast_dns` | §1/§2 — DNS-bound unicast failover baseline |
//! | `calibrate` | raw timing-model calibration check |
//!
//! Every binary accepts `--scale quick|eval|large` (default `eval`),
//! `--seed N`, `--jobs N` (worker threads, default: available
//! parallelism) and `--dispatch local|tcp://…|unix://…` (serve the cell
//! grid to remote `bobw-worker` processes — see EXPERIMENTS.md), and
//! writes machine-readable JSON next to its stdout report (under
//! `results/`). Results are byte-identical for any `--jobs` value and any
//! dispatch mode — see the [`runner`] module for how that is guaranteed.

use std::collections::BTreeMap;
use std::path::PathBuf;

use bobw_core::{
    analyze_divergence, run_failover, ExperimentConfig, FailoverResult, Technique, Testbed,
};
use bobw_dist::{CellOutput, CellSpec};
use bobw_event::SimDuration;
use bobw_measure::{Cdf, WeightedCdf};
use bobw_scenario::Scenario;
use serde::Serialize;

pub mod appendix;
pub mod runner;

pub use bobw_serve::Scale;
pub use runner::{
    default_jobs, grid_sites, run_cells, run_failover_grid_dispatch, run_or_exit, CellRecord,
    Dispatch, PerfLog,
};

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct Cli {
    pub scale: Scale,
    pub seed: u64,
    /// Output directory for JSON results.
    pub out_dir: PathBuf,
    /// Worker threads for the experiment runner (default: available
    /// parallelism). Any value produces byte-identical result JSON.
    pub jobs: usize,
    /// Where cells run (`--dispatch tcp://…|unix://…|daemon:<url>`).
    /// `None` (or `--dispatch local`) runs them on `jobs` local threads.
    /// Either way the result JSON is byte-identical.
    pub listen: Option<String>,
    /// Fault-scenario catalog directory (`scenarios` bin only).
    pub catalog: PathBuf,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: Scale::Eval,
            seed: 42,
            out_dir: PathBuf::from("results"),
            jobs: default_jobs(),
            listen: None,
            catalog: PathBuf::from(bobw_scenario::CATALOG_DIR),
        }
    }
}

impl Cli {
    /// Builds the dispatch mode selected on the command line. With
    /// `--dispatch <url>` this binds the coordinator and blocks batches on
    /// worker availability, so a hint telling the operator how to attach
    /// workers is printed. Exits on a malformed URL or a failed bind.
    pub fn dispatch(&self) -> Dispatch {
        match &self.listen {
            None => Dispatch::local(self.jobs),
            Some(arg) => {
                let d = Dispatch::from_arg(arg, self.jobs).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                });
                if let Some(ep) = d.endpoint() {
                    eprintln!(
                        "serving cells on {ep} — attach workers with: \
                         bobw-worker --connect {ep}  (or: bobw worker --connect {ep})"
                    );
                } else if matches!(d, Dispatch::Daemon { .. }) {
                    // Batches go to a persistent service with its own
                    // fleet; nothing to attach here.
                    eprintln!("submitting batches to the daemon at {arg}");
                }
                d
            }
        }
    }
}

/// Parses `--scale`, `--seed`, `--out`, `--jobs`, `--dispatch` and
/// `--catalog` from the process arguments; exits 2 with the list of
/// supported flags on anything else.
pub fn parse_cli() -> Cli {
    let mut cli = Cli::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                cli.scale = Scale::parse(&args.next().unwrap_or_default()).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                cli.seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                });
            }
            "--out" => {
                cli.out_dir = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }));
            }
            "--jobs" => {
                cli.jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--jobs needs an integer >= 1");
                        std::process::exit(2);
                    });
            }
            "--dispatch" => {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!(
                        "--dispatch needs `local`, an endpoint URL (tcp://…|unix://…), \
                         or `daemon:<url>`"
                    );
                    std::process::exit(2);
                });
                cli.listen = if v == "local" { None } else { Some(v) };
            }
            "--catalog" => {
                cli.catalog = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--catalog needs a directory");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "unknown flag {other:?}; supported: --scale --seed --out --jobs \
                     --dispatch --catalog"
                );
                std::process::exit(2);
            }
        }
    }
    cli
}

/// Writes a JSON result file under the CLI's output directory.
pub fn write_json<T: Serialize>(cli: &Cli, name: &str, value: &T) {
    if let Err(e) = std::fs::create_dir_all(&cli.out_dir) {
        eprintln!("warning: cannot create {}: {e}", cli.out_dir.display());
        return;
    }
    let path = cli.out_dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// The in-simulation unicast DNS failover row of `unicast_dns` and
/// `repro_all`: `Technique::Unicast` under [`Scenario::dns_failover`] at
/// `base`'s detection delay, probed for 1 800 s so the TTL-violator tail
/// fits in the window, failing bos, slc and msn in turn.
pub fn unicast_dns_insim(base: &ExperimentConfig) -> Result<Vec<FailoverResult>, String> {
    let mut cfg = base.clone();
    cfg.scenario = Some(Scenario::dns_failover(cfg.detection_delay.as_secs_f64()));
    cfg.probe.duration = SimDuration::from_secs(1800);
    let testbed = Testbed::new(cfg);
    ["bos", "slc", "msn"]
        .iter()
        .map(|site| Ok(run_failover(&testbed, &Technique::Unicast, testbed.site(site))?.0))
        .collect()
}

/// Aggregated series for one technique: reconnection and failover samples
/// across ⟨failed site, target⟩, as in Figure 2.
#[derive(Debug, Clone, Serialize)]
pub struct TechniqueSeries {
    pub technique: String,
    pub reconnection: Vec<f64>,
    pub failover: Vec<f64>,
    pub num_targets: usize,
    pub never_reconnected: usize,
    pub control_fraction_mean: f64,
}

impl TechniqueSeries {
    pub fn from_results(technique: &Technique, results: &[FailoverResult]) -> TechniqueSeries {
        let mut reconnection = Vec::new();
        let mut failover = Vec::new();
        let mut num_targets = 0;
        let mut never = 0;
        let mut ctrl = 0.0;
        for r in results {
            reconnection.extend(r.reconnection_secs());
            failover.extend(r.failover_secs());
            num_targets += r.num_controllable;
            never += r
                .outcomes
                .iter()
                .filter(|o| o.reconnection.is_none())
                .count();
            ctrl += r.control_fraction();
        }
        TechniqueSeries {
            technique: technique.name(),
            reconnection,
            failover,
            num_targets,
            never_reconnected: never,
            control_fraction_mean: if results.is_empty() {
                0.0
            } else {
                ctrl / results.len() as f64
            },
        }
    }

    pub fn reconnection_cdf(&self) -> Cdf {
        Cdf::new(self.reconnection.clone())
    }

    pub fn failover_cdf(&self) -> Cdf {
        Cdf::new(self.failover.clone())
    }
}

/// Demand-weighted series for one technique under the traffic layer:
/// reconnection samples carry each target's base demand weight (from
/// [`bobw_core::TrafficSummary::target_weights`]), so the CDFs answer
/// "how fast did the *traffic* come back" rather than "how fast did the
/// median probe target". Also carries the load-side observations — peak
/// post-event utilization and shed volume — that distinguish an absorbed
/// failure from an overload cascade.
///
/// This is a separate struct from [`TechniqueSeries`] on purpose: the
/// unweighted series feeds the checked-in paper figures and must stay
/// byte-stable.
#[derive(Debug, Clone, Serialize)]
pub struct WeightedTechniqueSeries {
    pub technique: String,
    /// `(reconnection_s, demand_weight)` per reconnected target, across
    /// every result (⟨failed site, target⟩ cells in site order).
    pub reconnection: Vec<(f64, f64)>,
    pub num_targets: usize,
    /// Total demand weight across measured targets.
    pub total_weight: f64,
    /// Demand weight that never reconnected within the probing window.
    pub never_reconnected_weight: f64,
    /// Worst post-event site utilization across results (load/capacity;
    /// > 1 means overload). `None` when no result carried a summary.
    pub peak_utilization: Option<f64>,
    /// Shed demand as a fraction of offered demand, pooled across results.
    pub shed_fraction: Option<f64>,
    /// DNS re-steers issued by the load-aware controller, pooled.
    pub resteers: Option<u64>,
}

impl WeightedTechniqueSeries {
    /// Aggregates traffic-enabled results. Results without a summary
    /// (traffic layer off) contribute unit weights, so the weighted CDF
    /// degrades to the unweighted one instead of silently dropping data.
    pub fn from_results(technique: &Technique, results: &[FailoverResult]) -> Self {
        let mut reconnection = Vec::new();
        let mut num_targets = 0;
        let mut total_weight = 0.0;
        let mut never_weight = 0.0;
        let mut peak: Option<f64> = None;
        let mut offered = 0.0;
        let mut shed = 0.0;
        let mut any_summary = false;
        let mut resteers = 0u64;
        for r in results {
            num_targets += r.num_controllable;
            let weights: Vec<f64> = match &r.traffic {
                Some(s) => {
                    any_summary = true;
                    offered += s.offered;
                    shed += s.shed;
                    resteers += s.resteers;
                    let p = s.peak_after();
                    peak = Some(peak.map_or(p, |q| q.max(p)));
                    s.target_weights.clone()
                }
                None => vec![1.0; r.outcomes.len()],
            };
            for (i, o) in r.outcomes.iter().enumerate() {
                let w = weights.get(i).copied().unwrap_or(1.0);
                total_weight += w;
                match o.reconnection {
                    Some(d) => reconnection.push((d.as_secs_f64(), w)),
                    None => never_weight += w,
                }
            }
        }
        WeightedTechniqueSeries {
            technique: technique.name(),
            reconnection,
            num_targets,
            total_weight,
            never_reconnected_weight: never_weight,
            peak_utilization: peak,
            shed_fraction: if any_summary && offered > 0.0 {
                Some(shed / offered)
            } else {
                None
            },
            resteers: any_summary.then_some(resteers),
        }
    }

    pub fn reconnection_cdf(&self) -> WeightedCdf {
        WeightedCdf::new(self.reconnection.clone())
    }

    /// Demand-weighted reconnected fraction: the share of traffic that
    /// found a serving site again within the window.
    pub fn reconnected_weight_fraction(&self) -> f64 {
        if self.total_weight <= 0.0 {
            0.0
        } else {
            1.0 - self.never_reconnected_weight / self.total_weight
        }
    }
}

/// Table 1 across all sites: per site, the not-anycast-routed fraction and
/// per-prepend steered fractions, in the paper's column order.
#[derive(Debug, Clone, Serialize)]
pub struct Table1 {
    pub site_order: Vec<String>,
    /// Site name → (not_anycast_fraction, [(prepends, steered_fraction)]).
    pub rows: BTreeMap<String, (f64, Vec<(u8, f64)>)>,
}

/// Computes Table 1 across sites over `dispatch`, also returning the perf
/// log — control cells are counted in `PerfLog` under the pseudo technique
/// name `control`, mirroring the failover grid's records.
pub fn compute_table1_dispatch(
    testbed: &Testbed,
    prepend_counts: &[u8],
    dispatch: &mut Dispatch,
) -> Result<(Table1, PerfLog), String> {
    let site_order: Vec<String> = testbed
        .cdn
        .sites()
        .map(|s| testbed.cdn.name(s).to_string())
        .collect();
    let cells: Vec<CellSpec> = site_order
        .iter()
        .map(|name| CellSpec::Control {
            site: name.clone(),
            prepends: prepend_counts.to_vec(),
        })
        .collect();
    let started = std::time::Instant::now();
    let outputs = dispatch.run(testbed, &cells)?;
    let mut log = PerfLog::new(dispatch.workers());
    log.elapsed_micros = started.elapsed().as_micros() as u64;
    let mut rows = BTreeMap::new();
    for (i, out) in outputs.into_iter().enumerate() {
        let (r, perf) = match out {
            CellOutput::Control(r, perf) => (r, perf),
            CellOutput::Failover(..) => {
                return Err(format!("cell {i}: failover output for a control cell"));
            }
        };
        log.push("control", perf);
        rows.insert(r.site_name, (r.frac_not_anycast_routed, r.steered));
    }
    Ok((Table1 { site_order, rows }, log))
}

/// Convenience: the Appendix C.1 report for a named site.
pub fn compute_appc1(
    testbed: &Testbed,
    site_name: &str,
    prepends: u8,
) -> bobw_core::DivergenceReport {
    analyze_divergence(testbed, testbed.site(site_name), prepends)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_core::run_failover;

    /// One technique across every site over `dispatch`, in site order.
    fn all_sites_over(tb: &Testbed, t: &Technique, dispatch: &mut Dispatch) -> Vec<FailoverResult> {
        let (mut grouped, _) =
            run_failover_grid_dispatch(tb, std::slice::from_ref(t), &grid_sites(tb), dispatch)
                .expect("well-formed cells run");
        grouped.pop().expect("one technique in, one group out")
    }

    fn run_technique_all_sites(tb: &Testbed, t: &Technique, jobs: usize) -> Vec<FailoverResult> {
        all_sites_over(tb, t, &mut Dispatch::local(jobs))
    }

    #[test]
    fn scale_configs_differ() {
        let q = Scale::Quick.config(1);
        let e = Scale::Eval.config(1);
        let l = Scale::Large.config(1);
        assert!(q.gen.num_ases() < e.gen.num_ases());
        assert!(e.gen.num_ases() < l.gen.num_ases());
        assert_eq!(q.seed, 1);
    }

    #[test]
    fn technique_series_aggregates() {
        let mut cfg = ExperimentConfig::quick(3);
        cfg.targets_per_site = 25;
        cfg.probe.duration = bobw_event::SimDuration::from_secs(60);
        let tb = Testbed::new(cfg);
        let t = Technique::Anycast;
        let (r1, _) = run_failover(&tb, &t, tb.site("ams")).expect("cell runs");
        let (r2, _) = run_failover(&tb, &t, tb.site("bos")).expect("cell runs");
        let n1 = r1.num_controllable;
        let s = TechniqueSeries::from_results(&t, &[r1, r2]);
        assert_eq!(s.technique, "anycast");
        assert!(s.num_targets >= n1);
        assert_eq!(s.reconnection.len() + s.never_reconnected, s.num_targets);
        assert!(!s.reconnection_cdf().is_empty());
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut cfg = ExperimentConfig::quick(3);
        cfg.targets_per_site = 15;
        cfg.probe.duration = bobw_event::SimDuration::from_secs(45);
        let tb = Testbed::new(cfg);
        let t = Technique::ReactiveAnycast;
        let par = run_technique_all_sites(&tb, &t, 4);
        let site0 = tb.cdn.sites().next().unwrap();
        let (seq, _) = run_failover(&tb, &t, site0).expect("cell runs");
        assert_eq!(par[0].num_controllable, seq.num_controllable);
        assert_eq!(par[0].outcomes, seq.outcomes);
        assert_eq!(par.len(), tb.cdn.num_sites());
    }

    fn traffic_cfg(seed: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(seed);
        cfg.targets_per_site = 10;
        cfg.probe.duration = bobw_event::SimDuration::from_secs(45);
        cfg.traffic = Some(bobw_core::TrafficConfig::default());
        cfg
    }

    /// Traffic-enabled cells — summaries included — must be byte-identical
    /// for any `--jobs` value and over the socket dispatch path (one
    /// in-process worker attached to a loopback coordinator), same as the
    /// paper grid. Demand sampling and controller re-steer lags all live
    /// on named RNG streams, so scheduling must not perturb them.
    #[test]
    fn traffic_grid_is_byte_identical_across_jobs_and_dispatch() {
        let tb = Testbed::new(traffic_cfg(5));
        let t = Technique::ReactiveAnycast;
        let serial = run_technique_all_sites(&tb, &t, 1);
        let par = run_technique_all_sites(&tb, &t, 4);
        let serial_json = serde_json::to_string(&serial).unwrap();
        assert!(
            serial.iter().all(|r| r.traffic.is_some()),
            "traffic-enabled cells must carry summaries"
        );
        assert_eq!(
            serial_json,
            serde_json::to_string(&par).unwrap(),
            "jobs=1 and jobs=4 must serialize identically"
        );

        let mut dispatch = Dispatch::serve("tcp://127.0.0.1:0").unwrap();
        let ep = dispatch.endpoint().expect("serving").clone();
        let worker = std::thread::spawn(move || {
            let mut wc = bobw_dist::WorkerConfig::new(ep);
            wc.name = "loopback".to_string();
            bobw_dist::run_worker(&wc).expect("worker")
        });
        let dist = all_sites_over(&tb, &t, &mut dispatch);
        dispatch.finish();
        let done = worker.join().unwrap();
        assert!(done >= 1, "the worker must have executed cells");
        assert_eq!(
            serial_json,
            serde_json::to_string(&dist).unwrap(),
            "dispatched cells must serialize identically to local ones"
        );
    }

    /// The `daemon:` dispatch path — batches submitted as jobs to a
    /// persistent `bobw serve` daemon and streamed back — must also be
    /// byte-identical to a sequential local run.
    #[test]
    fn daemon_dispatch_matches_local() {
        let tb = Testbed::new(traffic_cfg(5));
        let t = Technique::ReactiveAnycast;
        let serial = run_technique_all_sites(&tb, &t, 1);
        let serial_json = serde_json::to_string(&serial).unwrap();

        let handle = bobw_serve::daemon::start(bobw_serve::ServeConfig::new(
            bobw_dist::Endpoint::parse("tcp://127.0.0.1:0").unwrap(),
        ))
        .expect("daemon");
        let ep = handle.endpoint().clone();
        std::thread::spawn(move || {
            let wc = bobw_dist::WorkerConfig::new(ep);
            let _ = bobw_dist::run_worker(&wc);
        });

        let mut dispatch = Dispatch::daemon(&handle.endpoint().to_string()).unwrap();
        let (dist, log) =
            run_failover_grid_dispatch(&tb, &[t], &grid_sites(&tb), &mut dispatch).unwrap();
        dispatch.finish();
        assert_eq!(
            serial_json,
            serde_json::to_string(&dist[0]).unwrap(),
            "daemon-submitted cells must serialize identically to local ones"
        );
        assert_eq!(log.cells.len(), tb.cdn.num_sites());
        // The daemon and its worker are left running and detach with the
        // test process: quitting the daemon raises the process-wide
        // interrupt flag, which would poison concurrently running tests.
    }

    /// The traffic layer is observational: with it off the unweighted
    /// series (what feeds the checked-in `results/*.json`) must serialize
    /// byte-identically to a run with it on, and omitting `traffic`
    /// entirely is the checked-in baseline.
    #[test]
    fn traffic_none_keeps_unweighted_series_byte_identical() {
        let t = Technique::ReactiveAnycast;
        let mut base_cfg = traffic_cfg(5);
        base_cfg.traffic = None;
        let base = run_technique_all_sites(&Testbed::new(base_cfg), &t, 1);
        let with = run_technique_all_sites(&Testbed::new(traffic_cfg(5)), &t, 1);
        let s_base = TechniqueSeries::from_results(&t, &base);
        let s_with = TechniqueSeries::from_results(&t, &with);
        assert_eq!(
            serde_json::to_string(&s_base).unwrap(),
            serde_json::to_string(&s_with).unwrap(),
            "enabling the traffic layer must not move a single figure sample"
        );
        assert!(base.iter().all(|r| r.traffic.is_none()));
    }

    /// The weighted series carries the load columns and degrades sanely.
    #[test]
    fn weighted_series_aggregates_demand() {
        let tb = Testbed::new(traffic_cfg(5));
        let t = Technique::ReactiveAnycast;
        let results = run_technique_all_sites(&tb, &t, 2);
        let s = WeightedTechniqueSeries::from_results(&t, &results);
        assert_eq!(s.technique, "reactive-anycast");
        assert!(s.total_weight > 0.0);
        let f = s.reconnected_weight_fraction();
        assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
        assert!(s.peak_utilization.is_some());
        assert!(s.shed_fraction.is_some());
        assert!(s.resteers.is_some());
        // Weighted CDF mass matches the reconnected weight.
        let cdf = s.reconnection_cdf();
        assert!((cdf.total_weight() - (s.total_weight - s.never_reconnected_weight)).abs() < 1e-9);

        // Without summaries the weighted series falls back to unit
        // weights and reports no load columns.
        let mut cfg = traffic_cfg(5);
        cfg.traffic = None;
        let plain = run_technique_all_sites(&Testbed::new(cfg), &t, 1);
        let s0 = WeightedTechniqueSeries::from_results(&t, &plain);
        assert_eq!(s0.peak_utilization, None);
        assert_eq!(s0.shed_fraction, None);
        assert!((s0.total_weight - s0.num_targets as f64).abs() < 1e-9);
    }
}
