//! The four workloads: which cells a simulation pass runs and which jobs
//! the service path is asked for, all generated from `--seed`.
//!
//! Every workload is one process running two load generators from one
//! harness thread, one after the other: *simulation passes*
//! (`execute_cell` serially over the cell grid, i.e. `--jobs 1`), then a
//! *closed-loop service client* (one `ServeClient` against an in-process
//! daemon with one single-threaded worker). Both, because every run has to
//! report every end-to-end metric (README.md, "The builder's contract"). A
//! workload differs from the others in its inputs — scale, session model,
//! scenarios, job shapes — and in how much of the run goes to each
//! generator. See README.md for why each exists.

use std::ops::Range;
use std::path::Path;

use bobw_bgp::DampingConfig;
use bobw_core::{
    ExperimentConfig, FailoverResult, SessionModel, Technique, Testbed, TrafficConfig,
};
use bobw_dist::{CellOutput, CellSpec};
use bobw_scenario::Scenario;

pub const NAMES: [&str; 4] = ["paper-eval", "fault-catalog", "session-msg", "service-jobs"];

/// The catalog's load scenarios: the ones the `traffic` bin runs with the
/// traffic layer on (Sinha et al.'s overload cascade and its relatives).
const LOAD_SCENARIOS: [&str; 4] = [
    "flash-crowd",
    "overload-cascade",
    "ddos-absorb-vs-shed",
    "ddos-scrub",
];

/// The session-fault slice of the catalog `session-msg` runs message-level.
const SESSION_SCENARIOS: [&str; 4] = [
    "site-failure",
    "half-open",
    "graceful-restart",
    "damping-session-reset",
];

/// The techniques behind the paper's `control` pseudo-technique rows.
pub const CONTROL: &str = "control";

/// Cells that share one experiment config, hence one testbed.
pub struct Group {
    pub label: String,
    pub testbed: Testbed,
    pub cells: Vec<CellSpec>,
}

/// One job: a slice of one group's cells, submitted with `submit_raw`.
#[derive(Debug, Clone)]
pub struct JobShape {
    pub group: usize,
    pub cells: Range<usize>,
}

pub struct Plan {
    pub name: &'static str,
    pub groups: Vec<Group>,
    /// Latency-bound jobs, submitted one at a time in rotation.
    pub small: Vec<JobShape>,
    /// Throughput-bound batches in rotation; the jobs of one batch are
    /// submitted back to back and the daemon drains them FIFO.
    pub bulk: Vec<Vec<JobShape>>,
    /// The share of `--seconds` that goes to simulation passes.
    pub sim_share: f64,
    /// Jobs of each kind in a 20-second run (scaled with `--seconds`),
    /// sized to take the rest of it. A *count*, not a time share: the
    /// daemon keeps every job it ran, so a time-bounded job loop would make
    /// `service-jobs`' `peak_rss_mb` grow when the code gets faster.
    pub small_per_20s: usize,
    pub bulk_per_20s: usize,
    /// `peak_rss_mb` is the whole process's, service included, rather
    /// than the simulator's, read before the service starts.
    pub rss_with_service: bool,
    /// Fold the pass as `repro_all` does and byte-compare with the
    /// committed `results/` figures (`paper-eval` at seed 42 only).
    pub compare_figures: bool,
}

impl Plan {
    pub fn cells_per_pass(&self) -> usize {
        self.groups.iter().map(|g| g.cells.len()).sum()
    }

    /// (small jobs, bulk batches) for a run of `seconds`.
    pub fn job_counts(&self, seconds: f64) -> (usize, usize) {
        let scaled = |per_20s: usize| (per_20s as f64 * seconds / 20.0).round() as usize;
        (
            scaled(self.small_per_20s).max(4),
            scaled(self.bulk_per_20s).max(1),
        )
    }
}

/// Figure 2's techniques plus *combined*: the five-technique set the
/// `scenarios` bin runs.
fn five_techniques() -> Vec<Technique> {
    let mut t = Technique::figure2_set();
    t.push(Technique::Combined);
    t
}

/// The six distinct failover techniques of `repro_all` (Figure 2 +
/// combined, then Figure 5's prepend-5; prepend-3 is shared).
pub fn six_techniques() -> Vec<Technique> {
    let mut t = five_techniques();
    t.push(Technique::ProactivePrepending {
        prepends: 5,
        selective: false,
    });
    t
}

/// Technique-major failover cells: one contiguous row of sites per
/// technique, exactly as `run_failover_grid_dispatch` enumerates them.
fn failover_cells(techniques: &[Technique], sites: &[String]) -> Vec<CellSpec> {
    techniques
        .iter()
        .flat_map(|t| {
            sites.iter().map(move |s| CellSpec::Failover {
                technique: t.name(),
                site: s.clone(),
            })
        })
        .collect()
}

fn site_names(tb: &Testbed) -> Vec<String> {
    tb.cdn.sites().map(|s| tb.cdn.name(s).to_string()).collect()
}

/// `per` of the `n` sites for scenario number `i`, rotating so the
/// catalog as a whole covers every site.
fn rotate_sites(all: &[String], i: usize, per: usize) -> Vec<String> {
    (0..per.min(all.len()))
        .map(|k| all[(i + k * all.len() / per.min(all.len())) % all.len()].clone())
        .collect()
}

/// A catalog scenario's config under the conventions of the `scenarios`
/// and `traffic` bins: `damping-*` enables flap damping, the load
/// scenarios enable the default traffic layer.
fn scenario_config(mut cfg: ExperimentConfig, scenario: &Scenario) -> ExperimentConfig {
    if scenario.wants_damping() && cfg.timing.flap_damping.is_none() {
        cfg.timing.flap_damping = Some(DampingConfig::default());
    }
    if LOAD_SCENARIOS.contains(&scenario.name.as_str()) {
        cfg.traffic = Some(TrafficConfig::default());
    }
    cfg.scenario = Some(scenario.clone());
    cfg
}

fn scenario_group(
    cfg: ExperimentConfig,
    scenario: &Scenario,
    index: usize,
    sites_per_scenario: usize,
) -> Group {
    let testbed = Testbed::new(scenario_config(cfg, scenario));
    let all = site_names(&testbed);
    // "$site" fans over the deployment; a concrete name pins the scenario
    // (a regional partition around one site).
    let sites = if scenario.site == "$site" {
        rotate_sites(&all, index, sites_per_scenario)
    } else {
        vec![scenario.site.clone()]
    };
    Group {
        label: scenario.name.clone(),
        cells: failover_cells(&five_techniques(), &sites),
        testbed,
    }
}

/// Small jobs: within every technique row of every group, each pair of
/// neighbouring sites ("fail these two sites under this technique"). Two
/// cells keep a job latency-bound, and give a stalled cell (README.md,
/// "Known stalls") one chance per job to spoil its latency, not seven.
/// `failover` is the number of leading failover cells of each group.
fn pair_jobs(groups: &[Group], rows: usize, failover: impl Fn(&Group) -> usize) -> Vec<JobShape> {
    let mut jobs = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        let per_row = failover(g) / rows;
        for row in 0..rows {
            let mut at = row * per_row;
            while at < (row + 1) * per_row {
                let end = (at + 2).min((row + 1) * per_row);
                jobs.push(JobShape {
                    group: gi,
                    cells: at..end,
                });
                at = end;
            }
        }
    }
    jobs
}

fn whole_group(groups: &[Group], gi: usize) -> JobShape {
    JobShape {
        group: gi,
        cells: 0..groups[gi].cells.len(),
    }
}

pub fn build(name: &str, seed: u64, catalog: &[Scenario]) -> Result<Plan, String> {
    let scenario = |wanted: &str| {
        catalog
            .iter()
            .find(|s| s.name == wanted)
            .ok_or_else(|| format!("scenario {wanted:?} is not in the catalog"))
    };
    match name {
        // The repo's reason to exist: `repro_all`'s failover grid and
        // Table 1 control cells at the paper's scale, abstract sessions,
        // no traffic, the built-in site-failure scenario.
        "paper-eval" => {
            let testbed = Testbed::new(ExperimentConfig::eval(seed));
            let sites = site_names(&testbed);
            let techniques = six_techniques();
            let mut cells = failover_cells(&techniques, &sites);
            let failover = cells.len();
            cells.extend(sites.iter().map(|s| CellSpec::Control {
                site: s.clone(),
                prepends: vec![3, 5],
            }));
            let groups = vec![Group {
                label: "eval".into(),
                testbed,
                cells,
            }];
            // Bulk: the failover grid, in halves of three techniques so a
            // run fits six of them.
            let small = pair_jobs(&groups, techniques.len(), |_| failover);
            Ok(Plan {
                name: "paper-eval",
                small,
                bulk: [0..failover / 2, failover / 2..failover]
                    .into_iter()
                    .map(|cells| vec![JobShape { group: 0, cells }])
                    .collect(),
                groups,
                sim_share: 0.5,
                small_per_20s: 32,
                bulk_per_20s: 6,
                rss_with_service: false,
                compare_figures: seed == 42,
            })
        }
        // Every catalog scenario at quick scale: many ~4 ms cells, so the
        // per-cell fixed costs dominate. Scenario i runs on its own
        // topology (seed + i): seventeen small topologies per pass also
        // average out how much one generated topology differs from the
        // next, which at this scale is most of the seed-to-seed spread.
        // Two sites per scenario keep a whole-group bulk job at ten cells:
        // each ~4 ms cell is a chance to hit the worker's heartbeat stall
        // (README.md, "Known stalls"), and with twenty the median job has
        // stalled whenever the host is busy.
        "fault-catalog" => {
            let groups: Vec<Group> = catalog
                .iter()
                .enumerate()
                .map(|(i, s)| scenario_group(ExperimentConfig::quick(seed + i as u64), s, i, 2))
                .collect();
            let small = pair_jobs(&groups, 5, |g| g.cells.len());
            // A sweep submitted as a queue of jobs: three scenarios' worth
            // of cells back to back, each job on a config the worker's
            // four-entry testbed cache has long evicted.
            let bulk = (0..groups.len())
                .map(|start| {
                    (0..3)
                        .map(|k| whole_group(&groups, (start + k) % groups.len()))
                        .collect()
                })
                .collect();
            Ok(Plan {
                name: "fault-catalog",
                groups,
                small,
                bulk,
                sim_share: 0.5,
                small_per_20s: 52,
                bulk_per_20s: 14,
                rss_with_service: false,
                compare_figures: false,
            })
        }
        // Message-level sessions at the paper's scale: the session FSM and
        // RFC 4271 codec on the path of every BGP message.
        "session-msg" => {
            let mut groups = Vec::new();
            for (i, wanted) in SESSION_SCENARIOS.iter().enumerate() {
                let mut cfg = ExperimentConfig::eval(seed + i as u64);
                cfg.session_model = SessionModel::MessageLevel;
                groups.push(scenario_group(cfg, scenario(wanted)?, 2 * i, 2));
            }
            let small = pair_jobs(&groups, 5, |g| g.cells.len());
            let bulk = (0..groups.len())
                .map(|gi| vec![whole_group(&groups, gi)])
                .collect();
            Ok(Plan {
                name: "session-msg",
                groups,
                small,
                bulk,
                sim_share: 0.5,
                small_per_20s: 28,
                bulk_per_20s: 8,
                rss_with_service: false,
                compare_figures: false,
            })
        }
        // The service path under its intended use: one config (so the
        // worker's testbed cache always hits — `fault-catalog` is the miss
        // case), a stream of single-cell jobs — the service form of
        // `bobw failover --technique T --site X` — where the scheduler
        // wake-up and the completion signal are most of what the user
        // waits for, and `paper-eval`'s whole 48-cell failover grid as
        // bulk jobs. The cells are paper-scale on purpose: with cells of a
        // few milliseconds the worker's heartbeat stall (README.md, "Known
        // stalls") makes whole runs bimodal, which a gate cannot use;
        // `fault-catalog` keeps the tiny-cell case.
        "service-jobs" => {
            let testbed = Testbed::new(ExperimentConfig::eval(seed));
            let groups = vec![Group {
                label: "eval".into(),
                cells: failover_cells(&six_techniques(), &site_names(&testbed)),
                testbed,
            }];
            let small = (0..groups[0].cells.len())
                .map(|c| JobShape {
                    group: 0,
                    cells: c..c + 1,
                })
                .collect();
            let bulk = vec![vec![whole_group(&groups, 0)]];
            Ok(Plan {
                name: "service-jobs",
                groups,
                small,
                bulk,
                sim_share: 0.25,
                small_per_20s: 56,
                bulk_per_20s: 6,
                rss_with_service: true,
                compare_figures: false,
            })
        }
        other => Err(format!(
            "unknown workload {other:?} (one of: {})",
            NAMES.join(", ")
        )),
    }
}

/// Loads the scenario catalog from the repo (`scenarios/*.json`).
pub fn load_catalog(repo_root: &Path) -> Result<Vec<Scenario>, String> {
    let catalog = bobw_scenario::load_catalog(&repo_root.join(bobw_scenario::CATALOG_DIR))?;
    if catalog.is_empty() {
        return Err("the scenario catalog is empty".into());
    }
    Ok(catalog)
}

/// The failover results one pass produced for `technique` in `group`, in
/// site order — the input of `TechniqueSeries::from_results`.
pub fn results_of(
    group: &Group,
    outputs: &[Option<CellOutput>],
    technique: &Technique,
) -> Vec<FailoverResult> {
    let name = technique.name();
    group
        .cells
        .iter()
        .zip(outputs)
        .filter(|(cell, _)| technique_of(cell) == name)
        .filter_map(|(_, out)| match out {
            Some(CellOutput::Failover(r, _)) => Some(r.clone()),
            _ => None,
        })
        .collect()
}

/// The technique a cell is accounted under (`control` for Table 1 cells).
pub fn technique_of(cell: &CellSpec) -> &str {
    match cell {
        CellSpec::Failover { technique, .. } => technique,
        CellSpec::Control { .. } => CONTROL,
    }
}
