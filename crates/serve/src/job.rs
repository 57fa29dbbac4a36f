//! Job specs: the request vocabulary shared by `bobw submit` and the
//! `bobw` command line, and its expansion into an `ExperimentConfig` plus
//! a cell grid.
//!
//! A spec names *what* to sweep (techniques × sites at a scale/seed,
//! optionally under a fault scenario); the daemon expands it with exactly
//! the enumeration the local runner uses — techniques major, sites minor,
//! sites in testbed order — so a service job's outputs line up one-to-one
//! with a local `--jobs 1` run of the same sweep. [`build_config`] is the
//! one path from a spec's config fields to an `ExperimentConfig`; the CLI
//! fills a [`JobSpec`] from its flags and goes through it too.

use std::path::Path;

use bobw_core::{ExperimentConfig, SessionModel, Technique, TrafficConfig};
use bobw_dist::CellSpec;
use bobw_scenario::Scenario;
use serde::{Deserialize, Serialize};

/// The submit document. Everything but `techniques` is optional.
///
/// ```json
/// {
///   "name": "quick sweep",
///   "scale": "quick",
///   "seed": 42,
///   "techniques": ["anycast", "reactive-anycast"],
///   "sites": ["bos", "ams"],
///   "failure": "graceful",
///   "traffic": "on",
///   "scenario": "ddos-absorb-vs-shed"
/// }
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobSpec {
    /// Display name; defaults to a summary of the sweep.
    pub name: Option<String>,
    /// `quick` (default) | `eval` | `large`.
    pub scale: Option<String>,
    /// Experiment seed (default 42).
    pub seed: Option<u64>,
    /// Technique names as in the paper's tables (required, non-empty).
    pub techniques: Vec<String>,
    /// Site names to fail; omitted = every site of the topology.
    pub sites: Option<Vec<String>>,
    /// `graceful` (default, the paper's §4 withdrawal) | `crash`: every
    /// site failure the scenario leaves unspecified becomes a silent
    /// crash ([`Scenario::crashed`]), in the built-in baseline too.
    pub failure: Option<String>,
    /// `on` | `off` (default off): the observational traffic layer.
    pub traffic: Option<String>,
    /// Fault scenario: a catalog name (`"ddos-scrub"`) or a file path.
    pub scenario: Option<String>,
    /// `abstract` (default) | `message-level`: which BGP session model
    /// the cells run (see `bobw_core::SessionModel`).
    pub session: Option<String>,
}

/// Experiment scale: the topology size and probing window of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small topology, shortened probing — seconds of wall time.
    Quick,
    /// The paper-reproduction scale.
    Eval,
    /// A double-size topology, meant as a robustness check. Unmeasured:
    /// no CI job, documented run or benchmark workload uses it.
    Large,
}

impl Scale {
    /// Parses a scale name (`quick` | `eval` | `large`).
    pub fn parse(name: &str) -> Result<Scale, String> {
        match name {
            "quick" => Ok(Scale::Quick),
            "eval" => Ok(Scale::Eval),
            "large" => Ok(Scale::Large),
            other => Err(format!("unknown scale {other:?} (quick|eval|large)")),
        }
    }

    /// The scale's name, as [`Scale::parse`] reads it.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Eval => "eval",
            Scale::Large => "large",
        }
    }

    pub fn config(self, seed: u64) -> ExperimentConfig {
        match self {
            Scale::Quick => ExperimentConfig::quick(seed),
            Scale::Eval => ExperimentConfig::eval(seed),
            Scale::Large => {
                let mut cfg = ExperimentConfig::eval(seed);
                cfg.gen = bobw_topology::GenConfig::large();
                cfg
            }
        }
    }
}

/// A spec expanded against a concrete config: ready to queue.
#[derive(Debug, Clone)]
pub struct ExpandedJob {
    pub name: String,
    pub config: ExperimentConfig,
    pub cells: Vec<CellSpec>,
}

/// Resolves a scenario reference: an existing file path wins, then
/// `<catalog>/<name>.json`.
fn resolve_scenario(reference: &str, catalog: &Path) -> Result<Scenario, String> {
    let direct = Path::new(reference);
    if direct.is_file() {
        return bobw_scenario::load_file(direct);
    }
    let in_catalog = catalog.join(format!("{reference}.json"));
    if in_catalog.is_file() {
        return bobw_scenario::load_file(&in_catalog);
    }
    Err(format!(
        "scenario {reference:?} not found (not a file, and {} does not exist)",
        in_catalog.display()
    ))
}

/// Builds the experiment config a spec asks for: its `scale`, `seed`,
/// `failure`, `traffic`, `session` and `scenario` (resolved against
/// `catalog`, with the `damping-*` convention of
/// [`ExperimentConfig::with_scenario`]). Unknown values are errors.
pub fn build_config(spec: &JobSpec, catalog: &Path) -> Result<ExperimentConfig, String> {
    let scale = Scale::parse(spec.scale.as_deref().unwrap_or("quick"))?;
    let mut config = scale.config(spec.seed.unwrap_or(42));
    match spec.traffic.as_deref() {
        None | Some("off") => {}
        Some("on") => config.traffic = Some(TrafficConfig::default()),
        Some(other) => return Err(format!("unknown traffic {other:?} (on|off)")),
    }
    match spec.session.as_deref() {
        None | Some("abstract") => {}
        Some("message-level") => config.session_model = SessionModel::MessageLevel,
        Some(other) => {
            return Err(format!(
                "unknown session {other:?} (abstract|message-level)"
            ))
        }
    }
    if let Some(reference) = &spec.scenario {
        let scenario = resolve_scenario(reference, catalog)?;
        config = config.with_scenario(scenario);
    }
    match spec.failure.as_deref() {
        None | Some("graceful") => {}
        Some("crash") => config.scenario = Some(config.fault_script().crashed()),
        Some(other) => return Err(format!("unknown failure {other:?} (graceful|crash)")),
    }
    config
        .plan
        .validate(config.gen.sites.len())
        .map_err(|e| format!("bad address plan: {e}"))?;
    Ok(config)
}

/// Parses and expands a spec JSON document. Validation is strict: unknown
/// techniques, sites, scales, or scenario references are submit-time
/// errors, not worker-time failures.
pub fn expand_spec(spec_json: &str, catalog: &Path) -> Result<ExpandedJob, String> {
    let spec: JobSpec =
        serde_json::from_str_typed(spec_json).map_err(|e| format!("bad job spec: {e}"))?;
    let config = build_config(&spec, catalog)?;
    if spec.techniques.is_empty() {
        return Err("job spec needs at least one technique".into());
    }
    for t in &spec.techniques {
        Technique::parse(t)?;
    }

    let all_sites: Vec<String> = config.gen.sites.iter().map(|s| s.name.clone()).collect();
    let sites: Vec<String> = match &spec.sites {
        None => all_sites.clone(),
        Some(picked) => {
            if picked.is_empty() {
                return Err("job spec `sites` must not be an empty list (omit it for all)".into());
            }
            for s in picked {
                if !all_sites.iter().any(|n| n == s) {
                    return Err(format!(
                        "unknown site {s:?} (topology has: {})",
                        all_sites.join(" ")
                    ));
                }
            }
            picked.clone()
        }
    };

    let cells: Vec<CellSpec> = spec
        .techniques
        .iter()
        .flat_map(|t| {
            sites.iter().map(move |s| CellSpec::Failover {
                technique: t.clone(),
                site: s.clone(),
            })
        })
        .collect();

    let name = spec.name.clone().unwrap_or_else(|| {
        format!(
            "{}t x {}s @{} seed {}",
            spec.techniques.len(),
            sites.len(),
            spec.scale.as_deref().unwrap_or("quick"),
            config.seed
        )
    });
    Ok(ExpandedJob {
        name,
        config,
        cells,
    })
}

/// One line of the `bobw jobs` listing (JSON rows on the wire; also the
/// `job-<id>.json` persistence format).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRow {
    pub id: u64,
    pub name: String,
    /// A [`crate::proto::JobState`] as its `as_str` form.
    pub state: String,
    pub cells_total: usize,
    pub cells_done: usize,
    pub error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> std::path::PathBuf {
        // Unit tests run from the crate dir; the checked-in catalog lives
        // at the workspace root.
        std::path::PathBuf::from("../../scenarios")
    }

    #[test]
    fn expand_builds_the_technique_major_grid() {
        let json = r#"{
            "techniques": ["anycast", "reactive-anycast"],
            "sites": ["bos", "ams"],
            "seed": 7
        }"#;
        let job = expand_spec(json, &catalog()).unwrap();
        assert_eq!(job.cells.len(), 4);
        assert_eq!(
            job.cells[0],
            CellSpec::Failover {
                technique: "anycast".into(),
                site: "bos".into()
            }
        );
        assert_eq!(
            job.cells[2],
            CellSpec::Failover {
                technique: "reactive-anycast".into(),
                site: "bos".into()
            }
        );
        assert_eq!(job.config.seed, 7);
        assert!(job.name.contains("2t x 2s"));
    }

    #[test]
    fn omitted_sites_means_all_sites() {
        let json = r#"{"techniques": ["anycast"]}"#;
        let job = expand_spec(json, &catalog()).unwrap();
        assert_eq!(job.cells.len(), job.config.gen.sites.len());
    }

    #[test]
    fn bad_specs_are_rejected_at_submit_time() {
        let c = catalog();
        assert!(expand_spec("{", &c).unwrap_err().contains("bad job spec"));
        assert!(expand_spec(r#"{"techniques": []}"#, &c)
            .unwrap_err()
            .contains("at least one technique"));
        assert!(expand_spec(r#"{"techniques": ["warp-drive"]}"#, &c).is_err());
        assert!(
            expand_spec(r#"{"techniques": ["anycast"], "sites": ["atlantis"]}"#, &c)
                .unwrap_err()
                .contains("unknown site")
        );
        assert!(
            expand_spec(r#"{"techniques": ["anycast"], "scale": "galactic"}"#, &c)
                .unwrap_err()
                .contains("unknown scale")
        );
        assert!(
            expand_spec(r#"{"techniques": ["anycast"], "scenario": "no-such"}"#, &c)
                .unwrap_err()
                .contains("not found")
        );
    }

    #[test]
    fn session_field_selects_the_model() {
        let c = catalog();
        let json = r#"{"techniques": ["anycast"], "session": "message-level"}"#;
        let job = expand_spec(json, &c).unwrap();
        assert_eq!(job.config.session_model, SessionModel::MessageLevel);
        let json = r#"{"techniques": ["anycast"], "session": "abstract"}"#;
        let job = expand_spec(json, &c).unwrap();
        assert_eq!(job.config.session_model, SessionModel::Abstract);
        let json = r#"{"techniques": ["anycast"]}"#;
        let job = expand_spec(json, &c).unwrap();
        assert_eq!(job.config.session_model, SessionModel::Abstract);
        let json = r#"{"techniques": ["anycast"], "session": "telepathy"}"#;
        assert!(expand_spec(json, &c).unwrap_err().contains("session"));
    }

    #[test]
    fn crash_silences_the_scenario_or_the_baseline() {
        let c = catalog();
        let job = expand_spec(r#"{"techniques": ["anycast"], "failure": "crash"}"#, &c).unwrap();
        let baseline = Scenario::site_failure(2.0, 0);
        assert_eq!(job.config.scenario, Some(baseline.clone().crashed()));
        let job = expand_spec(r#"{"techniques": ["anycast"], "failure": "graceful"}"#, &c).unwrap();
        assert_eq!(job.config.scenario, None);
        let json =
            r#"{"techniques": ["anycast"], "failure": "crash", "scenario": "double-failure"}"#;
        let job = expand_spec(json, &c).unwrap();
        let scenario = resolve_scenario("double-failure", &c).unwrap();
        assert_ne!(scenario, scenario.clone().crashed());
        assert_eq!(job.config.scenario, Some(scenario.crashed()));
        let json = r#"{"techniques": ["anycast"], "failure": "meltdown"}"#;
        assert!(expand_spec(json, &c)
            .unwrap_err()
            .contains("unknown failure \"meltdown\""));
    }

    #[test]
    fn damping_scenarios_turn_damping_on() {
        let c = catalog();
        let json = r#"{"techniques": ["anycast"], "scenario": "damping-session-reset"}"#;
        let job = expand_spec(json, &c).unwrap();
        assert!(job.config.timing.flap_damping.is_some());
        let json = r#"{"techniques": ["anycast"], "scenario": "session-reset"}"#;
        let job = expand_spec(json, &c).unwrap();
        assert!(job.config.timing.flap_damping.is_none());
    }

    #[test]
    fn scenario_resolves_by_catalog_name() {
        let json = r#"{
            "techniques": ["reactive-anycast"],
            "sites": ["bos"],
            "traffic": "on",
            "scenario": "ddos-absorb-vs-shed"
        }"#;
        let job = expand_spec(json, &catalog()).unwrap();
        let sc = job.config.scenario.expect("scenario attached");
        assert_eq!(sc.name, "ddos-absorb-vs-shed");
        assert!(job.config.traffic.is_some());
    }
}
