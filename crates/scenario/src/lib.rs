//! Declarative fault scenarios: timed multi-failure scripts for the
//! failover experiment.
//!
//! The paper evaluates exactly one fault shape — a whole PEERING site dies
//! at t=0. A [`Scenario`] generalizes that into a named, timestamped
//! script of injectable events (link down/up, node crash/restore, BGP
//! session reset, flap sequences, regional partition, maintenance drain,
//! overlapping second failure, delayed/partial technique reaction),
//! authored as JSON and [compiled](Scenario::compile) against a concrete testbed
//! into a flat list of [`FaultOp`]s that `bobw-core`'s experiment loop
//! schedules on its event engine. Every technique runs unmodified under
//! any scenario; the experiment's measured site, target selection, and
//! probing protocol are unchanged.
//!
//! Determinism: compilation is a pure function of
//! ⟨scenario, topology, CDN deployment, seed⟩ — flap jitter comes from the
//! testbed's named RNG streams, never from wall clocks — so a scenario
//! compiled on a `--jobs 1` run, a `--jobs N` run, or a remote
//! `--dispatch` worker yields a byte-identical event list, and therefore
//! byte-identical `results/*.json`.

mod compile;
mod model;

pub use compile::{compile, CompiledEvent, CompiledScenario, FaultOp};
pub use model::{Scenario, ScenarioAction, ScenarioError, ScenarioEvent, DNS_TTL_S, DNS_VIOLATORS};

use std::path::{Path, PathBuf};

/// Default on-disk catalog location, relative to the repository root.
pub const CATALOG_DIR: &str = "scenarios";

/// Loads and type-checks one scenario file. The error string carries the
/// JSON path of the offending node (`events[3].action: unknown variant …`)
/// via the vendored serde's `DeError`.
pub fn load_file(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let scenario: Scenario =
        serde_json::from_str_typed(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    scenario
        .validate()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(scenario)
}

/// Lists `*.json` files in a catalog directory, sorted by file name so
/// every run visits scenarios in the same order.
pub fn catalog_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    Ok(files)
}

/// Loads every scenario in a catalog directory.
pub fn load_catalog(dir: &Path) -> Result<Vec<Scenario>, String> {
    catalog_files(dir)?.iter().map(|p| load_file(p)).collect()
}
