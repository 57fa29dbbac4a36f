//! All workloads from one command: each workload runs in a process of its
//! own (so `peak_rss_mb` is that workload's), in interleaved rounds
//! `paper-eval → fault-catalog → session-msg → service-jobs`, one process
//! at a time; the rounds are pooled by median so slow drift of the host
//! averages out. `--selfcheck` runs the test the builder's driver accepts
//! the benchmark on: two such sets of ten seeds each, held against the
//! bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::process::Command;

use serde::Value;

use crate::harness::{benchmark_dir, repo_root};
use crate::stats::quartiles;
use crate::workloads::NAMES;
use crate::Args;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures when
/// `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Runs per workload in the end-to-end set, all at `--seed`.
const ROUNDS: u64 = 3;

/// Runs per workload in each of `--selfcheck`'s two sets, at `--seed`,
/// `--seed + 1`, …: the driver's ten runs, "each time with another seed".
const SELFCHECK_SEEDS: u64 = 10;

/// One run's result line, parsed.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// name → (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

/// One metric of one workload over the runs of a set.
struct Pooled {
    values: Vec<f64>,
    unit: String,
}

impl Pooled {
    /// Median and, from four runs on, the spread the driver computes: the
    /// distance between the first and third quartile as a share of the
    /// median.
    fn median_and_spread(&self) -> (f64, Option<f64>) {
        match quartiles(&self.values) {
            Some([q1, q2, q3]) if self.values.len() >= 4 => (q2, Some((q3 - q1) / q2)),
            Some([_, q2, _]) => (q2, None),
            None => (self.values[0], None),
        }
    }
}

/// workload → metric → its runs
type Set = BTreeMap<String, BTreeMap<String, Pooled>>;

fn run_child(workload: &str, seed: u64, trace: bool, seconds: f64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("  {line}");
    }
    let malformed = |what: &str| format!("{workload} (seed {seed}): result line has no {what}");
    let parsed = serde_json::from_str(last)
        .map_err(|e| format!("{workload} printed no result ({e}); exit {}", output.status))?;
    let number = |key: &str| {
        parsed
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| malformed(key))
    };
    let mut metrics = BTreeMap::new();
    let Some(Value::Object(entries)) = parsed.get("metrics") else {
        return Err(malformed("metrics"));
    };
    for (name, m) in entries {
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| malformed(name))?;
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        metrics.insert(name.clone(), (value, unit.to_string()));
    }
    // A run that calls itself incorrect has failed at least one operation.
    let incorrect = parsed.get("correct").and_then(Value::as_bool) != Some(true);
    Ok(RunResult {
        attempted: number("attempted")?,
        failed: number("failed")?.max(u64::from(incorrect)),
        metrics,
    })
}

/// Runs every workload once per seed of `seeds`, interleaved, prints each
/// metric's median over the runs, and returns the set with the number of
/// failed operations.
fn run_set(seeds: &[u64], trace: bool, seconds: f64) -> Result<(Set, u64), String> {
    let mut set = Set::new();
    let mut ops: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (round, &seed) in seeds.iter().enumerate() {
        for workload in NAMES {
            println!(
                "round {}/{}: {workload}, seed {seed}",
                round + 1,
                seeds.len()
            );
            let r = run_child(workload, seed, trace, seconds)?;
            let (attempted, failed) = ops.entry(workload).or_default();
            *attempted += r.attempted;
            *failed += r.failed;
            let by_metric = set.entry(workload.to_string()).or_default();
            for (name, (value, unit)) in r.metrics {
                by_metric
                    .entry(name)
                    .or_insert_with(|| Pooled {
                        values: Vec::new(),
                        unit,
                    })
                    .values
                    .push(value);
            }
        }
    }
    println!();
    let mut failed_total = 0;
    for workload in NAMES {
        let (attempted, failed) = ops[workload];
        failed_total += failed;
        println!("{workload}: operations attempted {attempted}, failed {failed}");
        for (name, pooled) in &set[workload] {
            let (value, _) = pooled.median_and_spread();
            println!(
                "  {name:<44} {value:>16.4} {:<8} (median of {} runs)",
                pooled.unit,
                pooled.values.len()
            );
        }
    }
    Ok((set, failed_total))
}

/// name → (bound, higher is better) for the end-to-end metrics.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or("metric without a bound")?;
        let higher = m.get("better").and_then(Value::as_str) == Some("higher");
        out.insert(name.to_string(), (bound, higher));
    }
    Ok(out)
}

/// The driver's acceptance test of the benchmark itself: per ⟨workload,
/// metric⟩ the second set's median may not be worse than the first's by
/// more than the bound, and — `setup_s` excepted — neither set's spread
/// may exceed it.
fn selfcheck(first_seed: u64, seconds: f64) -> Result<i32, String> {
    let bounds = bounds()?;
    let seeds: Vec<u64> = (first_seed..first_seed + SELFCHECK_SEEDS).collect();
    println!("selfcheck: first set");
    let (first, failed_a) = run_set(&seeds, false, seconds)?;
    println!("\nselfcheck: second set");
    let (second, failed_b) = run_set(&seeds, false, seconds)?;
    println!(
        "\n{:<14} {:<24} {:>11} {:>11} {:>9} {:>8} {:>8} {:>6}",
        "workload", "metric", "first", "second", "worse_by", "spread1", "spread2", "bound"
    );
    let mut rows = Vec::new();
    let mut breaches = 0;
    for (workload, metrics) in &first {
        for (name, one) in metrics {
            let two = second
                .get(workload)
                .and_then(|m| m.get(name))
                .ok_or_else(|| format!("{workload}: the second set has no {name}"))?;
            let &(bound, higher) = bounds
                .get(name)
                .ok_or_else(|| format!("BENCHMARK.json has no end-to-end metric {name}"))?;
            let (a, spread_a) = one.median_and_spread();
            let (b, spread_b) = two.median_and_spread();
            let (spread_a, spread_b) = (spread_a.unwrap_or(f64::NAN), spread_b.unwrap_or(f64::NAN));
            // How much worse the second set reads, as a share of the first.
            let worse_by = if higher { (a - b) / a } else { (b - a) / a };
            // Written so that a NaN anywhere is a breach.
            let steady = name == "setup_s" || (spread_a <= bound && spread_b <= bound);
            let within = worse_by.abs() <= bound && steady;
            breaches += usize::from(!within);
            println!(
                "{workload:<14} {name:<24} {a:>11.4} {b:>11.4} {:>8.2}% {:>7.2}% {:>7.2}% {:>5.0}%{}",
                worse_by * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                bound * 100.0,
                if within { "" } else { "  BREACH" }
            );
            let floats = |v: &[f64]| Value::Array(v.iter().map(|x| Value::Float(*x)).collect());
            rows.push(Value::Object(vec![
                ("workload".into(), Value::Str(workload.clone())),
                ("metric".into(), Value::Str(name.clone())),
                ("unit".into(), Value::Str(one.unit.clone())),
                ("first".into(), floats(&one.values)),
                ("second".into(), floats(&two.values)),
                ("first_median".into(), Value::Float(a)),
                ("second_median".into(), Value::Float(b)),
                ("worse_by".into(), Value::Float(worse_by)),
                ("first_spread".into(), Value::Float(spread_a)),
                ("second_spread".into(), Value::Float(spread_b)),
                ("bound".into(), Value::Float(bound)),
                ("within_bound".into(), Value::Bool(within)),
            ]));
        }
    }
    let doc = Value::Object(vec![
        (
            "seeds".into(),
            Value::Array(seeds.iter().map(|s| Value::UInt(*s)).collect()),
        ),
        ("seconds".into(), Value::Float(seconds)),
        ("failed_operations".into(), Value::UInt(failed_a + failed_b)),
        ("breaches".into(), Value::UInt(breaches as u64)),
        ("pairs".into(), Value::Array(rows)),
    ]);
    let dir = benchmark_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("selfcheck.json");
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nselfcheck: {breaches} breach(es), {} failed operation(s); wrote {}",
        failed_a + failed_b,
        path.display()
    );
    Ok(i32::from(breaches > 0 || failed_a + failed_b > 0))
}

pub fn run(args: &Args) -> i32 {
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let outcome = if args.selfcheck {
        if args.trace {
            Err("--selfcheck compares end-to-end metrics; run it without --trace".to_string())
        } else {
            selfcheck(args.seed, seconds)
        }
    } else {
        // The traced run is one extra run per workload, never pooled.
        let rounds = if args.trace { 1 } else { ROUNDS };
        let seeds: Vec<u64> = (0..rounds).map(|_| args.seed).collect();
        run_set(&seeds, args.trace, seconds).map(|(_, failed)| i32::from(failed > 0))
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        1
    })
}
