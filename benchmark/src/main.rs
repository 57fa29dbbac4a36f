//! The bobw benchmark. See README.md; `run.sh` builds and starts this.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and prints, as the last line of stdout, one JSON object
//!   `{correct, attempted, failed, metrics}`: the end-to-end metrics with
//!   `--trace 0`, the per-layer metrics with `--trace 1`.
//! * Without `--workload` it starts itself once per workload, in
//!   interleaved rounds, pools the rounds by median and prints every
//!   metric by name; `--selfcheck` runs two sets of ten seeds and holds
//!   them against the bounds in `BENCHMARK.json`.

mod harness;
mod orchestrate;
mod probes;
mod service;
mod stats;
mod trace;
mod workloads;

use std::time::Instant;

use serde::Value;

use harness::{Client, Harness, Samples};
use probes::{put, Metrics, Probes};
use service::Service;
use stats::{describe, median, percentile};
use trace::Tracer;

/// Set-ups per end-to-end run; `setup_s` is their median. Several, because
/// the builder's contract says so (README.md, "The builder's contract").
const SETUPS: usize = 3;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub selfcheck: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] [--selfcheck]",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")),
            "--seed" => args.seed = value("an integer").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                let s: f64 = value("a number").parse().unwrap_or_else(|_| usage());
                if !(s.is_finite() && s >= 1.0) {
                    eprintln!("--seconds must be at least 1");
                    usage();
                }
                args.seconds = Some(s);
            }
            "--selfcheck" => args.selfcheck = true,
            // `--trace` alone switches tracing on; `--trace 0|1` is the
            // form the builder's driver passes (README.md).
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            _ => {
                eprintln!("unknown flag {flag:?}");
                usage();
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let code = match &args.workload {
        Some(name) => match run_workload(name, &args) {
            Ok(correct) => i32::from(!correct),
            Err(e) => {
                eprintln!("benchmark: {e}");
                1
            }
        },
        None => orchestrate::run(&args),
    };
    // Everything that owns a thread or a file has been dropped by now.
    std::process::exit(code);
}

/// `VmHWM`: the process's peak resident set, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(orchestrate::DEFAULT_SECONDS);
    let mut tracer = Tracer::new(args.trace);
    let (samples, metrics) = if args.trace {
        traced_run(name, args.seed, seconds, &mut tracer)?
    } else {
        end_to_end_run(name, args.seed, seconds, &mut tracer)?
    };
    let correct = samples.failed == 0;
    println!(
        "{name}: operations attempted {}  failed {}",
        samples.attempted, samples.failed
    );
    let mut entries = Vec::with_capacity(metrics.len());
    for (metric, m) in &metrics {
        println!("{name}: {metric} = {} {}", m.value, m.unit);
        // A run that could not measure something must not read as a
        // perfect score: no result line, non-zero exit. Every end-to-end
        // metric is a time, a size or a rate of work that was done, so
        // there a zero means the same.
        if !m.value.is_finite() || (!args.trace && m.value <= 0.0) {
            return Err(format!(
                "{name}: {metric} = {} is not a measurement",
                m.value
            ));
        }
        entries.push((
            metric.clone(),
            Value::Object(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]),
        ));
    }
    if samples.attempted == 0 {
        return Err(format!("{name}: no operation was attempted"));
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(samples.attempted)),
        ("failed".into(), Value::UInt(samples.failed)),
        ("metrics".into(), Value::Object(entries)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

/// Tracing off: simulation set-up [`SETUPS`] times, passes for the plan's
/// share of `seconds`, service set-up [`SETUPS`] times, the plan's jobs;
/// reports the eight end-to-end metrics.
fn end_to_end_run(
    name: &str,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Samples, Metrics), String> {
    // Set-up i is simulation set-up i plus service set-up i. The first of
    // each is the cold one (page cache, allocator, path table).
    let mut setup_s = [0.0; SETUPS];
    let mut warm_ups = (0, 0);
    let mut harness: Option<Harness> = None;
    for s in &mut setup_s {
        // Torn down first: two sets of testbeds would double the peak.
        if let Some(previous) = harness.take() {
            warm_ups.0 += previous.samples.attempted;
            warm_ups.1 += previous.samples.failed;
        }
        let at = Instant::now();
        harness = Some(Harness::setup(name, seed, tracer)?);
        *s = at.elapsed().as_secs_f64();
    }
    let mut h = harness.expect("SETUPS >= 1");
    h.samples.attempted += warm_ups.0;
    h.samples.failed += warm_ups.1;
    let at = Instant::now();
    h.run_passes(seconds * h.plan.sim_share, tracer);
    let passes_s = at.elapsed().as_secs_f64();
    let rss_before_service = peak_rss_mib();

    let mut client: Option<Client> = None;
    for s in &mut setup_s {
        if let Some(previous) = client.take() {
            previous.stop()?;
        }
        let at = Instant::now();
        client = Some(Client::start(&mut h, seed, tracer)?);
        *s += at.elapsed().as_secs_f64();
    }
    let mut client = client.expect("SETUPS >= 1");
    let at = Instant::now();
    client.run_jobs(&mut h, seconds, tracer);
    let jobs_s = at.elapsed().as_secs_f64();
    client.stop()?;
    println!("{name}: measured for {passes_s:.1} s of passes + {jobs_s:.1} s of jobs");
    let rss = if h.plan.rss_with_service {
        peak_rss_mib()
    } else {
        rss_before_service
    };
    let samples = std::mem::take(&mut h.samples);
    if samples.small.is_empty() || samples.bulk.is_empty() {
        return Err("the service finished no job within the run; nothing to report".into());
    }

    let mut out = Metrics::new();
    println!("{name}: set-ups (first is cold) {setup_s:.3?} s");
    put(&mut out, "setup_s", median(&setup_s), "s");
    println!("{name}: pass_wall_s  {}", describe(&samples.pass_wall_s));
    put(&mut out, "pass_wall_s", median(&samples.pass_wall_s), "s");
    println!("{name}: cell_ms      {}", describe(&samples.cell_ms));
    put(&mut out, "cell_ms_p50", median(&samples.cell_ms), "ms");
    put(
        &mut out,
        "cell_ms_p95",
        percentile(&samples.cell_ms, 95.0),
        "ms",
    );
    let first: Vec<f64> = samples.small.iter().map(|t| t.first_cell_ms).collect();
    let job: Vec<f64> = samples.small.iter().map(|t| t.job_ms).collect();
    println!("{name}: svc_first_cell_ms  {}", describe(&first));
    println!("{name}: svc_job_ms         {}", describe(&job));
    put(&mut out, "svc_first_cell_ms_p50", median(&first), "ms");
    put(&mut out, "svc_job_ms_p50", median(&job), "ms");
    let rate: Vec<f64> = samples
        .bulk
        .iter()
        .map(|(cells, wall_s, _)| *cells as f64 / wall_s)
        .collect();
    println!("{name}: svc_bulk_cells_per_s  {}", describe(&rate));
    put(&mut out, "svc_bulk_cells_per_s", median(&rate), "cells/s");
    put(&mut out, "peak_rss_mb", rss, "MiB");
    Ok((samples, out))
}

/// Tracing on: one set-up of each side, simulation passes alternately
/// untraced and traced (their ratio is the tracing overhead), a traced
/// share of the service jobs, then every layer probe. Reports the
/// per-layer metrics and writes the spans to
/// `benchmark/out/trace-<workload>.json`.
fn traced_run(
    name: &str,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Samples, Metrics), String> {
    let mut h = Harness::setup(name, seed, tracer)?;
    let mut out = Metrics::new();

    // Passes: untraced / traced pairs for about a third of the run.
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last_pass = Vec::new();
    let mut path_table_len = 0;
    while plain.len() < 2 || start.elapsed().as_secs_f64() < seconds / 3.0 {
        for on in [false, true] {
            tracer.set_enabled(on);
            last_pass = h.timed_pass(tracer);
            let wall = *h.samples.pass_wall_s.last().expect("a pass just ran");
            if on { &mut traced } else { &mut plain }.push(wall);
        }
        if path_table_len == 0 {
            path_table_len = bobw_net::PathTable::with(|t| t.len());
        }
    }
    let overhead = (median(&traced) / median(&plain) - 1.0) * 100.0;
    put(&mut out, "trace_overhead_pct", overhead, "%");
    let passes = (plain.len() + traced.len()) as f64;

    // Service: half an end-to-end run's jobs, all traced.
    let mut client = Client::start(&mut h, seed, tracer)?;
    let (smalls, bulks) = h.plan.job_counts(seconds / 2.0);
    for _ in 0..smalls {
        client.small_job(&mut h, tracer);
    }
    for _ in 0..bulks {
        client.bulk_batch(&mut h, tracer);
    }
    let mut status_rtt = Vec::new();
    let mut status_json = String::new();
    for _ in 0..20 {
        let (rtt, json) = client.service.status(tracer)?;
        status_rtt.push(rtt);
        status_json = json;
    }
    let samples = std::mem::take(&mut h.samples);
    serve_metrics(
        &mut out,
        &samples,
        &status_rtt,
        &status_json,
        &client.service,
    );
    client.stop()?;

    // Probes, on the testbed of the baseline scenario where there is one.
    let primary = h
        .plan
        .groups
        .iter()
        .find(|g| g.label == "site-failure")
        .unwrap_or(&h.plan.groups[0]);
    let walks_per_cell = samples.walks as f64 / samples.failover_cells.max(1) as f64;
    let ticks_per_cell = samples.traffic_ticks as f64 / samples.traffic_cells.max(1) as f64;
    let op = tracer.op(|| format!("{name}/probes"));
    let mut p = Probes {
        tb: &primary.testbed,
        tracer,
        op,
        out,
    };
    p.topology();
    let replayed_ms = p.bgp_and_dataplane(samples.peak_queue_depth, walks_per_cell);
    p.event_queue(samples.peak_queue_depth, samples.queue_capacity);
    p.net(path_table_len);
    p.scenario(&h.catalog, h.catalog_load_s);
    let establish_ms = p.session();
    p.fold_and_wire(&h.plan.groups, &last_pass);
    p.runner_speedup(primary);
    let mut out = p.out;

    put(&mut out, "traffic.ticks_per_cell", ticks_per_cell, "count");
    put(
        &mut out,
        "traffic.resteers",
        samples.traffic_resteers as f64 / passes,
        "count",
    );
    core_metrics(&mut out, &samples, passes);
    // What a cell spends outside the replayed layers: the experiment
    // loop's own time. Message-level cells also establish their sessions;
    // load cells also tick the traffic layer.
    let message_level = matches!(
        primary.testbed.cfg.session_model,
        bobw_core::SessionModel::MessageLevel
    );
    let cell_ms = samples
        .by_technique
        .values()
        .map(|r| r.wall_ms)
        .sum::<f64>()
        / samples
            .by_technique
            .values()
            .map(|r| r.cells)
            .sum::<u64>()
            .max(1) as f64;
    let traffic_share = samples.traffic_cells as f64 / samples.failover_cells.max(1) as f64;
    let residual = cell_ms
        - replayed_ms
        - if message_level { establish_ms } else { 0.0 }
        - traffic_share * ticks_per_cell * out["traffic.tick_us"].value / 1e3;
    put(&mut out, "core.residual_ms", residual, "ms");

    write_trace(name, tracer)?;
    Ok((samples, out))
}

fn core_metrics(out: &mut Metrics, samples: &Samples, passes: f64) {
    let mut names: Vec<String> = workloads::six_techniques()
        .iter()
        .map(|t| t.name())
        .collect();
    names.push(workloads::CONTROL.into());
    for name in names {
        let row = samples.by_technique.get(&name).cloned().unwrap_or_default();
        let cells = row.cells.max(1) as f64;
        put(
            out,
            &format!("core.cell_ms.{name}"),
            row.wall_ms / cells,
            "ms",
        );
        put(
            out,
            &format!("core.events_per_cell.{name}"),
            row.events as f64 / cells,
            "count",
        );
    }
    let wall_s = samples
        .by_technique
        .values()
        .map(|r| r.wall_ms)
        .sum::<f64>()
        / 1e3;
    let events = samples.events_total as f64;
    put(out, "core.events_total", events / passes, "count");
    put(out, "core.events_per_s", events / wall_s.max(1e-9), "1/s");
    put(
        out,
        "core.ns_per_event",
        wall_s * 1e9 / events.max(1.0),
        "ns",
    );
}

fn serve_metrics(
    out: &mut Metrics,
    samples: &Samples,
    status_rtt: &[f64],
    status_json: &str,
    service: &Service,
) {
    let small = &samples.small;
    let wait: Vec<f64> = small
        .iter()
        .map(|t| t.first_cell_ms - t.first_cell_wall_ms)
        .collect();
    let done: Vec<f64> = small.iter().map(|t| t.done_signal_ms).collect();
    let job: Vec<f64> = small.iter().map(|t| t.job_ms).collect();
    let submit: Vec<f64> = small.iter().map(|t| t.submit_rtt_ms).collect();
    let overhead: Vec<f64> = samples
        .bulk
        .iter()
        .map(|(_, wall_s, cells_s)| (wall_s / cells_s.max(1e-9) - 1.0) * 100.0)
        .collect();
    put(out, "serve.submit_rtt_ms", median(&submit), "ms");
    put(out, "serve.status_rtt_ms", median(status_rtt), "ms");
    put(out, "serve.sched_wait_ms_p50", median(&wait), "ms");
    put(out, "serve.done_signal_ms_p50", median(&done), "ms");
    put(out, "serve.job_ms_p95", percentile(&job, 95.0), "ms");
    put(
        out,
        "serve.job_ms_max",
        job.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    put(
        out,
        "serve.stalls_over_400ms",
        job.iter().filter(|ms| **ms > 400.0).count() as f64,
        "count",
    );
    put(out, "serve.bulk_overhead_pct", median(&overhead), "%");
    put(
        out,
        "serve.persist_bytes_per_job",
        service.persisted_bytes() as f64 / service.jobs_submitted().max(1) as f64,
        "B",
    );
    let cache_hits = serde_json::from_str(status_json)
        .ok()
        .and_then(|v| {
            let workers = v.get("workers")?.as_array()?;
            Some(
                workers
                    .iter()
                    .filter_map(|w| w.get("cache_hits")?.as_u64())
                    .sum::<u64>(),
            )
        })
        .unwrap_or(0);
    put(out, "serve.worker_cache_hits", cache_hits as f64, "count");
}

/// Writes the spans and the per-layer table, and prints the table.
fn write_trace(name: &str, tracer: &Tracer) -> Result<(), String> {
    let rows = trace::layer_table(&tracer.spans);
    println!("{name}: per-layer table of the traced run");
    print!("{}", trace::render_layer_table(&rows));
    let dir = harness::benchmark_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{name}.json"));
    let doc = Value::Object(vec![
        ("workload".into(), Value::Str(name.into())),
        ("ops".into(), serde::Serialize::to_value(&tracer.ops)),
        ("layers".into(), serde::Serialize::to_value(&rows)),
        ("spans".into(), serde::Serialize::to_value(&tracer.spans)),
    ]);
    let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{name}: {} spans written to {}",
        tracer.spans.len(),
        path.display()
    );
    Ok(())
}
