//! One workload, set up and driven: [`Harness`] owns the testbeds, the
//! reference results and the simulation passes; [`Client`] owns the
//! in-process service and the closed loop of jobs against it. Both turn a
//! wrong output into a failed operation. A run drives them one after the
//! other (passes first), so the simulator's peak memory can be read before
//! the service exists.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bobw_bench::{Table1, TechniqueSeries};
use bobw_core::Technique;
use bobw_dist::{execute_cell, CellOutput, CellSpec};
use bobw_scenario::Scenario;
use rand::Rng;

use crate::service::{JobTiming, Service, TmpDir};
use crate::stats::result_digest;
use crate::trace::Tracer;
use crate::workloads::{self, technique_of, JobShape, Plan};

/// The daemon looks for queued jobs every 100 ms; think times are spread
/// over one such period so submissions sample every phase of it.
const THINK_PERIOD_MS: f64 = 100.0;

/// Once the service share of a run has lasted this many times the run's
/// `--seconds`, it submits no more jobs: when the service stalls on most
/// cells (README.md, "Known stalls") the fixed job count would otherwise
/// take minutes.
const OVERRUN: f64 = 2.5;

pub fn repo_root() -> PathBuf {
    benchmark_dir()
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

/// Where this package lives — fixed at build time, so the catalog, the
/// committed results and the scratch directory are found wherever the
/// benchmark is started from.
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Per-technique accounting of the simulation passes.
#[derive(Default, Clone)]
pub struct TechniqueRow {
    pub cells: u64,
    pub wall_ms: f64,
    pub events: u64,
}

/// Everything measured during a run, pooled over passes and jobs.
#[derive(Default)]
pub struct Samples {
    pub pass_wall_s: Vec<f64>,
    pub cell_ms: Vec<f64>,
    /// Small jobs that ended `Done`.
    pub small: Vec<JobTiming>,
    /// One entry per bulk job of a batch that ended `Done`: (cells,
    /// seconds the job had the service — from its submission, or the
    /// previous job's `JobDone` if it queued behind one, to its own
    /// `JobDone` — and Σ `CellPerf::wall_micros` in seconds).
    pub bulk: Vec<(usize, f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub by_technique: BTreeMap<String, TechniqueRow>,
    pub events_total: u64,
    pub peak_queue_depth: usize,
    pub queue_capacity: usize,
    /// Σ over failover cells of reachability-test walks plus probe walks
    /// requested, and the number of such cells.
    pub walks: u64,
    pub failover_cells: u64,
    /// Σ `TrafficSummary::{ticks, resteers}` and the cells that had one.
    pub traffic_ticks: u64,
    pub traffic_resteers: u64,
    pub traffic_cells: u64,
}

pub struct Harness {
    pub plan: Plan,
    /// Result digest of every cell, from the untimed first pass.
    pub reference: Vec<Vec<u64>>,
    pub samples: Samples,
    /// Seconds `load_catalog` took during this set-up.
    pub catalog_load_s: f64,
    pub catalog: Vec<Scenario>,
}

/// The service and its one closed-loop client.
pub struct Client {
    pub service: Service,
    think: ThinkTimes,
    small_cursor: usize,
    bulk_cursor: usize,
    // Dropped last: the service's files live in it.
    _scratch: TmpDir,
}

/// Seeded think times, evenly spread over [`THINK_PERIOD_MS`]: a
/// golden-ratio sequence from a seeded offset covers the period as a
/// uniform draw would, without a uniform draw's clumps, so the median of a
/// few dozen latencies does not depend on which phases happened to be hit.
struct ThinkTimes {
    phase: f64,
}

impl ThinkTimes {
    fn new(seed: u64) -> ThinkTimes {
        let rng = bobw_event::RngFactory::new(seed);
        ThinkTimes {
            phase: rng.stream("bench-think", 0).gen::<f64>(),
        }
    }

    fn next(&mut self) -> Duration {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        self.phase = (self.phase + GOLDEN).fract();
        Duration::from_secs_f64(self.phase * THINK_PERIOD_MS / 1e3)
    }
}

impl Harness {
    /// The simulation side's share of set-up: catalog load, every
    /// `Testbed::new`, and one untimed pass — the reference results, and
    /// the warm-up. That pass's operations count (a wrong result there is
    /// a wrong result); its timings do not.
    pub fn setup(name: &str, seed: u64, tracer: &mut Tracer) -> Result<Harness, String> {
        let op = tracer.op(|| format!("{name}/setup"));
        let at = Instant::now();
        let catalog = tracer.span("scenario", "load_catalog", op, || {
            workloads::load_catalog(&repo_root())
        })?;
        let catalog_load_s = at.elapsed().as_secs_f64();
        let plan = tracer.span("core", "build_testbeds", op, || {
            workloads::build(name, seed, &catalog)
        })?;
        let mut h = Harness {
            reference: Vec::new(),
            samples: Samples::default(),
            plan,
            catalog,
            catalog_load_s,
        };
        let outputs = h.run_pass(tracer, op);
        h.reference = outputs
            .iter()
            .map(|group| {
                group
                    .iter()
                    .map(|o| o.as_ref().map_or(0, result_digest))
                    .collect()
            })
            .collect();
        let mut failed = h.check_pass(&outputs);
        if h.plan.compare_figures {
            if let Err(e) = compare_with_committed_figures(&h.plan, &outputs) {
                eprintln!("benchmark: {e}");
                failed = h.plan.cells_per_pass() as u64;
            }
        }
        h.samples = Samples {
            attempted: h.plan.cells_per_pass() as u64,
            failed,
            ..Samples::default()
        };
        Ok(h)
    }

    /// Runs every cell of the grid once, serially on this thread, and
    /// returns the outputs (an `Err` cell as `None`). Only the timing of
    /// the calls is recorded here; [`Harness::timed_pass`] adds checks.
    fn run_pass(&mut self, tracer: &mut Tracer, op: usize) -> Vec<Vec<Option<CellOutput>>> {
        let pass = tracer.begin("bench", "pass", op);
        let at = Instant::now();
        let mut outputs = Vec::with_capacity(self.plan.groups.len());
        for group in &self.plan.groups {
            let mut row = Vec::with_capacity(group.cells.len());
            for cell in &group.cells {
                let span = tracer.begin("core", "execute_cell", op);
                let started = Instant::now();
                let out = execute_cell(&group.testbed, cell);
                self.samples
                    .cell_ms
                    .push(started.elapsed().as_secs_f64() * 1e3);
                tracer.end(span, out.is_err());
                if let Err(e) = &out {
                    eprintln!("benchmark: {} {cell:?}: {e}", group.label);
                }
                row.push(out.ok());
            }
            outputs.push(row);
        }
        self.samples.pass_wall_s.push(at.elapsed().as_secs_f64());
        tracer.end(pass, false);
        outputs
    }

    /// Checks one pass's outputs against the reference and the result
    /// invariants, and folds their counters into the samples. Returns the
    /// number of failed cells.
    fn check_pass(&mut self, outputs: &[Vec<Option<CellOutput>>]) -> u64 {
        let mut failed = 0;
        for (gi, row) in outputs.iter().enumerate() {
            let group = &self.plan.groups[gi];
            for (ci, out) in row.iter().enumerate() {
                let expected = self.reference.get(gi).map(|r| r[ci]);
                let ok = match out {
                    Some(out) => {
                        self.samples
                            .absorb(&group.cells[ci], out, &group.testbed.cfg);
                        invariants_hold(out) && expected.is_none_or(|d| d == result_digest(out))
                    }
                    None => false,
                };
                if !ok {
                    eprintln!(
                        "benchmark: check failed: {} {:?}",
                        group.label, group.cells[ci]
                    );
                    failed += 1;
                }
            }
        }
        failed
    }

    /// One timed, checked simulation pass.
    pub fn timed_pass(&mut self, tracer: &mut Tracer) -> Vec<Vec<Option<CellOutput>>> {
        let n = self.samples.pass_wall_s.len();
        let op = tracer.op(|| format!("{}/pass{n}", self.plan.name));
        let outputs = self.run_pass(tracer, op);
        self.samples.attempted += self.plan.cells_per_pass() as u64;
        self.samples.failed += self.check_pass(&outputs);
        outputs
    }

    /// Timed passes until `seconds` have gone by, at least two.
    pub fn run_passes(&mut self, seconds: f64, tracer: &mut Tracer) {
        let start = Instant::now();
        let mut done = 0;
        while done < 2 || start.elapsed().as_secs_f64() < seconds {
            self.timed_pass(tracer);
            done += 1;
        }
    }
}

impl Client {
    /// The service side's share of set-up: daemon, worker and client start
    /// and handshake, and one untimed small job (the worker's first
    /// testbed build), whose operations count and whose timings do not.
    pub fn start(h: &mut Harness, seed: u64, tracer: &mut Tracer) -> Result<Client, String> {
        let op = tracer.op(|| format!("{}/setup", h.plan.name));
        let scratch = TmpDir::create(&benchmark_dir())?;
        let service = tracer.span("serve", "start", op, || Service::start(scratch.path()))?;
        let mut client = Client {
            service,
            think: ThinkTimes::new(seed),
            small_cursor: 0,
            bulk_cursor: 0,
            _scratch: scratch,
        };
        let shape = client.next_small(&h.plan);
        client.run(h, &[shape], tracer);
        Ok(client)
    }

    pub fn stop(self) -> Result<(), String> {
        self.service.stop()
    }

    /// The next small job of the rotation. A stride coprime to every
    /// rotation length walks the whole rotation, interleaving techniques
    /// and configs.
    fn next_small(&mut self, plan: &Plan) -> JobShape {
        let shape = plan.small[self.small_cursor % plan.small.len()].clone();
        self.small_cursor += 7;
        shape
    }

    /// Runs one batch and counts its operations; returns the timings only
    /// if every job of the batch ended `Done` — a job that did not has no
    /// latency to report, only failed cells.
    fn run(
        &mut self,
        h: &mut Harness,
        batch: &[JobShape],
        tracer: &mut Tracer,
    ) -> Option<Vec<JobTiming>> {
        let timings = self.service.run_batch(&h.plan, &h.reference, batch, tracer);
        for t in &timings {
            h.samples.attempted += t.cells as u64;
            h.samples.failed += t.failed_cells as u64;
        }
        timings.iter().all(|t| t.done).then_some(timings)
    }

    /// Thinks, then runs the next small job of the rotation.
    pub fn small_job(&mut self, h: &mut Harness, tracer: &mut Tracer) {
        std::thread::sleep(self.think.next());
        let shape = self.next_small(&h.plan);
        if let Some(timings) = self.run(h, &[shape], tracer) {
            h.samples.small.extend(timings);
        }
    }

    /// Thinks, then runs the next bulk batch of the rotation.
    pub fn bulk_batch(&mut self, h: &mut Harness, tracer: &mut Tracer) {
        std::thread::sleep(self.think.next());
        let batch = h.plan.bulk[self.bulk_cursor % h.plan.bulk.len()].clone();
        self.bulk_cursor += 7;
        let Some(timings) = self.run(h, &batch, tracer) else {
            return;
        };
        let mut free_at = timings[0].submitted_at;
        for t in &timings {
            let had_service = t.done_at - free_at.max(t.submitted_at);
            free_at = t.done_at;
            h.samples
                .bulk
                .push((t.cells, had_service.as_secs_f64(), t.cells_wall_ms / 1e3));
        }
    }

    /// The service share of a run of `seconds`: the plan's fixed counts of
    /// small jobs and bulk batches, small jobs first.
    pub fn run_jobs(&mut self, h: &mut Harness, seconds: f64, tracer: &mut Tracer) {
        let (smalls, bulks) = h.plan.job_counts(seconds);
        let begun = Instant::now();
        // The first bulk batch is the worker's warm-up on the bulk configs
        // (testbed build, queue growth); it is checked, and timed only if
        // the run stalls before any other batch.
        self.bulk_batch(h, tracer);
        let warm_up = std::mem::take(&mut h.samples.bulk);
        let mut skipped = 0;
        for n in 0..smalls + bulks {
            if begun.elapsed().as_secs_f64() > OVERRUN * seconds {
                skipped += 1;
            } else if n < smalls {
                self.small_job(h, tracer);
            } else {
                self.bulk_batch(h, tracer);
            }
        }
        if h.samples.bulk.is_empty() {
            h.samples.bulk = warm_up;
        }
        if skipped > 0 {
            eprintln!(
                "benchmark: {}: the service stalled; {skipped} jobs or batches were not \
                 submitted after {:.0} s ({} small and {} bulk jobs measured)",
                h.plan.name,
                OVERRUN * seconds,
                h.samples.small.len(),
                h.samples.bulk.len()
            );
        }
    }
}

impl Samples {
    fn absorb(&mut self, cell: &CellSpec, out: &CellOutput, cfg: &bobw_core::ExperimentConfig) {
        let perf = out.perf();
        let row = self
            .by_technique
            .entry(technique_of(cell).to_string())
            .or_default();
        row.cells += 1;
        row.wall_ms += perf.wall_micros as f64 / 1e3;
        row.events += perf.events_processed;
        self.events_total += perf.events_processed;
        self.peak_queue_depth = self.peak_queue_depth.max(perf.peak_queue_depth);
        self.queue_capacity = self.queue_capacity.max(perf.queue_capacity);
        if let CellOutput::Failover(r, _) = out {
            self.failover_cells += 1;
            self.walks += r.num_selected as u64
                + r.num_controllable as u64 * u64::from(cfg.probe.probes_per_target());
            if let Some(t) = &r.traffic {
                self.traffic_cells += 1;
                self.traffic_ticks += u64::from(t.ticks);
                self.traffic_resteers += t.resteers;
            }
        }
    }
}

/// Result invariants that hold for every cell whatever the seed: the
/// target funnel narrows, every controllable target has an outcome, and
/// on load cells demand is conserved.
fn invariants_hold(out: &CellOutput) -> bool {
    let CellOutput::Failover(r, _) = out else {
        return true;
    };
    let funnel = r.num_controllable <= r.num_selected
        && r.num_selected <= r.num_candidates
        && r.outcomes.len() == r.num_controllable;
    let conserved = r.traffic.as_ref().is_none_or(|t| {
        let accounted = t.served + t.shed + t.scrubbed + t.unserved;
        (t.offered - accounted).abs() <= 1e-6 * t.offered.abs().max(1.0)
    });
    funnel && conserved
}

/// Folds a `paper-eval` pass as `repro_all` does and compares the
/// bytes with the committed `results/fig2.json`, `fig5.json` and
/// `table1.json`. The files live outside `benchmark/`, so a deliberate
/// re-freeze of the results needs no benchmark edit.
fn compare_with_committed_figures(
    plan: &Plan,
    outputs: &[Vec<Option<CellOutput>>],
) -> Result<(), String> {
    let group = &plan.groups[0];
    let sites = group.testbed.cdn.num_sites();
    let series = |technique: &Technique| -> Result<TechniqueSeries, String> {
        let results = workloads::results_of(group, &outputs[0], technique);
        if results.len() != sites {
            let name = technique.name();
            return Err(format!("{name}: {} of {sites} cells", results.len()));
        }
        Ok(TechniqueSeries::from_results(technique, &results))
    };
    let six = workloads::six_techniques();
    let fig2: Vec<TechniqueSeries> = six[..5].iter().map(&series).collect::<Result<_, _>>()?;
    let fig5: Vec<TechniqueSeries> = [&six[2], &six[5]]
        .into_iter()
        .map(&series)
        .collect::<Result<_, _>>()?;
    // `compute_table1_dispatch`'s fold over the pass's control cells.
    let mut table1 = Table1 {
        site_order: group
            .testbed
            .cdn
            .sites()
            .map(|s| group.testbed.cdn.name(s).to_string())
            .collect(),
        rows: BTreeMap::new(),
    };
    for out in outputs[0].iter().flatten() {
        if let CellOutput::Control(r, _) = out {
            let row = (r.frac_not_anycast_routed, r.steered.clone());
            table1.rows.insert(r.site_name.clone(), row);
        }
    }
    let results = repo_root().join("results");
    compare_json(&results.join("fig2.json"), &fig2)?;
    compare_json(&results.join("fig5.json"), &fig5)?;
    compare_json(&results.join("table1.json"), &table1)
}

fn compare_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let ours = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    let committed =
        std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if ours == committed {
        Ok(())
    } else {
        Err(format!(
            "{} differs from what this build computes",
            path.display()
        ))
    }
}
