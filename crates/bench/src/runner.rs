//! Deterministic parallel experiment runner.
//!
//! Every benchmark binary ultimately runs a grid of independent cells
//! ⟨technique, failed site, seed⟩. This module turns that grid into a work
//! queue fanned over `--jobs` OS threads while keeping the *output* exactly
//! what a sequential run would produce:
//!
//! - Cells are enumerated up front in a fixed order; workers pull cell
//!   *indices* from an atomic counter, so scheduling only decides *when* a
//!   cell runs, never *what* it computes.
//! - Each cell builds its own simulator from the shared immutable
//!   [`Testbed`] and derives its RNG streams from the cell's seed — no
//!   mutable state is shared between cells.
//! - Results are written back into a slot keyed by cell index, so
//!   aggregation order is independent of completion order.
//!
//! Together these guarantee that `--jobs N` produces byte-identical
//! `results/*.json` to `--jobs 1`. Host-dependent measurements (wall time)
//! are kept out of the result JSON entirely and flow through [`PerfLog`]
//! into `results/SUMMARY.md` instead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use bobw_core::{CellPerf, FailoverResult, Technique, Testbed};
use bobw_dist::{
    execute_cell, install_sigint_handler, AuthSecret, CellOutput, CellSpec, Coordinator,
    CoordinatorConfig, Endpoint,
};
use bobw_serve::{JobState, ServeClient};

/// Number of worker threads to use when `--jobs` is not given.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` over every item of `items`, fanned across up to `jobs` worker
/// threads, returning results in item order regardless of scheduling.
///
/// `jobs <= 1` runs serially on the caller's thread (no thread setup, same
/// results). Workers claim items through a shared atomic cursor, so an
/// expensive item does not hold up the queue behind it. If `f` panics the
/// panic is propagated to the caller once the remaining workers finish
/// their current items.
pub fn run_cells<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                // The receiver outlives the workers; send only fails if the
                // main thread is already unwinding, in which case stop.
                if tx.send((i, f(i, &items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        // A missing slot means a worker panicked mid-cell; scope exit will
        // re-raise that panic, so this expect is only a backstop.
        slots
            .into_iter()
            .map(|r| r.expect("worker finished without producing its cell"))
            .collect()
    })
}

/// Where experiment cells execute: on local worker threads or on remote
/// `bobw-worker` processes served by a socket [`Coordinator`].
///
/// Both variants run the *same* per-cell code ([`bobw_dist::execute_cell`])
/// over the *same* enumerated [`CellSpec`] list and merge results by cell
/// index, so `--dispatch local` and `--dispatch tcp://…` produce
/// byte-identical `results/*.json`.
pub enum Dispatch {
    /// Run cells on `jobs` threads in this process (the default).
    Local { jobs: usize },
    /// Serve cells to connected workers over TCP / Unix sockets. Boxed:
    /// the coordinator is much larger than the other variants.
    Serve { coordinator: Box<Coordinator> },
    /// Submit each batch as a job to a persistent `bobw serve` daemon
    /// (`--dispatch daemon:tcp://…`) and stream the results back. The
    /// daemon's worker fleet stays warm between bench invocations.
    Daemon { client: ServeClient, label: String },
}

impl Dispatch {
    /// Local execution on `jobs` worker threads.
    pub fn local(jobs: usize) -> Dispatch {
        Dispatch::Local { jobs: jobs.max(1) }
    }

    /// Binds a coordinator on `url` (`tcp://host:port` or `unix://path`)
    /// and serves cells to any `bobw-worker` that connects. Also installs
    /// the SIGINT handler so Ctrl-C drains workers instead of killing them
    /// mid-cell.
    pub fn serve(url: &str) -> Result<Dispatch, String> {
        let ep = Endpoint::parse(url)?;
        let coordinator = Coordinator::bind(&ep, CoordinatorConfig::default())
            .map_err(|e| format!("cannot bind {ep}: {e}"))?;
        install_sigint_handler();
        Ok(Dispatch::Serve {
            coordinator: Box::new(coordinator),
        })
    }

    /// Connects to a persistent `bobw serve` daemon at `url` and submits
    /// each batch as a job. Authenticates with `BOBW_SECRET` when set.
    pub fn daemon(url: &str) -> Result<Dispatch, String> {
        let ep = Endpoint::parse(url)?;
        let secret = AuthSecret::from_env();
        let label = format!("bench-{}", std::process::id());
        let client = ServeClient::connect(&ep, &label, secret.as_ref())?;
        Ok(Dispatch::Daemon { client, label })
    }

    /// Parses a `--dispatch` value: `local`, a
    /// coordinator bind URL (`tcp://…`/`unix://…`), or `daemon:<url>` for
    /// a persistent service.
    pub fn from_arg(arg: &str, jobs: usize) -> Result<Dispatch, String> {
        if arg == "local" || arg.is_empty() {
            Ok(Dispatch::local(jobs))
        } else if let Some(url) = arg.strip_prefix("daemon:") {
            Dispatch::daemon(url)
        } else {
            Dispatch::serve(arg)
        }
    }

    /// The endpoint workers should connect to, if serving.
    pub fn endpoint(&self) -> Option<&Endpoint> {
        match self {
            Dispatch::Local { .. } | Dispatch::Daemon { .. } => None,
            Dispatch::Serve { coordinator } => coordinator.endpoint(),
        }
    }

    /// Worker count for [`PerfLog::jobs`]: local threads, or currently
    /// connected remote workers (at least 1 — workers may still be
    /// connecting when a batch starts).
    pub fn workers(&self) -> usize {
        match self {
            Dispatch::Local { jobs } => *jobs,
            Dispatch::Serve { coordinator } => coordinator.num_workers().max(1),
            // The daemon's fleet is its own business; perf logs record the
            // submission as one logical worker.
            Dispatch::Daemon { .. } => 1,
        }
    }

    /// Executes one batch of cells, returning outputs in cell order.
    pub fn run(
        &mut self,
        testbed: &Testbed,
        cells: &[CellSpec],
    ) -> Result<Vec<CellOutput>, String> {
        match self {
            Dispatch::Local { jobs } => {
                let jobs = *jobs;
                run_cells(cells, jobs, |_, cell| execute_cell(testbed, cell))
                    .into_iter()
                    .collect()
            }
            Dispatch::Serve { coordinator } => coordinator.run_batch(&testbed.cfg, cells),
            Dispatch::Daemon { client, label } => {
                let job_id = client.submit_raw(label, &testbed.cfg, cells)?;
                let mut slots: Vec<Option<CellOutput>> = vec![None; cells.len()];
                let (state, error) = client.watch(job_id, |index, output| {
                    if let Some(slot) = slots.get_mut(index as usize) {
                        *slot = Some(output);
                    }
                })?;
                if state != JobState::Done {
                    return Err(
                        error.unwrap_or_else(|| format!("job {job_id} ended {}", state.as_str()))
                    );
                }
                slots
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| s.ok_or_else(|| format!("job {job_id}: cell {i} never streamed")))
                    .collect()
            }
        }
    }

    /// Releases the dispatcher; a serving coordinator tells its workers to
    /// shut down. Call once at the end of a binary so remote workers exit
    /// instead of waiting for more batches. A daemon connection just
    /// closes — the service and its fleet stay up for the next run.
    pub fn finish(self) {
        if let Dispatch::Serve { coordinator } = self {
            coordinator.shutdown();
        }
    }
}

/// Unwraps a dispatch result or exits with a diagnostic — batch errors
/// (interrupt drain, every worker gone, a cell failing repeatedly) are
/// operational conditions, not bugs, so bench binaries report them without
/// a panic backtrace.
pub fn run_or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// Perf counters for one executed cell, keyed by its technique (or the
/// pseudo technique of a control / appendix-study cell).
#[derive(Debug, Clone)]
pub struct CellRecord {
    pub technique: String,
    pub perf: CellPerf,
}

/// Perf trajectory of one or more runner batches: every cell's counters
/// plus the batch-level wall time and worker count. Summarized in
/// `results/SUMMARY.md` — never written into `results/*.json`, which must
/// stay byte-identical across `--jobs`.
#[derive(Debug, Clone, Default)]
pub struct PerfLog {
    /// Worker threads the batches ran with.
    pub jobs: usize,
    /// Wall time of the batches end to end (elapsed, not summed per cell).
    pub elapsed_micros: u64,
    pub cells: Vec<CellRecord>,
}

impl PerfLog {
    pub fn new(jobs: usize) -> PerfLog {
        PerfLog {
            jobs,
            ..PerfLog::default()
        }
    }

    /// Appends one executed cell's counters.
    pub fn push(&mut self, technique: impl Into<String>, perf: CellPerf) {
        self.cells.push(CellRecord {
            technique: technique.into(),
            perf,
        });
    }

    /// Folds another batch into this log (cells append, elapsed adds,
    /// worker count takes the max — distributed workers may still be
    /// attaching when the first batch starts).
    pub fn merge(&mut self, other: PerfLog) {
        self.jobs = self.jobs.max(other.jobs);
        self.elapsed_micros += other.elapsed_micros;
        self.cells.extend(other.cells);
    }

    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.perf.events_processed).sum()
    }

    pub fn max_queue_depth(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.perf.peak_queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// Sum of per-cell wall times. The ratio against `elapsed_micros` is
    /// the mean number of busy workers (occupancy) — on an unloaded
    /// multicore host that approximates the achieved speedup, but under
    /// oversubscription per-cell wall times inflate with timeslicing, so
    /// it must not be reported as wall-clock speedup.
    pub fn total_cell_micros(&self) -> u64 {
        self.cells.iter().map(|c| c.perf.wall_micros).sum()
    }

    /// Markdown section for `results/SUMMARY.md`: aggregate line plus a
    /// per-technique table (per-cell rows would swamp the summary).
    pub fn markdown_section(&self) -> String {
        use std::collections::BTreeMap;
        use std::fmt::Write as _;

        let mut md = String::new();
        let _ = writeln!(md, "## Runner performance\n");
        let elapsed_s = self.elapsed_micros as f64 / 1e6;
        let cell_s = self.total_cell_micros() as f64 / 1e6;
        let _ = writeln!(
            md,
            "{} cells over {} worker(s): {:.1}s elapsed, {:.1}s of cell work \
             ({:.2}x worker occupancy), {} events processed, peak queue depth {}.\n",
            self.cells.len(),
            self.jobs,
            elapsed_s,
            cell_s,
            if elapsed_s > 0.0 {
                cell_s / elapsed_s
            } else {
                1.0
            },
            self.total_events(),
            self.max_queue_depth(),
        );
        let _ = writeln!(
            md,
            "| technique | cells | events | peak queue | cell wall (s) |"
        );
        let _ = writeln!(md, "|---|---|---|---|---|");
        let mut by_tech: BTreeMap<&str, (usize, u64, usize, u64)> = BTreeMap::new();
        for c in &self.cells {
            let e = by_tech.entry(&c.technique).or_default();
            e.0 += 1;
            e.1 += c.perf.events_processed;
            e.2 = e.2.max(c.perf.peak_queue_depth);
            e.3 += c.perf.wall_micros;
        }
        for (tech, (cells, events, peak, micros)) in by_tech {
            let _ = writeln!(
                md,
                "| {tech} | {cells} | {events} | {peak} | {:.2} |",
                micros as f64 / 1e6
            );
        }
        md
    }
}

/// Runs every ⟨technique, failed site⟩ cell of the cross product of
/// `techniques` and `sites` through one shared work queue, returning
/// per-technique result vectors in `sites` order (exactly what a nested
/// sequential loop would build) plus the perf log of the whole grid.
/// `sites` is usually [`grid_sites`].
///
/// Pooling all techniques into a single queue keeps the workers busy
/// across technique boundaries: a slow technique's last sites overlap with
/// the next technique's first sites instead of serializing on a barrier.
///
/// The cell enumeration and index-ordered merge are the same whether
/// `dispatch` runs cells on local threads or on remote workers.
pub fn run_failover_grid_dispatch(
    testbed: &Testbed,
    techniques: &[Technique],
    sites: &[&str],
    dispatch: &mut Dispatch,
) -> Result<(Vec<Vec<FailoverResult>>, PerfLog), String> {
    let cells: Vec<CellSpec> = techniques
        .iter()
        .flat_map(|t| {
            sites.iter().map(move |s| CellSpec::Failover {
                technique: t.name(),
                site: s.to_string(),
            })
        })
        .collect();
    let started = std::time::Instant::now();
    let outputs = dispatch.run(testbed, &cells)?;
    let mut log = PerfLog::new(dispatch.workers());
    log.elapsed_micros = started.elapsed().as_micros() as u64;
    let mut grouped: Vec<Vec<FailoverResult>> = techniques.iter().map(|_| Vec::new()).collect();
    for (i, out) in outputs.into_iter().enumerate() {
        let ti = i / sites.len().max(1);
        let (result, perf) = match out {
            CellOutput::Failover(result, perf) => (result, perf),
            CellOutput::Control(..) => {
                return Err(format!("cell {i}: control output for a failover cell"));
            }
        };
        log.push(techniques[ti].name(), perf);
        grouped[ti].push(result);
    }
    Ok((grouped, log))
}

/// The sites a grid on `testbed` fails: the one its scenario pins, else
/// every site in deployment order (the paper grid, a `"$site"` scenario).
pub fn grid_sites(testbed: &Testbed) -> Vec<&str> {
    match &testbed.cfg.scenario {
        Some(s) if s.site != "$site" => vec![s.site.as_str()],
        _ => testbed.cdn.sites().map(|s| testbed.cdn.name(s)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_core::ExperimentConfig;

    #[test]
    fn run_cells_preserves_item_order() {
        let items: Vec<u64> = (0..37).collect();
        // Make early items slow so completion order differs from item order.
        let f = |_i: usize, &x: &u64| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20 - 4 * x));
            }
            x * x
        };
        let serial = run_cells(&items, 1, f);
        let parallel = run_cells(&items, 8, f);
        assert_eq!(serial, parallel);
        assert_eq!(serial[6], 36);
    }

    #[test]
    fn run_cells_handles_more_jobs_than_items() {
        let items = [1u32, 2];
        assert_eq!(run_cells(&items, 64, |_, &x| x + 1), vec![2, 3]);
        let empty: [u32; 0] = [];
        assert!(run_cells(&empty, 4, |_, &x| x).is_empty());
    }

    #[test]
    fn grid_matches_sequential_loop() {
        let mut cfg = ExperimentConfig::quick(7);
        cfg.targets_per_site = 12;
        cfg.probe.duration = bobw_event::SimDuration::from_secs(45);
        let tb = Testbed::new(cfg);
        let techniques = [Technique::Anycast, Technique::ReactiveAnycast];
        let sites = grid_sites(&tb);
        let (par, log) =
            run_failover_grid_dispatch(&tb, &techniques, &sites, &mut Dispatch::local(4)).unwrap();
        let (seq, _) =
            run_failover_grid_dispatch(&tb, &techniques, &sites, &mut Dispatch::local(1)).unwrap();
        assert_eq!(par.len(), 2);
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.len(), tb.cdn.num_sites());
            for (a, b) in p.iter().zip(s) {
                assert_eq!(a.site_name, b.site_name);
                assert_eq!(a.outcomes, b.outcomes);
                assert_eq!(a.num_controllable, b.num_controllable);
            }
        }
        assert_eq!(log.cells.len(), 2 * tb.cdn.num_sites());
        assert!(log.total_events() > 0);
        assert!(log.max_queue_depth() > 0);
        assert!(!log.markdown_section().is_empty());
    }
}
