//! The service path, hosted in-process: `daemon::start` with a state
//! directory, one `run_worker` with one executor thread, and one
//! `ServeClient`, over a unix socket with open auth. The harness thread is
//! the closed-loop client; the worker's executor is the only other thread
//! that is ever busy, so a run never needs more than two cores.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bobw_dist::{run_worker, CellOutput, Endpoint, WorkerConfig};
use bobw_serve::{daemon, DaemonHandle, JobState, ServeClient, ServeConfig};

use crate::stats::result_digest;
use crate::trace::{Kind, Tracer};
use crate::workloads::{JobShape, Plan};

/// A job that has not finished this long after the client turned to it
/// ends the run as failed. Generous on purpose: when the host is
/// contended, `dist::worker`'s heartbeat guard can lose its wake-up on
/// every short cell and then each cell costs a 2 s heartbeat interval, so
/// a healthy 20-cell job can take 40 s (README.md, "Known stalls").
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Scratch directory under `benchmark/out/`, removed when dropped — also
/// when a check fails or the harness panics.
pub struct TmpDir(PathBuf);

impl TmpDir {
    pub fn create(benchmark_dir: &Path) -> Result<TmpDir, String> {
        let path = benchmark_dir
            .join("out")
            .join(format!("tmp-{}", std::process::id()));
        // A leftover from a killed run with a recycled pid is not ours to keep.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TmpDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Ends the process when a job outlives [`JOB_TIMEOUT`]: `ServeClient`
/// reads block without a timeout, so a lost job would otherwise hang the
/// run until the caller kills it, leaving the scratch directory behind.
struct Watchdog {
    /// Milliseconds since `origin` at which the job in flight times out;
    /// 0 = nothing in flight. Publishes no other data: `Relaxed`.
    deadline_ms: Arc<AtomicU64>,
    origin: Instant,
    stop: Option<mpsc::Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    fn start(scratch: PathBuf, daemon: Endpoint) -> Watchdog {
        let deadline_ms = Arc::new(AtomicU64::new(0));
        let origin = Instant::now();
        let (stop, stopped) = mpsc::channel::<()>();
        let shared = Arc::clone(&deadline_ms);
        let thread = std::thread::spawn(move || {
            // Wakes every half second until the sender is dropped.
            while let Err(mpsc::RecvTimeoutError::Timeout) =
                stopped.recv_timeout(Duration::from_millis(500))
            {
                let deadline = shared.load(Ordering::Relaxed);
                if deadline != 0 && origin.elapsed().as_millis() as u64 > deadline {
                    eprintln!(
                        "benchmark: a job did not finish within {} s; giving up",
                        JOB_TIMEOUT.as_secs()
                    );
                    // What the daemon itself says about the lost job.
                    if let Ok(mut c) = ServeClient::connect(&daemon, "bench-watchdog", None) {
                        eprintln!("benchmark: daemon status: {:?}", c.status_json());
                        eprintln!("benchmark: daemon jobs: {:?}", c.jobs());
                    }
                    let _ = std::fs::remove_dir_all(&scratch);
                    std::process::exit(3);
                }
            }
        });
        Watchdog {
            deadline_ms,
            origin,
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    fn arm(&self) {
        let at = self.origin.elapsed() + JOB_TIMEOUT;
        self.deadline_ms
            .store(at.as_millis() as u64, Ordering::Relaxed);
    }

    fn disarm(&self) {
        self.deadline_ms.store(0, Ordering::Relaxed);
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// What the client saw of one job.
pub struct JobTiming {
    /// The job ended `Done`; the timings below mean nothing otherwise.
    pub done: bool,
    pub cells: usize,
    /// Cells that were wrong, missing, or lost with a job that did not end
    /// `Done`.
    pub failed_cells: usize,
    pub submitted_at: Instant,
    pub done_at: Instant,
    pub submit_rtt_ms: f64,
    /// Submit → first streamed cell.
    pub first_cell_ms: f64,
    /// Submit → `JobDone`.
    pub job_ms: f64,
    /// Last streamed cell → `JobDone`.
    pub done_signal_ms: f64,
    /// `CellPerf::wall_micros` of the first streamed cell, and of all.
    pub first_cell_wall_ms: f64,
    pub cells_wall_ms: f64,
}

pub struct Service {
    client: ServeClient,
    daemon: Option<DaemonHandle>,
    worker: Option<JoinHandle<Result<u64, String>>>,
    watchdog: Watchdog,
    state_dir: PathBuf,
    jobs_submitted: u64,
}

impl Service {
    /// Starts daemon, worker and client under `scratch` and returns once
    /// the client's handshake is done.
    pub fn start(scratch: &Path) -> Result<Service, String> {
        let state_dir = scratch.join("state");
        let endpoint = Endpoint::Unix(socket_path(&scratch.join("d.sock")));
        let mut cfg = ServeConfig::new(endpoint);
        cfg.state_dir = Some(state_dir.clone());
        // Open auth, whatever BOBW_SECRET the caller's shell carries.
        cfg.secret = None;
        let daemon = daemon::start(cfg).map_err(|e| format!("daemon start: {e}"))?;

        let mut wc = WorkerConfig::new(daemon.endpoint().clone());
        wc.threads = 1;
        wc.name = "bench-worker".into();
        wc.secret = None;
        let worker = std::thread::spawn(move || run_worker(&wc));

        let client = ServeClient::connect(daemon.endpoint(), "bench-client", None)?;
        Ok(Service {
            client,
            watchdog: Watchdog::start(scratch.to_path_buf(), daemon.endpoint().clone()),
            daemon: Some(daemon),
            worker: Some(worker),
            state_dir,
            jobs_submitted: 0,
        })
    }

    /// Submits the jobs of `batch` back to back, then watches each to its
    /// end, checking every streamed cell against `reference`.
    pub fn run_batch(
        &mut self,
        plan: &Plan,
        reference: &[Vec<u64>],
        batch: &[JobShape],
        tracer: &mut Tracer,
    ) -> Vec<JobTiming> {
        self.watchdog.arm();
        let mut submitted = Vec::with_capacity(batch.len());
        for shape in batch {
            let group = &plan.groups[shape.group];
            let op = tracer.op(|| format!("{}/job{}", plan.name, self.jobs_submitted));
            let name = format!("bench-{}", self.jobs_submitted);
            self.jobs_submitted += 1;
            let span = tracer.begin("serve", "submit_raw", op);
            let at = Instant::now();
            let id = self.client.submit_raw(
                &name,
                &group.testbed.cfg,
                &group.cells[shape.cells.clone()],
            );
            let rtt = at.elapsed();
            tracer.end(span, id.is_err());
            submitted.push((shape, op, at, rtt, id));
        }
        let timings = submitted
            .into_iter()
            .map(|(shape, op, at, rtt, id)| {
                let cells = shape.cells.len();
                let mut t = JobTiming {
                    done: false,
                    cells,
                    failed_cells: cells,
                    submitted_at: at,
                    done_at: at,
                    submit_rtt_ms: ms(rtt),
                    first_cell_ms: 0.0,
                    job_ms: 0.0,
                    done_signal_ms: 0.0,
                    first_cell_wall_ms: 0.0,
                    cells_wall_ms: 0.0,
                };
                let Ok(id) = id else { return t };
                self.watchdog.arm();
                let expected = &reference[shape.group][shape.cells.clone()];
                let mut streamed: Vec<(u64, CellOutput)> = Vec::with_capacity(cells);
                let mut first: Option<Instant> = None;
                let mut last = at;
                let watch = tracer.begin("serve", "watch", op);
                // The callback only takes the cell and the time: checking
                // it here would keep this thread busy while the worker
                // starts the next cell, and on two cores that is enough
                // to provoke the worker's heartbeat stall (README.md).
                let outcome = self.client.watch(id, |index, output: CellOutput| {
                    let cell = tracer.begin("serve", "watch_cell", op);
                    let now = Instant::now();
                    if first.is_none() {
                        first = Some(now);
                        tracer.record("serve", "wait_first_cell", Kind::Wait, op, at, now);
                    }
                    last = now;
                    streamed.push((index, output));
                    tracer.end(cell, false);
                });
                let done = Instant::now();
                t.done = matches!(outcome, Ok((JobState::Done, _)));
                tracer.record("serve", "wait_done_signal", Kind::Wait, op, last, done);
                tracer.end(watch, !t.done);

                let check = tracer.begin("bench", "check_job", op);
                let mut seen = vec![false; cells];
                for (k, (index, output)) in streamed.iter().enumerate() {
                    let wall_ms = output.perf().wall_micros as f64 / 1e3;
                    if k == 0 {
                        t.first_cell_wall_ms = wall_ms;
                    }
                    t.cells_wall_ms += wall_ms;
                    // A cell streamed twice is counted once.
                    if let Some(slot) = seen.get_mut(*index as usize) {
                        *slot = expected[*index as usize] == result_digest(output);
                    }
                }
                if t.done {
                    t.failed_cells = seen.iter().filter(|ok| !**ok).count();
                }
                tracer.end(check, t.failed_cells > 0);
                t.done_at = done;
                t.first_cell_ms = ms(first.unwrap_or(done) - at);
                t.job_ms = ms(done - at);
                t.done_signal_ms = ms(done - last);
                t
            })
            .collect();
        self.watchdog.disarm();
        timings
    }

    /// Round trip of a `Status` request, and the status JSON.
    pub fn status(&mut self, tracer: &mut Tracer) -> Result<(f64, String), String> {
        let at = Instant::now();
        let json = tracer.span("serve", "status", 0, || self.client.status_json())?;
        Ok((ms(at.elapsed()), json))
    }

    pub fn jobs_submitted(&self) -> u64 {
        self.jobs_submitted
    }

    /// Bytes the daemon has persisted under its state directory.
    pub fn persisted_bytes(&self) -> u64 {
        std::fs::read_dir(&self.state_dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Quits the daemon and waits for its threads and the worker to end.
    pub fn stop(mut self) -> Result<(), String> {
        self.client.quit()?;
        if let Some(d) = self.daemon.take() {
            d.join();
        }
        match self.worker.take().map(JoinHandle::join) {
            Some(Ok(Ok(_))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("worker: {e}")),
            Some(Err(_)) => Err("worker thread panicked".into()),
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `sun_path` holds 108 bytes. The scratch directory is found from
/// `CARGO_MANIFEST_DIR`, so its absolute path is as long as the checkout's;
/// when that is too long, name the same file relative to the working
/// directory if it lies beneath it.
fn socket_path(absolute: &Path) -> String {
    let text = absolute.to_string_lossy().into_owned();
    if text.len() < 100 {
        return text;
    }
    std::env::current_dir()
        .ok()
        .and_then(|cwd| absolute.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .map(|rel| rel.to_string_lossy().into_owned())
        .unwrap_or(text)
}
