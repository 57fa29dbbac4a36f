//! The `bobw serve` daemon: one listener, two populations.
//!
//! A single [`Endpoint`] accepts both *workers* (which speak the
//! unchanged `bobw_dist` protocol and are handed to the coordinator's
//! [`WorkerPort`]) and *clients* (which submit jobs, watch results, and
//! query the metrics plane). The first frame of every connection is the
//! coordinator's [`Challenge`]; the peer's `Greeting` then classifies it.
//!
//! One scheduler thread owns a detached [`Coordinator`] and drains the
//! job queue FIFO. Each completed cell lands in an index-keyed slot of
//! its job (preserving the byte-identity contract with local runs) and is
//! appended to a completion log that `Watch` streams replay under a
//! condvar — a watcher attached late sees every cell exactly once, in
//! completion order.
//!
//! Nothing on the job path polls. A submission (or `Quit`) wakes the idle
//! scheduler through [`WorkerPort::wake`]; watchers park on the table
//! condvar under a predicate, and whoever adds a cell, ends a job or
//! raises `quit` notifies after doing so under the table lock. The
//! configured tick only bounds how late an expired lease or a Ctrl-C is
//! noticed.
//!
//! With `--state-dir`, job metadata, the submitted batch, and completed
//! results are persisted as they change — always with the table lock
//! released; a restarted daemon lists done jobs with their results and
//! re-queues jobs that were interrupted mid-flight.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bobw_core::ExperimentConfig;
use bobw_dist::wire::{decode_exact, encode_vec, recv, send};
use bobw_dist::{
    interrupt, vet_client, AuthSecret, CellOutput, CellSpec, Conn, Coordinator, CoordinatorConfig,
    Endpoint, Greeting, HelloReply, WorkerPort, WorkerStat,
};
use serde::Serialize;

use crate::job::{expand_spec, ExpandedJob, JobRow};
use crate::proto::{ClientReply, ClientRequest, JobState, JobTask};

/// How the daemon runs. [`ServeConfig::new`] picks the defaults the CLI
/// documents: secret from `BOBW_SECRET`, catalog `scenarios/`, the
/// coordinator's stock lease timing.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Where to listen (workers and clients share it).
    pub listen: Endpoint,
    /// Persist job state here; `None` = in-memory only.
    pub state_dir: Option<PathBuf>,
    /// Shared handshake secret; `None` = open mode.
    pub secret: Option<AuthSecret>,
    /// Scenario catalog for spec expansion.
    pub catalog: PathBuf,
    pub lease_timeout: Duration,
    /// See [`CoordinatorConfig::tick`]; also how long an idle daemon goes
    /// between looks at the Ctrl-C flag. Job pickup never waits for it.
    pub tick: Duration,
}

impl ServeConfig {
    pub fn new(listen: Endpoint) -> ServeConfig {
        let stock = CoordinatorConfig::default();
        ServeConfig {
            listen,
            state_dir: None,
            secret: stock.secret.clone(),
            catalog: PathBuf::from(bobw_scenario::CATALOG_DIR),
            lease_timeout: stock.lease_timeout,
            tick: stock.tick,
        }
    }
}

/// The metrics plane: what `bobw serve --status` prints.
#[derive(Debug, Clone, Serialize)]
pub struct StatusSnapshot {
    pub uptime_s: f64,
    pub jobs_queued: usize,
    pub jobs_running: usize,
    pub jobs_done: usize,
    pub jobs_failed: usize,
    /// Cells completed since the daemon started (reloaded results do not
    /// count — this is live throughput, not history).
    pub cells_done: u64,
    /// Cells still owed across queued + running jobs.
    pub cells_pending: usize,
    pub cells_per_sec: f64,
    pub workers: Vec<WorkerStat>,
}

/// One job and everything a watcher needs to replay it.
struct Job {
    name: String,
    state: JobState,
    error: Option<String>,
    config: ExperimentConfig,
    cells: Vec<CellSpec>,
    /// Index-keyed result slots — the determinism contract.
    outputs: Vec<Option<CellOutput>>,
    /// Cell indices in completion order; watchers replay this.
    completion_log: Vec<usize>,
}

impl Job {
    fn row(&self, id: u64) -> JobRow {
        JobRow {
            id,
            name: self.name.clone(),
            state: self.state.as_str().to_string(),
            cells_total: self.cells.len(),
            cells_done: self.completion_log.len(),
            error: self.error.clone(),
        }
    }
}

#[derive(Default)]
struct Table {
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
}

struct Shared {
    table: Mutex<Table>,
    /// Signals completed cells, terminal states and `quit` to watchers.
    /// They wait without a timeout, so every writer of those notifies
    /// after touching them under the `table` lock.
    cv: Condvar,
    quit: AtomicBool,
    /// Classifies worker connections, and wakes the idle scheduler.
    port: WorkerPort,
    started: Instant,
    cells_completed: AtomicU64,
    worker_stats: Arc<Mutex<Vec<WorkerStat>>>,
    secret: Option<AuthSecret>,
    catalog: PathBuf,
    state_dir: Option<PathBuf>,
    /// The bound address (real port for `tcp://…:0`), used to poke the
    /// accept loop awake on shutdown.
    local: Endpoint,
}

impl Shared {
    /// Raises `quit` so that no waiter can miss it: watchers read the flag
    /// in their wait predicate with the table locked, so passing through
    /// the lock between the store and the notify closes the window in
    /// which one has checked but not yet parked.
    fn request_quit(&self) {
        self.quit.store(true, Ordering::SeqCst);
        drop(self.table.lock().unwrap());
        self.cv.notify_all();
        self.port.wake();
    }
}

/// A started daemon: its bound endpoint plus the supervisor thread.
pub struct DaemonHandle {
    endpoint: Endpoint,
    thread: thread::JoinHandle<()>,
}

impl DaemonHandle {
    /// The endpoint the daemon actually bound (with the kernel-assigned
    /// port when the config asked for `:0`).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Blocks until the daemon shuts down (client `Quit` or interrupt).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Starts the daemon in background threads and returns once the listener
/// is bound.
pub fn start(cfg: ServeConfig) -> io::Result<DaemonHandle> {
    // A previous daemon in this process may have quit via the interrupt
    // flag; a fresh daemon must not inherit it.
    interrupt::reset_interrupt();
    let listener = cfg.listen.bind()?;
    let local = listener.local_endpoint()?;

    let worker_stats = Arc::new(Mutex::new(Vec::new()));
    let (mut coordinator, port) = Coordinator::detached(CoordinatorConfig {
        lease_timeout: cfg.lease_timeout,
        tick: cfg.tick,
        secret: cfg.secret.clone(),
    });
    coordinator.set_stats_sink(worker_stats.clone());

    let mut table = Table::default();
    if let Some(dir) = &cfg.state_dir {
        std::fs::create_dir_all(dir)?;
        load_state(dir, &mut table);
    }

    let shared = Arc::new(Shared {
        table: Mutex::new(table),
        cv: Condvar::new(),
        quit: AtomicBool::new(false),
        port,
        started: Instant::now(),
        cells_completed: AtomicU64::new(0),
        worker_stats,
        secret: cfg.secret,
        catalog: cfg.catalog,
        state_dir: cfg.state_dir,
        local: local.clone(),
    });

    let scheduler = {
        let shared = shared.clone();
        thread::spawn(move || scheduler_loop(coordinator, &shared, cfg.tick))
    };

    let endpoint = local.clone();
    let supervisor = thread::spawn(move || {
        loop {
            let conn = match listener.accept() {
                Ok(c) => c,
                Err(_) => break,
            };
            if shared.quit.load(Ordering::SeqCst) {
                break;
            }
            let shared = shared.clone();
            thread::spawn(move || handle_connection(conn, &shared));
        }
        // A daemon that no longer accepts is going down: the scheduler and
        // any parked watcher must hear of it.
        shared.request_quit();
        let _ = scheduler.join();
    });

    Ok(DaemonHandle {
        endpoint,
        thread: supervisor,
    })
}

/// [`start`] + [`DaemonHandle::join`]: runs the daemon on this thread
/// until a client asks it to quit or the process is interrupted.
pub fn run(cfg: ServeConfig) -> io::Result<Endpoint> {
    let handle = start(cfg)?;
    let endpoint = handle.endpoint().clone();
    handle.join();
    Ok(endpoint)
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

fn scheduler_loop(mut coordinator: Coordinator, shared: &Shared, tick: Duration) {
    // The two ways down: a client's `Quit`, and Ctrl-C — which an idle
    // daemon has nobody else to notice for it.
    while !(shared.quit.load(Ordering::SeqCst) || interrupt::interrupted()) {
        // FIFO: lowest queued job id first.
        let next = {
            let mut table = shared.table.lock().unwrap();
            table
                .jobs
                .iter_mut()
                .find(|(_, j)| j.state == JobState::Queued)
                .map(|(&id, job)| {
                    job.state = JobState::Running;
                    (id, job.row(id), job.config.clone(), job.cells.clone())
                })
        };
        let Some((id, row, config, cells)) = next else {
            // Idle: keep worker lifecycle (handshakes, disconnects,
            // stragglers) moving until a submission or `Quit` wakes us.
            coordinator.pump_events(tick);
            continue;
        };
        persist_meta(shared, &row);

        let result = coordinator.run_batch_with(&config, &cells, |index, output| {
            let mut table = shared.table.lock().unwrap();
            if let Some(job) = table.jobs.get_mut(&id) {
                job.outputs[index] = Some(output.clone());
                job.completion_log.push(index);
            }
            drop(table);
            shared.cells_completed.fetch_add(1, Ordering::Relaxed);
            shared.cv.notify_all();
        });

        // Results reach the disk before the job reads `done` anywhere; the
        // metadata follows with the lock released. A crash in between
        // leaves a `running` file, which `load_state` re-queues.
        if let Ok(outputs) = &result {
            persist_results(shared, id, outputs);
        }
        let unfinished =
            result.is_err() && (interrupt::interrupted() || shared.quit.load(Ordering::SeqCst));
        let row = {
            let mut table = shared.table.lock().unwrap();
            let job = table.jobs.get_mut(&id).expect("running job exists");
            match result {
                Ok(_) => {
                    job.state = JobState::Done;
                    job.error = None;
                }
                // Interrupted mid-batch: the job is not failed, it is
                // unfinished. Re-queue it so a restarted daemon (or the
                // persisted state) replays it from scratch.
                Err(e) if unfinished => {
                    job.state = JobState::Queued;
                    job.error = Some(e);
                    job.outputs = vec![None; job.cells.len()];
                    job.completion_log.clear();
                }
                Err(e) => {
                    job.state = JobState::Failed;
                    job.error = Some(e);
                }
            }
            job.row(id)
        };
        persist_meta(shared, &row);
        if unfinished {
            break;
        }
        shared.cv.notify_all();
    }
    shared.request_quit();
    // Drain the worker fleet so `run_worker` loops return cleanly.
    coordinator.shutdown();
    // Unblock the accept loop in case shutdown came from an interrupt
    // rather than a client Quit (which pokes it itself).
    let _ = shared.local.connect();
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

fn handle_connection(conn: Conn, shared: &Shared) {
    conn.set_nodelay();
    let Ok(mut writer) = conn.try_clone() else {
        return;
    };
    let mut reader = conn;
    let Ok(nonce) = shared.port.send_challenge(&mut writer) else {
        return;
    };
    match recv::<_, Greeting>(&mut reader) {
        Ok(Some(Greeting::Worker(hello))) => {
            shared.port.adopt_worker(reader, writer, hello, &nonce)
        }
        Ok(Some(Greeting::Client(hello))) => {
            if let Err(reason) = vet_client(&hello, &nonce, shared.secret.as_ref()) {
                eprintln!("[serve] rejecting client {}: {reason}", hello.client_name);
                let _ = send(&mut writer, &HelloReply::Rejected { reason });
                return;
            }
            if send(&mut writer, &HelloReply::Welcome).is_err() {
                return;
            }
            serve_client(&mut reader, &mut writer, shared);
        }
        // EOF or garbage: drop the connection silently (port scanners,
        // the shutdown self-poke).
        Ok(None) | Err(_) => {}
    }
}

fn serve_client(reader: &mut Conn, writer: &mut Conn, shared: &Shared) {
    loop {
        let request = match recv::<_, ClientRequest>(reader) {
            Ok(Some(r)) => r,
            Ok(None) | Err(_) => return,
        };
        let ok = match request {
            ClientRequest::Submit { spec_json } => {
                submit(writer, shared, expand_spec(&spec_json, &shared.catalog))
            }
            ClientRequest::SubmitRaw {
                name,
                config,
                cells,
            } => {
                let job = if cells.is_empty() {
                    Err("raw submission has no cells".into())
                } else if let Err(e) = config.plan.validate(config.gen.sites.len()) {
                    Err(format!("bad address plan: {e}"))
                } else {
                    Ok(ExpandedJob {
                        name,
                        config: *config,
                        cells,
                    })
                };
                submit(writer, shared, job)
            }
            ClientRequest::Jobs => {
                let rows: Vec<JobRow> = {
                    let table = shared.table.lock().unwrap();
                    table.jobs.iter().map(|(id, j)| j.row(*id)).collect()
                };
                let rows_json = serde_json::to_string(&rows).expect("rows serialize");
                send(writer, &ClientReply::Jobs { rows_json }).is_ok()
            }
            ClientRequest::Watch { job_id } => stream_job(writer, shared, job_id),
            ClientRequest::Status => {
                let json = serde_json::to_string(&snapshot(shared)).expect("snapshot serializes");
                send(writer, &ClientReply::Status { json }).is_ok()
            }
            ClientRequest::Matrix => {
                let matrix = {
                    let table = shared.table.lock().unwrap();
                    crate::matrix::build(
                        table
                            .jobs
                            .iter()
                            .map(|(id, j)| (*id, j.state == JobState::Done, j.outputs.as_slice())),
                    )
                };
                let json = serde_json::to_string(&matrix).expect("matrix serializes");
                send(writer, &ClientReply::Matrix { json }).is_ok()
            }
            ClientRequest::Quit => {
                let _ = send(writer, &ClientReply::Bye);
                // A running batch exits through the coordinator's
                // interrupt poll, an idle scheduler through its `quit`
                // check; the wake makes either happen now.
                interrupt::simulate_interrupt();
                shared.request_quit();
                let _ = shared.local.connect();
                return;
            }
        };
        if !ok {
            return;
        }
    }
}

/// Queues a vetted submission and answers the client; returns whether
/// the connection is still usable.
fn submit(writer: &mut Conn, shared: &Shared, job: Result<ExpandedJob, String>) -> bool {
    let job = match job {
        Ok(job) => job,
        Err(message) => return send(writer, &ClientReply::Error { message }).is_ok(),
    };
    let id = {
        let mut table = shared.table.lock().unwrap();
        let id = table.next_id;
        table.next_id += 1;
        id
    };
    let job = Job {
        name: job.name,
        state: JobState::Queued,
        error: None,
        outputs: vec![None; job.cells.len()],
        completion_log: Vec::new(),
        config: job.config,
        cells: job.cells,
    };
    // Written before the job is in the table: until then the scheduler
    // cannot claim it, so this `queued` file cannot replace a later one.
    // Task first — `load_state` goes by the metadata files.
    persist_task(shared, id, &job);
    persist_meta(shared, &job.row(id));
    shared.table.lock().unwrap().jobs.insert(id, job);
    // The wake comes after the insert, so the scheduler's scan finds the
    // job, and after the reply, so the client's round trip does not
    // compete for a core with the work it has just started.
    let ok = send(writer, &ClientReply::Submitted { job_id: id }).is_ok();
    shared.port.wake();
    ok
}

/// Streams a job to a watcher: replay the completion log from the start,
/// then follow it live until the job reaches a terminal state. Returns
/// whether the connection is still usable.
fn stream_job(writer: &mut Conn, shared: &Shared, job_id: u64) -> bool {
    let mut cursor = 0usize;
    loop {
        // Park until there is something to act on — a new cell, a terminal
        // state, `quit` (or no such job). The predicate runs under the
        // table lock and there is no timeout to fall back on: see
        // `Shared::cv` for what that asks of the writers.
        let table = shared
            .cv
            .wait_while(shared.table.lock().unwrap(), |table| {
                table.jobs.get(&job_id).is_some_and(|j| {
                    cursor >= j.completion_log.len()
                        && matches!(j.state, JobState::Queued | JobState::Running)
                }) && !shared.quit.load(Ordering::SeqCst)
            })
            .unwrap();
        let Some(job) = table.jobs.get(&job_id) else {
            drop(table);
            return send(
                writer,
                &ClientReply::Error {
                    message: format!("no such job: {job_id}"),
                },
            )
            .is_ok();
        };
        // Batch up everything new, then send without holding the lock —
        // a slow watcher must not stall the scheduler's on_cell hook.
        let mut pending: Vec<(usize, CellOutput)> = Vec::new();
        while cursor < job.completion_log.len() {
            let index = job.completion_log[cursor];
            if let Some(output) = &job.outputs[index] {
                pending.push((index, output.clone()));
            }
            cursor += 1;
        }
        let end = match job.state {
            JobState::Done | JobState::Failed => Some((job.state, job.error.clone())),
            // Daemon going down mid-watch: report the job as it stands.
            state if shared.quit.load(Ordering::SeqCst) => {
                Some((state, Some("daemon shutting down".into())))
            }
            _ => None,
        };
        drop(table);
        for (index, output) in pending {
            let reply = ClientReply::Cell {
                job_id,
                cell_index: index as u64,
                output: Box::new(output),
            };
            if send(writer, &reply).is_err() {
                return false;
            }
        }
        if let Some((state, error)) = end {
            return send(
                writer,
                &ClientReply::JobDone {
                    job_id,
                    state,
                    error,
                },
            )
            .is_ok();
        }
    }
}

fn snapshot(shared: &Shared) -> StatusSnapshot {
    let table = shared.table.lock().unwrap();
    let count = |s: JobState| table.jobs.values().filter(|j| j.state == s).count();
    let cells_pending = table
        .jobs
        .values()
        .filter(|j| matches!(j.state, JobState::Queued | JobState::Running))
        .map(|j| j.cells.len() - j.completion_log.len())
        .sum();
    let uptime_s = shared.started.elapsed().as_secs_f64().max(1e-9);
    let cells_done = shared.cells_completed.load(Ordering::Relaxed);
    StatusSnapshot {
        uptime_s,
        jobs_queued: count(JobState::Queued),
        jobs_running: count(JobState::Running),
        jobs_done: count(JobState::Done),
        jobs_failed: count(JobState::Failed),
        cells_done,
        cells_pending,
        cells_per_sec: cells_done as f64 / uptime_s,
        workers: shared.worker_stats.lock().unwrap().clone(),
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

fn persist_meta(shared: &Shared, row: &JobRow) {
    if let Some(dir) = &shared.state_dir {
        let id = row.id;
        let json = serde_json::to_string(row).expect("row serializes");
        if let Err(e) = std::fs::write(dir.join(format!("job-{id}.json")), json) {
            eprintln!("[serve] failed to persist job {id} metadata: {e}");
        }
    }
}

fn persist_task(shared: &Shared, id: u64, job: &Job) {
    if let Some(dir) = &shared.state_dir {
        let task = JobTask {
            config: job.config.clone(),
            cells: job.cells.clone(),
        };
        if let Err(e) = std::fs::write(dir.join(format!("job-{id}.task.bin")), encode_vec(&task)) {
            eprintln!("[serve] failed to persist job {id} task: {e}");
        }
    }
}

#[allow(clippy::ptr_arg)] // encode_vec needs the Vec impl of Wire
fn persist_results(shared: &Shared, id: u64, outputs: &Vec<CellOutput>) {
    if let Some(dir) = &shared.state_dir {
        let path = dir.join(format!("job-{id}.results.bin"));
        if let Err(e) = std::fs::write(path, encode_vec(outputs)) {
            eprintln!("[serve] failed to persist job {id} results: {e}");
        }
    }
}

/// Reloads persisted jobs. Done jobs come back with their results and a
/// fully replayed completion log; jobs caught mid-flight (queued or
/// running at shutdown) are re-queued; failed jobs keep their error.
/// Unreadable jobs (e.g. a task persisted before configs were stored as
/// JSON) are skipped, but new ids still continue past them, so their
/// files are never overwritten.
fn load_state(dir: &Path, table: &mut Table) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(id) = name
            .strip_prefix("job-")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        table.next_id = table.next_id.max(id + 1);
        let Ok(meta) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        let Ok(row) = serde_json::from_str_typed::<JobRow>(&meta) else {
            eprintln!("[serve] skipping unreadable metadata for job {id}");
            continue;
        };
        let Ok(task_bytes) = std::fs::read(dir.join(format!("job-{id}.task.bin"))) else {
            eprintln!("[serve] skipping job {id}: no persisted task");
            continue;
        };
        let task = match decode_exact::<JobTask>(&task_bytes) {
            Ok(task) => task,
            Err(e) => {
                // Also what a task persisted with a binary config looks like.
                eprintln!("[serve] skipping job {id}: unreadable persisted task ({e})");
                continue;
            }
        };
        let state = JobState::parse(&row.state).unwrap_or(JobState::Queued);
        let mut job = Job {
            name: row.name,
            state: JobState::Queued,
            error: None,
            outputs: vec![None; task.cells.len()],
            completion_log: Vec::new(),
            config: task.config,
            cells: task.cells,
        };
        match state {
            JobState::Done => {
                let results = std::fs::read(dir.join(format!("job-{id}.results.bin")))
                    .ok()
                    .and_then(|bytes| decode_exact::<Vec<CellOutput>>(&bytes).ok());
                match results {
                    Some(outputs) if outputs.len() == job.cells.len() => {
                        job.completion_log = (0..outputs.len()).collect();
                        job.outputs = outputs.into_iter().map(Some).collect();
                        job.state = JobState::Done;
                    }
                    // Metadata says done but results are missing/corrupt:
                    // re-run rather than lie about having them.
                    _ => {
                        eprintln!("[serve] job {id} marked done but results unreadable; re-queued")
                    }
                }
            }
            JobState::Failed => {
                job.state = JobState::Failed;
                job.error = row.error;
            }
            // Queued or running at shutdown: run it (again) from scratch.
            JobState::Queued | JobState::Running => {}
        }
        table.jobs.insert(id, job);
    }
}
