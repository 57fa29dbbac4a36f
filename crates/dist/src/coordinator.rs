//! The coordinator: serves the cell grid to workers and merges results.
//!
//! ## Threading model
//!
//! One accept thread takes connections off the listener and hands each to
//! a per-connection thread. That thread performs the v4 handshake — the
//! server sends a [`Challenge`] nonce, the peer answers with a
//! [`Greeting`], and mismatched fingerprints or bad HMAC credentials are
//! rejected before any work flows — then forwards every decoded
//! [`FromWorker`] frame into a single `mpsc` channel. The batch loop
//! ([`Coordinator::run_batch`]) is therefore strictly single-threaded:
//! all scheduling state — the pending queue, leases, result slots — lives
//! on one thread, and the writers (one per worker) are only touched from
//! it.
//!
//! The handshake/pump machinery is factored into [`WorkerPort`] so a
//! host that owns its own listener (the `bobw serve` daemon, which
//! multiplexes workers *and* job-service clients on one socket) can
//! splice accepted worker connections into a [`Coordinator::detached`]
//! instance.
//!
//! ## Robustness rules
//!
//! * **Leases + heartbeats** — every assigned cell has a lease refreshed
//!   by worker heartbeats; a lease not renewed within the configured
//!   timeout is revoked and the cell re-queued.
//! * **First completion wins** — after a revocation two workers may both
//!   finish the same cell; the first `Done` per index is merged, later
//!   duplicates are discarded.
//! * **Dead workers** — a disconnect re-queues all that worker's leased
//!   cells. Each cell has a bounded number of (re)assignments so a cell
//!   that kills every worker it touches fails the run instead of looping.
//! * **Ctrl-C** — the batch loop polls [`crate::interrupt::interrupted`];
//!   on interrupt it drains workers (they finish or abandon cleanly, no
//!   torn frames) and returns an error instead of partial results.
//!
//! ## Determinism
//!
//! Scheduling decides only *where* a cell runs, never what it computes:
//! results are merged into index-keyed slots, so the output vector is in
//! cell-index order — byte-identical to a local sequential run. A worker
//! now multiplexes up to `Hello::capacity` concurrent cells over its one
//! connection; assignment is least-loaded-first, which again only moves
//! placement, never content.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bobw_core::ExperimentConfig;

use crate::auth::{fresh_nonce, AuthSecret};
use crate::endpoint::{Conn, Endpoint, Listener};
use crate::interrupt::interrupted;
use crate::proto::{
    build_fingerprint, config_fingerprint, CellOutput, CellSpec, Challenge, ClientHello,
    FromWorker, Greeting, Hello, HelloReply, ToWorker, PROTOCOL_VERSION,
};
use crate::wire::{recv, send};

/// Maximum times one cell may be (re)assigned before the run fails — a
/// cell that crashes or stalls every worker it touches must not loop
/// forever.
pub const MAX_ASSIGNMENTS: u32 = 5;

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Revoke a cell's lease when no heartbeat (or completion) arrived for
    /// this long. Workers heartbeat every ~2 s, so the default tolerates
    /// ~15 missed beats before declaring a worker dead.
    pub lease_timeout: Duration,
    /// The longest the batch loop (and the serve daemon's idle wait) blocks
    /// without an event. It bounds two things only — how late an expired
    /// lease is revoked and how late a Ctrl-C is noticed; worker frames and
    /// [`WorkerPort::wake`] are events and never wait for it.
    pub tick: Duration,
    /// Shared handshake secret; when set, workers (and clients, on the
    /// serve daemon) must present a valid HMAC tag or are rejected.
    pub secret: Option<AuthSecret>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            lease_timeout: Duration::from_secs(30),
            tick: Duration::from_millis(100),
            secret: AuthSecret::from_env(),
        }
    }
}

type WorkerId = u64;

/// What the connection threads report to the batch loop.
enum Event {
    /// Handshake succeeded; `writer` is the batch loop's handle for
    /// sending to this worker.
    Connected {
        id: WorkerId,
        name: String,
        capacity: u32,
        writer: Conn,
    },
    Msg {
        id: WorkerId,
        msg: FromWorker,
    },
    Disconnected {
        id: WorkerId,
    },
    /// No worker changed: the host wants whoever blocks on the channel to
    /// look at its own state now (see [`WorkerPort::wake`]).
    Wake,
}

/// Coordinator-side view of one connected worker.
struct WorkerHandle {
    writer: Conn,
    name: String,
    /// Concurrent cells this worker accepts (its `Hello::capacity`).
    capacity: u32,
    /// Cells currently assigned and not yet answered.
    inflight: u32,
    /// The batch this worker has acknowledged with `Ready`.
    acked_batch: Option<u64>,
    /// Batches this worker served from its warm testbed cache.
    cache_hits: u64,
    /// Cells this worker completed (lifetime, across batches).
    cells_done: u64,
    /// Last frame of any kind from this worker (liveness for metrics).
    last_heard: Instant,
}

/// A point-in-time view of one connected worker, for the metrics plane.
#[derive(Debug, Clone, serde::Serialize)]
pub struct WorkerStat {
    pub name: String,
    pub capacity: u32,
    pub inflight: u32,
    pub cells_done: u64,
    pub cache_hits: u64,
    /// Seconds since the last frame from this worker.
    pub last_heard_s: f64,
}

/// The worker-facing half of a coordinator: performs the challenge
/// handshake on accepted connections and pumps vetted workers' frames
/// into the batch loop. Cloneable so a daemon can hand it to any number
/// of connection threads.
#[derive(Clone)]
pub struct WorkerPort {
    tx: mpsc::Sender<Event>,
    next_id: Arc<AtomicU64>,
    secret: Option<AuthSecret>,
}

impl WorkerPort {
    /// Makes a blocked [`Coordinator::pump_events`] return now instead of
    /// at its timeout; a running batch loop re-polls the interrupt flag
    /// and otherwise ignores it. The serve daemon calls this when a job
    /// was queued or a client asked it to quit, so neither waits for a
    /// tick.
    pub fn wake(&self) {
        let _ = self.tx.send(Event::Wake);
    }

    /// Sends the [`Challenge`] that must precede any greeting. Returns
    /// the nonce the peer's credential has to bind.
    pub fn send_challenge(&self, writer: &mut Conn) -> io::Result<Vec<u8>> {
        let nonce = fresh_nonce();
        send(
            writer,
            &Challenge {
                nonce: nonce.clone(),
                auth_required: self.secret.is_some(),
            },
        )?;
        Ok(nonce)
    }

    /// Serves one freshly accepted connection end-to-end: challenge,
    /// greeting, vetting, then pumping worker frames until disconnect.
    /// Blocking — callers give each connection its own thread. Client
    /// greetings are rejected (a plain coordinator runs no job service).
    pub fn serve_connection(&self, conn: Conn) {
        conn.set_nodelay();
        let Ok(mut writer) = conn.try_clone() else {
            return;
        };
        let mut reader = conn;
        let Ok(nonce) = self.send_challenge(&mut writer) else {
            return;
        };
        match recv::<_, Greeting>(&mut reader) {
            Ok(Some(Greeting::Worker(hello))) => self.adopt_worker(reader, writer, hello, &nonce),
            Ok(Some(Greeting::Client(hello))) => {
                // A version-skewed client hears about the skew first.
                let reason = vet_client(&hello, &nonce, None).err().unwrap_or_else(|| {
                    "this endpoint is a batch coordinator, not a job service \
                     (start one with `bobw serve`)"
                        .into()
                });
                eprintln!(
                    "[coordinator] rejecting client {}: {reason}",
                    hello.client_name
                );
                let _ = send(&mut writer, &HelloReply::Rejected { reason });
            }
            // Garbage or no greeting at all: drop the connection.
            _ => {}
        }
    }

    /// Vets a worker greeting and, if welcome, splices the connection
    /// into the batch loop, pumping its frames until disconnect
    /// (blocking). The `bobw serve` daemon calls this after classifying
    /// the greeting itself.
    pub fn adopt_worker(&self, mut reader: Conn, mut writer: Conn, hello: Hello, nonce: &[u8]) {
        if let Err(reason) = vet_worker(&hello, nonce, self.secret.as_ref()) {
            eprintln!(
                "[coordinator] rejecting worker {}: {reason}",
                hello.worker_name
            );
            let _ = send(&mut writer, &HelloReply::Rejected { reason });
            return;
        }
        if send(&mut writer, &HelloReply::Welcome).is_err() {
            return;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if self
            .tx
            .send(Event::Connected {
                id,
                name: hello.worker_name,
                capacity: hello.capacity.max(1),
                writer,
            })
            .is_err()
        {
            return;
        }
        loop {
            match recv::<_, FromWorker>(&mut reader) {
                Ok(Some(msg)) => {
                    if self.tx.send(Event::Msg { id, msg }).is_err() {
                        return;
                    }
                }
                Ok(None) | Err(_) => {
                    let _ = self.tx.send(Event::Disconnected { id });
                    return;
                }
            }
        }
    }
}

/// Why a worker greeting is unacceptable, or `Ok` to welcome it.
fn vet_worker(hello: &Hello, nonce: &[u8], secret: Option<&AuthSecret>) -> Result<(), String> {
    if hello.protocol != PROTOCOL_VERSION {
        return Err(format!(
            "protocol version mismatch (coordinator {PROTOCOL_VERSION}, worker {})",
            hello.protocol
        ));
    }
    let expected = build_fingerprint();
    if hello.fingerprint != expected {
        return Err(format!(
            "build fingerprint mismatch (coordinator {expected:#x}, worker {:#x}): \
             the worker binary would compute different worlds",
            hello.fingerprint
        ));
    }
    if let Some(secret) = secret {
        if !secret.verify_worker(
            &hello.auth,
            nonce,
            hello.protocol,
            hello.fingerprint,
            &hello.worker_name,
        ) {
            return Err("authentication failed: bad or missing worker credential".into());
        }
    }
    Ok(())
}

/// Why a client greeting is unacceptable, or `Ok` to welcome it. Shared
/// with the serve daemon, which accepts clients on the same listener.
pub fn vet_client(
    hello: &ClientHello,
    nonce: &[u8],
    secret: Option<&AuthSecret>,
) -> Result<(), String> {
    if hello.protocol != PROTOCOL_VERSION {
        return Err(format!(
            "protocol version mismatch (server {PROTOCOL_VERSION}, client {})",
            hello.protocol
        ));
    }
    if let Some(secret) = secret {
        if !secret.verify_client(&hello.auth, nonce, hello.protocol, &hello.client_name) {
            return Err("authentication failed: bad or missing client credential".into());
        }
    }
    Ok(())
}

/// A coordinator. [`Coordinator::bind`] listens itself; a
/// [`Coordinator::detached`] instance is fed accepted connections by an
/// external listener through its [`WorkerPort`]. Run any number of
/// batches, then [`Coordinator::shutdown`].
pub struct Coordinator {
    events: mpsc::Receiver<Event>,
    port: WorkerPort,
    workers: HashMap<WorkerId, WorkerHandle>,
    /// Bound endpoint; `None` for a detached coordinator.
    local: Option<Endpoint>,
    stop: Arc<AtomicBool>,
    cfg: CoordinatorConfig,
    next_batch: u64,
    /// Optional live stats mirror for a metrics plane: refreshed by the
    /// batch loop whenever an event changed a worker or a lease was
    /// revoked, and by every [`Coordinator::pump_events`], so other
    /// threads can read worker liveness without touching scheduler state.
    stats_sink: Option<Arc<Mutex<Vec<WorkerStat>>>>,
    /// Kept so `bind` on `tcp://…:0` can report the real port.
    _accept: Option<std::thread::JoinHandle<()>>,
}

impl Coordinator {
    /// Binds the endpoint and starts accepting workers in the background.
    pub fn bind(endpoint: &Endpoint, cfg: CoordinatorConfig) -> io::Result<Coordinator> {
        let listener = endpoint.bind()?;
        let local = listener.local_endpoint()?;
        let (mut coordinator, port) = Self::detached(cfg);
        let stop = Arc::clone(&coordinator.stop);
        coordinator.local = Some(local);
        coordinator._accept = Some(std::thread::spawn(move || {
            accept_loop(listener, port, stop)
        }));
        Ok(coordinator)
    }

    /// A coordinator with no listener of its own: the caller owns the
    /// socket and feeds accepted worker connections through the returned
    /// [`WorkerPort`] (see `bobw serve`).
    pub fn detached(cfg: CoordinatorConfig) -> (Coordinator, WorkerPort) {
        let (tx, rx) = mpsc::channel::<Event>();
        let port = WorkerPort {
            tx,
            next_id: Arc::new(AtomicU64::new(0)),
            secret: cfg.secret.clone(),
        };
        let coordinator = Coordinator {
            events: rx,
            port: port.clone(),
            workers: HashMap::new(),
            local: None,
            stop: Arc::new(AtomicBool::new(false)),
            cfg,
            next_batch: 0,
            stats_sink: None,
            _accept: None,
        };
        (coordinator, port)
    }

    /// The bound endpoint (with the real port for `tcp://…:0` binds);
    /// `None` for a detached coordinator.
    pub fn endpoint(&self) -> Option<&Endpoint> {
        self.local.as_ref()
    }

    /// This coordinator's worker port (handshake + frame pump).
    pub fn port(&self) -> WorkerPort {
        self.port.clone()
    }

    /// Number of workers currently connected and handshaken.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Installs a live mirror of [`Coordinator::worker_stats`] that the
    /// batch loop refreshes, for a metrics plane on another thread.
    pub fn set_stats_sink(&mut self, sink: Arc<Mutex<Vec<WorkerStat>>>) {
        self.stats_sink = Some(sink);
        self.publish_stats();
    }

    /// Point-in-time stats for every connected worker, by name.
    pub fn worker_stats(&self) -> Vec<WorkerStat> {
        let mut stats: Vec<WorkerStat> = self
            .workers
            .values()
            .map(|w| WorkerStat {
                name: w.name.clone(),
                capacity: w.capacity,
                inflight: w.inflight,
                cells_done: w.cells_done,
                cache_hits: w.cache_hits,
                last_heard_s: w.last_heard.elapsed().as_secs_f64(),
            })
            .collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }

    fn publish_stats(&self) {
        if let Some(sink) = &self.stats_sink {
            *sink.lock().unwrap() = self.worker_stats();
        }
    }

    /// Serves `cells` under `config` to the connected workers (and any
    /// that connect mid-batch), returning outputs in cell-index order.
    ///
    /// Blocks until every cell completed, a cell exhausted its
    /// [`MAX_ASSIGNMENTS`], or Ctrl-C interrupted the run. Workers that
    /// die mid-cell have their cells reassigned transparently.
    pub fn run_batch(
        &mut self,
        config: &ExperimentConfig,
        cells: &[CellSpec],
    ) -> Result<Vec<CellOutput>, String> {
        self.run_batch_with(config, cells, |_, _| {})
    }

    /// [`Coordinator::run_batch`], additionally invoking `on_cell` with
    /// `(cell_index, output)` the moment each cell's first completion
    /// merges — the streaming hook `bobw watch` rides on. Callbacks
    /// arrive in completion order, not index order; the returned vector
    /// is index-ordered as always.
    pub fn run_batch_with(
        &mut self,
        config: &ExperimentConfig,
        cells: &[CellSpec],
        mut on_cell: impl FnMut(usize, &CellOutput),
    ) -> Result<Vec<CellOutput>, String> {
        let batch_id = self.next_batch;
        self.next_batch += 1;
        let config_print = config_fingerprint(config);
        let n = cells.len();

        let mut done: Vec<Option<CellOutput>> = Vec::with_capacity(n);
        done.resize_with(n, || None);
        let mut completed = 0usize;
        let mut pending: VecDeque<usize> = (0..n).collect();
        let mut assignments = vec![0u32; n];
        // cell index -> (owner, last heartbeat).
        let mut leases: HashMap<usize, (WorkerId, Instant)> = HashMap::new();

        // Announce the batch to everyone already connected; workers ack
        // with `Ready` once their testbed is up.
        let ids: Vec<WorkerId> = self.workers.keys().copied().collect();
        for id in ids {
            self.send_batch(id, batch_id, config_print, config);
        }

        while completed < n {
            if interrupted() {
                self.broadcast(&ToWorker::Drain);
                return Err(format!(
                    "interrupted: {completed}/{n} cells finished; results discarded"
                ));
            }

            // Hand pending cells to the least-loaded workers that acked
            // this batch and still have capacity headroom.
            while !pending.is_empty() {
                let Some(&id) = self
                    .workers
                    .iter()
                    .filter(|(_, w)| w.acked_batch == Some(batch_id) && w.inflight < w.capacity)
                    .min_by_key(|(id, w)| (w.inflight, **id))
                    .map(|(id, _)| id)
                else {
                    break;
                };
                let cell = pending.pop_front().expect("checked non-empty");
                let msg = ToWorker::Assign {
                    batch_id,
                    cell_index: cell as u64,
                    cell: cells[cell].clone(),
                };
                let w = self.workers.get_mut(&id).expect("found above");
                if send(&mut w.writer, &msg).is_err() {
                    // Dead on arrival; the reader thread will report the
                    // disconnect, but don't lose the cell meanwhile.
                    self.workers.remove(&id);
                    pending.push_front(cell);
                    continue;
                }
                w.inflight += 1;
                leases.insert(cell, (id, Instant::now()));
            }

            // One event or one tick. Only an event that touched a
            // `WorkerHandle` is worth republishing the stats for.
            let mut workers_changed = true;
            match self.events.recv_timeout(self.cfg.tick) {
                Ok(Event::Connected {
                    id,
                    name,
                    capacity,
                    writer,
                }) => {
                    self.insert_worker(id, name, capacity, writer);
                    self.send_batch(id, batch_id, config_print, config);
                }
                Ok(Event::Msg { id, msg }) => {
                    if let Some(w) = self.workers.get_mut(&id) {
                        w.last_heard = Instant::now();
                    }
                    match msg {
                        FromWorker::Ready { cache_hit } => {
                            if let Some(w) = self.workers.get_mut(&id) {
                                w.acked_batch = Some(batch_id);
                                w.cache_hits += cache_hit as u64;
                            }
                        }
                        FromWorker::Heartbeat {
                            batch_id: b,
                            cell_index,
                        } => {
                            if b == batch_id {
                                if let Some(lease) = leases.get_mut(&(cell_index as usize)) {
                                    if lease.0 == id {
                                        lease.1 = Instant::now();
                                    }
                                }
                            }
                        }
                        FromWorker::Done {
                            batch_id: b,
                            cell_index,
                            output,
                        } => {
                            if let Some(w) = self.workers.get_mut(&id) {
                                w.inflight = w.inflight.saturating_sub(1);
                                w.cells_done += 1;
                            }
                            let cell = cell_index as usize;
                            // First completion wins; duplicates (from a worker
                            // whose lease was revoked but that finished anyway)
                            // and stale-batch strays are discarded by index.
                            if b == batch_id && cell < n && done[cell].is_none() {
                                done[cell] = Some(*output);
                                completed += 1;
                                leases.remove(&cell);
                                on_cell(cell, done[cell].as_ref().expect("just stored"));
                            }
                        }
                        FromWorker::Failed {
                            batch_id: b,
                            cell_index,
                            error,
                        } => {
                            if let Some(w) = self.workers.get_mut(&id) {
                                w.inflight = w.inflight.saturating_sub(1);
                            }
                            let cell = cell_index as usize;
                            if b == batch_id && cell < n && done[cell].is_none() {
                                eprintln!(
                                    "[coordinator] worker {} failed cell {cell}: {error}",
                                    self.worker_name(id)
                                );
                                if leases.get(&cell).map(|l| l.0) == Some(id) {
                                    leases.remove(&cell);
                                }
                                requeue(cell, &mut assignments, &mut pending)?;
                            }
                        }
                    }
                }
                Ok(Event::Disconnected { id }) => {
                    let name = self.worker_name(id);
                    self.workers.remove(&id);
                    let lost: Vec<usize> = leases
                        .iter()
                        .filter(|(_, (owner, _))| *owner == id)
                        .map(|(&cell, _)| cell)
                        .collect();
                    if !lost.is_empty() {
                        eprintln!(
                            "[coordinator] worker {name} disconnected; requeueing {} cell(s)",
                            lost.len()
                        );
                    }
                    for cell in lost {
                        leases.remove(&cell);
                        requeue(cell, &mut assignments, &mut pending)?;
                    }
                }
                Ok(Event::Wake) | Err(mpsc::RecvTimeoutError::Timeout) => workers_changed = false,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err("coordinator event channel died".into());
                }
            }

            // Revoke expired leases: the owner is alive-but-silent (stuck,
            // paused, or wedged); someone else gets the cell. The owner's
            // inflight slot stays occupied until it answers or disconnects,
            // so a wedged worker cannot hoard fresh assignments.
            let now = Instant::now();
            let expired: Vec<usize> = leases
                .iter()
                .filter(|(_, (_, heard))| now.duration_since(*heard) > self.cfg.lease_timeout)
                .map(|(&cell, _)| cell)
                .collect();
            // A revocation is the one time a worker changes without an
            // event: it went silent, and its `last_heard_s` should show it.
            workers_changed |= !expired.is_empty();
            for cell in expired {
                let (owner, _) = leases.remove(&cell).expect("just listed");
                eprintln!(
                    "[coordinator] lease on cell {cell} expired (worker {}); reassigning",
                    self.worker_name(owner)
                );
                requeue(cell, &mut assignments, &mut pending)?;
            }

            if workers_changed {
                self.publish_stats();
            }
        }

        // Batch done: let workers idle until the next one.
        self.broadcast(&ToWorker::Drain);
        self.publish_stats();
        Ok(done
            .into_iter()
            .map(|o| o.expect("completed == n implies every slot filled"))
            .collect())
    }

    /// Processes connection lifecycle events while no batch is running:
    /// blocks until the first event or for `wait`, drains whatever else is
    /// queued, and returns. A long-lived daemon idles here between jobs, so
    /// connects/disconnects (and straggler results from revoked leases)
    /// keep the worker table and metrics fresh, and a [`WorkerPort::wake`]
    /// ends the wait at once — `wait` only bounds how long the caller goes
    /// without polling its own flags (the daemon: Ctrl-C).
    pub fn pump_events(&mut self, wait: Duration) {
        let mut budget = Some(wait);
        loop {
            let ev = match budget.take() {
                Some(w) => match self.events.recv_timeout(w) {
                    Ok(ev) => ev,
                    Err(_) => break,
                },
                None => match self.events.try_recv() {
                    Ok(ev) => ev,
                    Err(_) => break,
                },
            };
            match ev {
                Event::Connected {
                    id,
                    name,
                    capacity,
                    writer,
                } => self.insert_worker(id, name, capacity, writer),
                Event::Msg { id, msg } => {
                    if let Some(w) = self.workers.get_mut(&id) {
                        w.last_heard = Instant::now();
                        match msg {
                            // Stragglers from a finished batch: free the slot.
                            FromWorker::Done { .. } => {
                                w.inflight = w.inflight.saturating_sub(1);
                                w.cells_done += 1;
                            }
                            FromWorker::Failed { .. } => {
                                w.inflight = w.inflight.saturating_sub(1);
                            }
                            FromWorker::Ready { .. } | FromWorker::Heartbeat { .. } => {}
                        }
                    }
                }
                Event::Disconnected { id } => {
                    self.workers.remove(&id);
                }
                Event::Wake => {}
            }
        }
        self.publish_stats();
    }

    /// Sends `Shutdown` to every worker and stops the accept loop.
    pub fn shutdown(mut self) {
        self.broadcast(&ToWorker::Shutdown);
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept thread with a throwaway connection so it sees
        // the stop flag and releases the listener.
        if let Some(local) = &self.local {
            let _ = local.connect();
        }
    }

    fn insert_worker(&mut self, id: WorkerId, name: String, capacity: u32, writer: Conn) {
        self.workers.insert(
            id,
            WorkerHandle {
                writer,
                name,
                capacity,
                inflight: 0,
                acked_batch: None,
                cache_hits: 0,
                cells_done: 0,
                last_heard: Instant::now(),
            },
        );
    }

    fn worker_name(&self, id: WorkerId) -> String {
        self.workers
            .get(&id)
            .map(|w| w.name.clone())
            .unwrap_or_else(|| format!("#{id}"))
    }

    fn send_batch(
        &mut self,
        id: WorkerId,
        batch_id: u64,
        config_print: u64,
        config: &ExperimentConfig,
    ) {
        let msg = ToWorker::Batch {
            batch_id,
            config_print,
            config: Box::new(config.clone()),
        };
        if let Some(w) = self.workers.get_mut(&id) {
            w.acked_batch = None;
            if send(&mut w.writer, &msg).is_err() {
                self.workers.remove(&id);
            }
        }
    }

    fn broadcast(&mut self, msg: &ToWorker) {
        let mut dead = Vec::new();
        for (&id, w) in self.workers.iter_mut() {
            if send(&mut w.writer, msg).is_err() {
                dead.push(id);
            }
        }
        for id in dead {
            self.workers.remove(&id);
        }
    }
}

/// Re-queues a cell after a failure/expiry, failing the run once the cell
/// burned through its assignment budget.
fn requeue(
    cell: usize,
    assignments: &mut [u32],
    pending: &mut VecDeque<usize>,
) -> Result<(), String> {
    assignments[cell] += 1;
    if assignments[cell] >= MAX_ASSIGNMENTS {
        return Err(format!(
            "cell {cell} failed {MAX_ASSIGNMENTS} assignments; aborting the run"
        ));
    }
    pending.push_front(cell);
    Ok(())
}

/// Accepts connections until the stop flag flips; each connection gets its
/// own handshake/reader thread.
fn accept_loop(listener: Listener, port: WorkerPort, stop: Arc<AtomicBool>) {
    loop {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let port = port.clone();
        std::thread::spawn(move || port.serve_connection(conn));
    }
}
