//! End-to-end tests for the `bobw serve` daemon: byte-identity with the
//! local runner, client authentication, lease-based rescue of cells from
//! a stuck worker across queued jobs, state-dir persistence, rejection of
//! a bad config at submit, and the event-driven job path (pickup, quit and
//! `JobDone` never wait on a timer).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bobw_core::{ExperimentConfig, Testbed};
use bobw_dist::{
    build_fingerprint, execute_cell, run_worker, AuthSecret, CellOutput, CellSpec, Challenge,
    Endpoint, FromWorker, Greeting, Hello, HelloReply, ToWorker, Wire, WorkerConfig,
    PROTOCOL_VERSION,
};
use bobw_serve::{daemon, JobState, ServeClient, ServeConfig};

/// The daemon's quit path raises the process-wide interrupt flag, so two
/// daemons must never overlap in this test binary: each test holds this
/// lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn test_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(5);
    cfg.targets_per_site = 6;
    cfg.probe.duration = bobw_event::SimDuration::from_secs(45);
    cfg
}

/// `techniques × first n sites`, in the runner's technique-major order.
fn grid(tb: &Testbed, techniques: &[&str], n_sites: usize) -> Vec<CellSpec> {
    let sites: Vec<String> = tb
        .cdn
        .sites()
        .take(n_sites)
        .map(|s| tb.cdn.name(s).to_string())
        .collect();
    techniques
        .iter()
        .flat_map(|t| {
            sites.iter().map(move |s| CellSpec::Failover {
                technique: t.to_string(),
                site: s.clone(),
            })
        })
        .collect()
}

/// Serializes the deterministic part of the outputs (results only — perf
/// wall times are host dependent by design).
fn results_json(outputs: &[CellOutput]) -> String {
    outputs
        .iter()
        .map(|o| match o {
            CellOutput::Failover(r, _) => serde_json::to_string(r).unwrap(),
            CellOutput::Control(r, _) => serde_json::to_string(r).unwrap(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn local_baseline(cfg: &ExperimentConfig, cells: &[CellSpec]) -> String {
    let tb = Testbed::new(cfg.clone());
    let outputs: Vec<CellOutput> = cells
        .iter()
        .map(|c| execute_cell(&tb, c).expect("local cell"))
        .collect();
    results_json(&outputs)
}

/// An open-mode config on an ephemeral TCP port, immune to a stray
/// BOBW_SECRET in the test environment.
fn open_serve_config() -> ServeConfig {
    let mut cfg = ServeConfig::new(Endpoint::parse("tcp://127.0.0.1:0").unwrap());
    cfg.secret = None;
    cfg.catalog = PathBuf::from("../../scenarios");
    cfg
}

fn spawn_worker(endpoint: &Endpoint, name: &str, threads: usize) -> std::thread::JoinHandle<u64> {
    let endpoint = endpoint.clone();
    let name = name.to_string();
    std::thread::spawn(move || {
        let mut wc = WorkerConfig::new(endpoint);
        wc.name = name;
        wc.threads = threads;
        wc.secret = None;
        run_worker(&wc).expect("worker")
    })
}

fn collect_watch(
    client: &mut ServeClient,
    job_id: u64,
    num_cells: usize,
) -> (Vec<CellOutput>, JobState) {
    let mut slots: Vec<Option<CellOutput>> = vec![None; num_cells];
    let (state, error) = client
        .watch(job_id, |index, output| {
            let slot = &mut slots[index as usize];
            assert!(slot.is_none(), "cell {index} streamed twice");
            *slot = Some(output);
        })
        .expect("watch");
    assert_eq!(error, None, "job reported an error");
    let outputs: Vec<CellOutput> = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("cell {i} never streamed")))
        .collect();
    (outputs, state)
}

/// The tentpole acceptance test: a job submitted to the daemon and
/// watched over the wire yields results byte-identical to a sequential
/// local run of the same cells, and the metrics plane sees the work.
#[test]
fn serve_job_is_byte_identical_to_local_run() {
    let _guard = serial();
    let cfg = test_config();
    let tb = Testbed::new(cfg.clone());
    let cells = grid(&tb, &["anycast", "reactive-anycast"], 2);
    let expected = local_baseline(&cfg, &cells);

    let handle = daemon::start(open_serve_config()).expect("daemon");
    let endpoint = handle.endpoint().clone();
    let worker = spawn_worker(&endpoint, "svc-w1", 2);

    let mut client = ServeClient::connect(&endpoint, "identity-test", None).expect("client");
    let job_id = client.submit_raw("identity", &cfg, &cells).expect("submit");
    let (outputs, state) = collect_watch(&mut client, job_id, cells.len());
    assert_eq!(state, JobState::Done);
    assert_eq!(
        results_json(&outputs),
        expected,
        "service results must be byte-identical to the local run"
    );

    // A second watch replays the full stream from the completion log.
    let (replayed, state) = collect_watch(&mut client, job_id, cells.len());
    assert_eq!(state, JobState::Done);
    assert_eq!(results_json(&replayed), expected);

    let rows = client.jobs().expect("jobs");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].id, job_id);
    assert_eq!(rows[0].state, "done");
    assert_eq!(rows[0].cells_done, cells.len());

    let status = client.status_json().expect("status");
    assert!(
        status.contains("jobs_done"),
        "status missing counters: {status}"
    );
    assert!(
        status.contains("svc-w1"),
        "status missing worker stats: {status}"
    );

    let matrix = client.matrix_json().expect("matrix");
    assert!(
        matrix.contains("reactive-anycast"),
        "matrix missing technique: {matrix}"
    );

    client.quit().expect("quit");
    handle.join();
    assert_eq!(worker.join().unwrap(), cells.len() as u64);
}

/// Satellite: the daemon rejects unauthenticated and wrongly-keyed
/// clients, and accepts the right credential.
#[test]
fn client_authentication_is_enforced() {
    let _guard = serial();
    let secret = AuthSecret::new("svc-secret");
    let mut cfg = open_serve_config();
    cfg.secret = Some(secret.clone());
    let handle = daemon::start(cfg).expect("daemon");
    let endpoint = handle.endpoint().clone();

    let err = ServeClient::connect(&endpoint, "no-creds", None)
        .map(|_| ())
        .expect_err("must be rejected");
    assert!(err.contains("no secret"), "unexpected error: {err}");

    let wrong = AuthSecret::new("not-the-secret");
    let err = ServeClient::connect(&endpoint, "wrong-creds", Some(&wrong))
        .map(|_| ())
        .expect_err("must be rejected");
    assert!(err.contains("authentication"), "unexpected error: {err}");

    let mut client =
        ServeClient::connect(&endpoint, "right-creds", Some(&secret)).expect("authorized client");
    assert!(client.status_json().is_ok());
    client.quit().expect("quit");
    handle.join();
}

/// Satellite: cells leased to a dead (stuck) worker are reassigned to a
/// live one — across *two* queued jobs, exercising the daemon's FIFO
/// scheduler on top of the coordinator's lease machinery.
#[test]
fn stuck_worker_cells_are_rescued_across_queued_jobs() {
    let _guard = serial();
    let cfg = test_config();
    let tb = Testbed::new(cfg.clone());
    let cells_a = grid(&tb, &["anycast"], 1);
    let cells_b = grid(&tb, &["reactive-anycast"], 1);
    let expected_a = local_baseline(&cfg, &cells_a);
    let expected_b = local_baseline(&cfg, &cells_b);

    let mut serve_cfg = open_serve_config();
    serve_cfg.lease_timeout = Duration::from_millis(300);
    serve_cfg.tick = Duration::from_millis(20);
    let handle = daemon::start(serve_cfg).expect("daemon");
    let endpoint = handle.endpoint().clone();

    // A worker that completes the handshake, acks batches, and then
    // swallows every assignment without answering — only the lease
    // timeout can recover its cells.
    let stuck_got_assignment = Arc::new(AtomicBool::new(false));
    let stuck = {
        let endpoint = endpoint.clone();
        let got = Arc::clone(&stuck_got_assignment);
        std::thread::spawn(move || {
            let mut conn = endpoint.connect().unwrap();
            let _: Challenge = bobw_dist::wire::recv(&mut conn)
                .unwrap()
                .expect("challenge");
            let hello = Hello {
                protocol: PROTOCOL_VERSION,
                fingerprint: build_fingerprint(),
                worker_name: "stuck".to_string(),
                capacity: 1,
                auth: Vec::new(),
            };
            let mut payload = Vec::new();
            Greeting::Worker(hello).encode(&mut payload);
            bobw_dist::wire::write_frame(&mut conn, &payload).unwrap();
            match bobw_dist::wire::recv::<_, HelloReply>(&mut conn).unwrap() {
                Some(HelloReply::Welcome) => {}
                other => panic!("stuck worker not welcomed: {other:?}"),
            }
            loop {
                match bobw_dist::wire::recv::<_, ToWorker>(&mut conn) {
                    Ok(Some(ToWorker::Batch { .. })) => {
                        let mut payload = Vec::new();
                        FromWorker::Ready { cache_hit: false }.encode(&mut payload);
                        bobw_dist::wire::write_frame(&mut conn, &payload).unwrap();
                    }
                    Ok(Some(ToWorker::Assign { .. })) => {
                        got.store(true, Ordering::SeqCst);
                    }
                    Ok(Some(ToWorker::Drain)) => {}
                    Ok(Some(ToWorker::Shutdown)) | Ok(None) | Err(_) => break,
                }
            }
        })
    };

    // The rescuer joins after the stuck worker owns the first lease.
    let rescuer = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(700));
            let mut wc = WorkerConfig::new(endpoint);
            wc.name = "rescuer".to_string();
            wc.secret = None;
            run_worker(&wc).expect("rescuer")
        })
    };

    let mut client = ServeClient::connect(&endpoint, "queue-test", None).expect("client");
    let job_a = client
        .submit_raw("job-a", &cfg, &cells_a)
        .expect("submit a");
    let job_b = client
        .submit_raw("job-b", &cfg, &cells_b)
        .expect("submit b");

    let (outputs_a, state_a) = collect_watch(&mut client, job_a, cells_a.len());
    assert_eq!(state_a, JobState::Done);
    assert_eq!(results_json(&outputs_a), expected_a);

    let (outputs_b, state_b) = collect_watch(&mut client, job_b, cells_b.len());
    assert_eq!(state_b, JobState::Done);
    assert_eq!(results_json(&outputs_b), expected_b);

    assert!(
        stuck_got_assignment.load(Ordering::SeqCst),
        "the stuck worker should have been assigned at least one cell"
    );

    client.quit().expect("quit");
    handle.join();
    stuck.join().unwrap();
    let rescued = rescuer.join().unwrap();
    assert_eq!(
        rescued,
        (cells_a.len() + cells_b.len()) as u64,
        "the rescuer must have computed every cell of both jobs"
    );
}

/// A restarted daemon replays done jobs (results, watch stream, matrix)
/// from its state dir, re-queues jobs that never ran, and skips a job it
/// cannot read without losing the others.
#[test]
fn state_dir_survives_daemon_restart() {
    let _guard = serial();
    let state_dir = std::env::temp_dir().join(format!("bobw-serve-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    let cfg = test_config();
    let tb = Testbed::new(cfg.clone());
    let cells = grid(&tb, &["anycast"], 2);
    let expected = local_baseline(&cfg, &cells);

    // First life: run one job to completion.
    let mut serve_cfg = open_serve_config();
    serve_cfg.state_dir = Some(state_dir.clone());
    let handle = daemon::start(serve_cfg).expect("daemon 1");
    let endpoint = handle.endpoint().clone();
    let worker = spawn_worker(&endpoint, "persist-w", 1);
    let mut client = ServeClient::connect(&endpoint, "persist-test", None).expect("client 1");
    let job_id = client
        .submit_raw("persisted", &cfg, &cells)
        .expect("submit");
    let (_, state) = collect_watch(&mut client, job_id, cells.len());
    assert_eq!(state, JobState::Done);
    client.quit().expect("quit 1");
    handle.join();
    worker.join().unwrap();

    // A job persisted by a daemon that still wrote configs as binary
    // (protocol v6): its task opens with `GenConfig` counts, not with a
    // JSON string. Reload must skip it and keep its files.
    let stale_id = job_id + 1;
    let meta = std::fs::read_to_string(state_dir.join(format!("job-{job_id}.json"))).unwrap();
    std::fs::write(state_dir.join(format!("job-{stale_id}.json")), meta).unwrap();
    let v6_task: Vec<u8> = [6u64, 30, 12, 80, 120]
        .iter()
        .flat_map(|n| n.to_le_bytes())
        .collect();
    let stale_task = state_dir.join(format!("job-{stale_id}.task.bin"));
    std::fs::write(&stale_task, &v6_task).unwrap();

    // Second life: no workers at all — the done job must be fully
    // servable from disk, and a new submission must queue behind it.
    let mut serve_cfg = open_serve_config();
    serve_cfg.state_dir = Some(state_dir.clone());
    let handle = daemon::start(serve_cfg).expect("daemon 2");
    let endpoint = handle.endpoint().clone();
    let mut client = ServeClient::connect(&endpoint, "persist-test", None).expect("client 2");

    let rows = client.jobs().expect("jobs");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].id, job_id);
    assert_eq!(rows[0].state, "done");
    assert_eq!(rows[0].cells_done, cells.len());

    let (replayed, state) = collect_watch(&mut client, job_id, cells.len());
    assert_eq!(state, JobState::Done);
    assert_eq!(
        results_json(&replayed),
        expected,
        "replayed results must match the original run byte-for-byte"
    );

    let matrix = client.matrix_json().expect("matrix");
    assert!(
        matrix.contains("\"jobs_included\":1"),
        "unexpected matrix: {matrix}"
    );

    let queued_id = client.submit_raw("later", &cfg, &cells).expect("submit 2");
    assert_eq!(
        queued_id,
        stale_id + 1,
        "ids must continue past every persisted job, skipped ones included"
    );
    let behind_id = client.submit_raw("behind", &cfg, &cells).expect("submit 3");
    client.quit().expect("quit 2");
    handle.join();

    // What a daemon killed mid-job leaves behind: metadata that still
    // says `running` (it is written outside the table lock and may trail
    // the in-memory state).
    let meta_path = state_dir.join(format!("job-{behind_id}.json"));
    let meta = std::fs::read_to_string(&meta_path).expect("meta of the unrun job");
    assert!(
        meta.contains(r#""state":"queued""#),
        "unexpected meta: {meta}"
    );
    std::fs::write(
        &meta_path,
        meta.replace(r#""state":"queued""#, r#""state":"running""#),
    )
    .unwrap();

    // Third life: the unrun job came back queued, not lost or done.
    let mut serve_cfg = open_serve_config();
    serve_cfg.state_dir = Some(state_dir.clone());
    let handle = daemon::start(serve_cfg).expect("daemon 3");
    let endpoint = handle.endpoint().clone();
    let mut client = ServeClient::connect(&endpoint, "persist-test", None).expect("client 3");
    let rows = client.jobs().expect("jobs");
    assert_eq!(rows.len(), 3);
    let later = rows.iter().find(|r| r.id == queued_id).expect("queued job");
    // The scheduler may already have claimed it (it runs as soon as the
    // daemon is up, waiting for workers) — what matters is that the job
    // came back unfinished rather than lost or spuriously done.
    assert!(
        later.state == "queued" || later.state == "running",
        "unexpected state {:?}",
        later.state
    );
    assert_eq!(later.cells_done, 0);
    // The job whose metadata said `running` is queued again — and stays
    // so, behind `later`, which no worker is there to finish.
    let behind = rows.iter().find(|r| r.id == behind_id).expect("behind job");
    assert_eq!(behind.state, "queued");
    assert_eq!(behind.cells_done, 0);
    assert!(rows.iter().all(|r| r.id != stale_id));
    client.quit().expect("quit 3");
    handle.join();
    assert_eq!(std::fs::read(&stale_task).unwrap(), v6_task);

    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A spec submitted as JSON expands server-side against the catalog and
/// runs like any other job; bad specs come back as submit-time errors.
#[test]
fn spec_submission_expands_and_runs() {
    let _guard = serial();
    let handle = daemon::start(open_serve_config()).expect("daemon");
    let endpoint = handle.endpoint().clone();
    let worker = spawn_worker(&endpoint, "spec-w", 2);

    let mut client = ServeClient::connect(&endpoint, "spec-test", None).expect("client");
    let err = client
        .submit_spec(r#"{"techniques": ["warp-drive"]}"#)
        .expect_err("bad technique must be rejected");
    assert!(err.contains("warp-drive"), "unexpected error: {err}");

    // Match the expansion exactly so the byte-identity baseline lines up.
    let spec_cfg = ExperimentConfig::quick(11);
    let tb = Testbed::new(spec_cfg.clone());
    let first_site = tb.cdn.name(tb.cdn.sites().next().unwrap()).to_string();
    let spec = format!(r#"{{"techniques": ["anycast"], "sites": ["{first_site}"], "seed": 11}}"#);
    let cells = vec![CellSpec::Failover {
        technique: "anycast".to_string(),
        site: first_site,
    }];
    let expected = local_baseline(&spec_cfg, &cells);

    let job_id = client.submit_spec(&spec).expect("submit spec");
    let (outputs, state) = collect_watch(&mut client, job_id, 1);
    assert_eq!(state, JobState::Done);
    assert_eq!(results_json(&outputs), expected);

    client.quit().expect("quit");
    handle.join();
    worker.join().unwrap();
}

/// `"scenario": "damping-session-reset"` runs with route-flap damping on,
/// as the `scenarios` bin and `bobw scenario run` run that catalog entry:
/// the served cell equals a local run of that config and differs from one
/// without damping.
#[test]
fn damping_scenario_spec_runs_with_damping() {
    let _guard = serial();
    let handle = daemon::start(open_serve_config()).expect("daemon");
    let endpoint = handle.endpoint().clone();
    let worker = spawn_worker(&endpoint, "damping-w", 1);
    let mut client = ServeClient::connect(&endpoint, "damping-test", None).expect("client");

    let scenario = bobw_scenario::load_file(std::path::Path::new(
        "../../scenarios/damping-session-reset.json",
    ))
    .unwrap();
    let mut undamped = ExperimentConfig::quick(42);
    undamped.scenario = Some(scenario);
    let mut damped = undamped.clone();
    damped.timing.flap_damping = Some(Default::default());
    let cells = vec![CellSpec::Failover {
        technique: "reactive-anycast".into(),
        site: "bos".into(),
    }];
    let expected = local_baseline(&damped, &cells);
    assert_ne!(expected, local_baseline(&undamped, &cells));

    let spec = r#"{"techniques": ["reactive-anycast"], "sites": ["bos"],
                   "scenario": "damping-session-reset"}"#;
    let job_id = client.submit_spec(spec).expect("submit spec");
    let (outputs, state) = collect_watch(&mut client, job_id, 1);
    assert_eq!(state, JobState::Done);
    assert_eq!(results_json(&outputs), expected);

    client.quit().expect("quit");
    handle.join();
    worker.join().unwrap();
}

/// A raw submission whose address plan is inconsistent would fail every
/// cell on a worker; the daemon refuses it at submit, with the reason, and
/// keeps answering.
#[test]
fn bad_address_plan_is_rejected_at_submit() {
    let _guard = serial();
    let handle = daemon::start(open_serve_config()).expect("daemon");
    let endpoint = handle.endpoint().clone();
    let mut client = ServeClient::connect(&endpoint, "plan-test", None).expect("client");
    let mut cfg = test_config();
    cfg.plan.covering = "10.0.0.0/23".parse().unwrap();
    let cells = vec![CellSpec::Failover {
        technique: "anycast".into(),
        site: "bos".into(),
    }];
    let err = client
        .submit_raw("bad-plan", &cfg, &cells)
        .expect_err("a bad plan must be rejected");
    assert!(err.contains("covering prefix must cover"), "{err}");
    // Site blocks without one /24 per site: too small, and below a /24.
    for block in ["184.164.232.0/22", "184.164.232.0/25"] {
        let mut cfg = test_config();
        cfg.plan.site_block = block.parse().unwrap();
        let err = client
            .submit_raw("small-block", &cfg, &cells)
            .expect_err("a block too small for the sites must be rejected");
        assert!(err.contains("one /24 for each of the 8 sites"), "{err}");
    }
    assert!(client.jobs().expect("jobs").is_empty());
    client.status_json().expect("the daemon still answers");

    client.quit().expect("quit");
    handle.join();
}

/// A daemon whose tick is far longer than any of the tests below may
/// take, with one worker attached and seen by the scheduler — which is
/// therefore idle, blocked in its wait, when this returns.
fn idle_daemon_with_long_tick(
    worker_name: &str,
) -> (
    bobw_serve::DaemonHandle,
    std::thread::JoinHandle<u64>,
    ServeClient,
) {
    let mut serve_cfg = open_serve_config();
    serve_cfg.tick = Duration::from_secs(5);
    let handle = daemon::start(serve_cfg).expect("daemon");
    let endpoint = handle.endpoint().clone();
    let worker = spawn_worker(&endpoint, worker_name, 1);
    let mut client = ServeClient::connect(&endpoint, "wake-test", None).expect("client");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !client.status_json().expect("status").contains(worker_name) {
        assert!(Instant::now() < deadline, "worker never attached");
        std::thread::yield_now();
    }
    (handle, worker, client)
}

/// Job pickup must not depend on the tick: with a 5 s tick, a job
/// submitted to an idle daemon is done long before one tick has passed.
#[test]
fn submission_wakes_an_idle_scheduler() {
    let _guard = serial();
    let cfg = test_config();
    let cells = grid(&Testbed::new(cfg.clone()), &["anycast"], 1);
    let (handle, worker, mut client) = idle_daemon_with_long_tick("wake-w");

    let mut run_job = |name: &str| {
        let at = Instant::now();
        let job_id = client.submit_raw(name, &cfg, &cells).expect("submit");
        let (_, state) = collect_watch(&mut client, job_id, cells.len());
        assert_eq!(state, JobState::Done);
        at.elapsed()
    };
    // The first job also pays for the worker's testbed; time the second,
    // submitted once the scheduler is idle again.
    run_job("warm-up");
    let took = run_job("timed");
    assert!(
        took < Duration::from_secs(2),
        "a one-cell job took {took:?}: pickup waited for the tick"
    );

    client.quit().expect("quit");
    handle.join();
    assert_eq!(worker.join().unwrap(), 2);
}

/// Neither must shutdown: `Quit` to an idle daemon with a 5 s tick ends
/// it (scheduler, accept loop, worker) at once.
#[test]
fn quit_wakes_an_idle_scheduler() {
    let _guard = serial();
    let (handle, worker, mut client) = idle_daemon_with_long_tick("quit-w");
    let at = Instant::now();
    client.quit().expect("quit");
    handle.join();
    assert!(
        at.elapsed() < Duration::from_secs(2),
        "shutdown took {:?}: quit waited for the tick",
        at.elapsed()
    );
    assert_eq!(worker.join().unwrap(), 0);
}

/// Watchers wait with no timeout, so a `JobDone` (or cell) notification
/// lost between a watcher's check and its wait would hang it for good.
/// One-cell jobs watched the moment they are submitted put the watcher in
/// that window every time: the last cell is being sent, lock released,
/// while the scheduler flips the job to `Done`.
#[test]
fn watchers_never_miss_job_done() {
    const JOBS: usize = 300;
    let _guard = serial();
    let cfg = test_config();
    let cells = grid(&Testbed::new(cfg.clone()), &["anycast"], 1);
    let handle = daemon::start(open_serve_config()).expect("daemon");
    let endpoint = handle.endpoint().clone();
    let worker = spawn_worker(&endpoint, "watch-w", 1);

    let (finished, all_done) = std::sync::mpsc::channel();
    let client_thread = std::thread::spawn(move || {
        let mut client = ServeClient::connect(&endpoint, "watch-test", None).expect("client");
        for n in 0..JOBS {
            let job_id = client
                .submit_raw(&format!("job-{n}"), &cfg, &cells)
                .expect("submit");
            let (_, state) = collect_watch(&mut client, job_id, cells.len());
            assert_eq!(state, JobState::Done);
        }
        client.quit().expect("quit");
        let _ = finished.send(());
    });
    // A hang must fail the test, not the whole run's time limit; a client
    // thread that panicked drops the sender, and its join reports it.
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
        all_done.recv_timeout(Duration::from_secs(60))
    {
        panic!("{JOBS} watched jobs did not finish in 60 s: a watcher missed a wake-up");
    }
    client_thread.join().expect("client thread");
    handle.join();
    assert_eq!(worker.join().unwrap(), JOBS as u64);
}
