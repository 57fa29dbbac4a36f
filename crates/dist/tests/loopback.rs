//! Loopback integration tests for the distributed runner: a real
//! coordinator serving real `bobw-worker` subprocesses over TCP, plus
//! protocol-robustness scenarios (fingerprint/credential rejection,
//! lease-timeout reassignment, garbage greetings) driven by hand-rolled
//! fake workers speaking the v4 challenge handshake.

use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bobw_core::{ExperimentConfig, Testbed};
use bobw_dist::wire::{recv, send};
use bobw_dist::{build_fingerprint, config_fingerprint, AuthSecret, Wire};
use bobw_dist::{
    execute_cell, run_worker, CellOutput, CellSpec, Challenge, ClientHello, Coordinator,
    CoordinatorConfig, Endpoint, FromWorker, Greeting, Hello, HelloReply, ToWorker, WorkerConfig,
    PROTOCOL_VERSION,
};

/// A config small enough for debug-mode tests but large enough that the
/// batch outlives the mid-run worker kill.
fn test_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(5);
    cfg.targets_per_site = 10;
    cfg.probe.duration = bobw_event::SimDuration::from_secs(45);
    cfg
}

/// The full ⟨technique, site⟩ grid the distributed run executes.
fn test_cells(tb: &Testbed) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for technique in ["anycast", "reactive-anycast"] {
        for site in tb.cdn.sites() {
            cells.push(CellSpec::Failover {
                technique: technique.to_string(),
                site: tb.cdn.name(site).to_string(),
            });
        }
    }
    cells
}

/// Serializes the deterministic part of the outputs (results only — perf
/// wall times are host/scheduling dependent by design).
fn results_json(outputs: &[CellOutput]) -> String {
    let mut parts = Vec::with_capacity(outputs.len());
    for o in outputs {
        match o {
            CellOutput::Failover(r, _) => parts.push(serde_json::to_string(r).unwrap()),
            CellOutput::Control(r, _) => parts.push(serde_json::to_string(r).unwrap()),
        }
    }
    parts.join("\n")
}

fn spawn_worker_process(endpoint: &Endpoint, name: &str, threads: usize) -> Child {
    Command::new(env!("CARGO_BIN_EXE_bobw-worker"))
        .args([
            "--connect",
            &endpoint.to_string(),
            "--name",
            name,
            "--threads",
            &threads.to_string(),
        ])
        .env_remove("BOBW_SECRET")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn bobw-worker")
}

/// Explicitly open (no secret), immune to BOBW_SECRET in the test env.
fn open_config() -> CoordinatorConfig {
    CoordinatorConfig {
        secret: None,
        ..CoordinatorConfig::default()
    }
}

/// The tentpole acceptance test: a coordinator plus two real worker
/// subprocesses — one multiplexing two executor threads over its single
/// connection, one killed mid-run — must produce results byte-identical
/// to a sequential local run of the same cells.
#[test]
fn two_workers_one_killed_matches_local() {
    let cfg = test_config();
    let testbed = Testbed::new(cfg.clone());
    let cells = test_cells(&testbed);

    // Local reference: the exact code path Dispatch::Local uses.
    let local: Vec<CellOutput> = cells
        .iter()
        .map(|c| execute_cell(&testbed, c).expect("local cell"))
        .collect();
    let expected = results_json(&local);

    let ep = Endpoint::parse("tcp://127.0.0.1:0").unwrap();
    let mut coordinator = Coordinator::bind(&ep, open_config()).unwrap();
    let serve_at = coordinator.endpoint().expect("bound").clone();

    let w1 = spawn_worker_process(&serve_at, "w1", 2);
    let victim = Arc::new(Mutex::new(spawn_worker_process(&serve_at, "w2", 1)));

    // Kill w2 mid-run; the coordinator must requeue its leased cell(s).
    let killer = {
        let victim = Arc::clone(&victim);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(1000));
            // Ignore errors: the batch may already be over on fast hosts.
            let _ = victim.lock().unwrap().kill();
        })
    };

    let outputs = coordinator.run_batch(&cfg, &cells).expect("batch");
    assert_eq!(outputs.len(), cells.len());
    assert_eq!(
        results_json(&outputs),
        expected,
        "distributed results must be byte-identical to the local run"
    );

    coordinator.shutdown();
    killer.join().unwrap();
    let mut w1 = w1;
    let _ = w1.wait();
    let _ = victim.lock().unwrap().wait();
}

/// Performs the worker side of a v4 handshake by hand: receive the
/// challenge, send a `Greeting::Worker` whose auth tag is produced by
/// `tag` from the challenge nonce, and return the reply.
fn handshake(
    ep: &Endpoint,
    protocol: u32,
    fingerprint: u64,
    tag: impl FnOnce(&Challenge) -> Vec<u8>,
) -> HelloReply {
    let mut conn = ep.connect().unwrap();
    let challenge: Challenge = bobw_dist::wire::recv(&mut conn)
        .unwrap()
        .expect("server sends a challenge first");
    let hello = Hello {
        protocol,
        fingerprint,
        worker_name: "impostor".to_string(),
        capacity: 1,
        auth: tag(&challenge),
    };
    let mut payload = Vec::new();
    Greeting::Worker(hello).encode(&mut payload);
    bobw_dist::wire::write_frame(&mut conn, &payload).unwrap();
    bobw_dist::wire::recv::<_, HelloReply>(&mut conn)
        .unwrap()
        .expect("reply")
}

#[test]
fn handshake_rejects_mismatched_workers() {
    let ep = Endpoint::parse("tcp://127.0.0.1:0").unwrap();
    let coordinator = Coordinator::bind(&ep, open_config()).unwrap();
    let serve_at = coordinator.endpoint().expect("bound").clone();

    let no_tag = |_: &Challenge| Vec::new();
    match handshake(&serve_at, PROTOCOL_VERSION, 0xdead_beef, no_tag) {
        HelloReply::Rejected { reason } => assert!(
            reason.contains("fingerprint"),
            "unexpected reason: {reason}"
        ),
        HelloReply::Welcome => panic!("mismatched fingerprint must be rejected"),
    }
    match handshake(&serve_at, PROTOCOL_VERSION + 1, build_fingerprint(), no_tag) {
        HelloReply::Rejected { reason } => {
            assert!(reason.contains("protocol"), "unexpected reason: {reason}")
        }
        HelloReply::Welcome => panic!("mismatched protocol must be rejected"),
    }
    // A worker one version behind (v6 sent configs as binary) is told why.
    let previous = PROTOCOL_VERSION - 1;
    match handshake(&serve_at, previous, build_fingerprint(), no_tag) {
        HelloReply::Rejected { reason } => assert_eq!(
            reason,
            format!(
                "protocol version mismatch (coordinator {PROTOCOL_VERSION}, worker {previous})"
            )
        ),
        HelloReply::Welcome => panic!("a previous-version worker must be rejected"),
    }
    // A well-formed worker is still welcome afterwards.
    match handshake(&serve_at, PROTOCOL_VERSION, build_fingerprint(), no_tag) {
        HelloReply::Welcome => {}
        HelloReply::Rejected { reason } => panic!("valid worker rejected: {reason}"),
    }
    coordinator.shutdown();
}

/// An authenticated coordinator must reject workers with no credential or
/// a wrong-secret credential, and still welcome a properly tagged one.
#[test]
fn handshake_rejects_unauthenticated_workers() {
    let secret = AuthSecret::new("loopback-test-secret");
    let ep = Endpoint::parse("tcp://127.0.0.1:0").unwrap();
    let coordinator = Coordinator::bind(
        &ep,
        CoordinatorConfig {
            secret: Some(secret.clone()),
            ..CoordinatorConfig::default()
        },
    )
    .unwrap();
    let serve_at = coordinator.endpoint().expect("bound").clone();

    // No credential at all.
    match handshake(&serve_at, PROTOCOL_VERSION, build_fingerprint(), |_| {
        Vec::new()
    }) {
        HelloReply::Rejected { reason } => assert!(
            reason.contains("authentication"),
            "unexpected reason: {reason}"
        ),
        HelloReply::Welcome => panic!("unauthenticated worker must be rejected"),
    }

    // A credential minted from the wrong secret.
    let wrong = AuthSecret::new("not-the-secret");
    match handshake(&serve_at, PROTOCOL_VERSION, build_fingerprint(), |c| {
        wrong.worker_tag(&c.nonce, PROTOCOL_VERSION, build_fingerprint(), "impostor")
    }) {
        HelloReply::Rejected { reason } => assert!(
            reason.contains("authentication"),
            "unexpected reason: {reason}"
        ),
        HelloReply::Welcome => panic!("wrong-secret worker must be rejected"),
    }

    // A correctly tagged hand-rolled worker is welcome.
    match handshake(&serve_at, PROTOCOL_VERSION, build_fingerprint(), |c| {
        secret.worker_tag(&c.nonce, PROTOCOL_VERSION, build_fingerprint(), "impostor")
    }) {
        HelloReply::Welcome => {}
        HelloReply::Rejected { reason } => panic!("authed worker rejected: {reason}"),
    }

    // The real worker path with *no* secret fails fast client-side — the
    // challenge says authentication is required.
    let mut wc = WorkerConfig::new(serve_at);
    wc.name = "anon".to_string();
    wc.secret = None;
    let err = run_worker(&wc).expect_err("secretless worker must fail");
    assert!(err.contains("authentication"), "unexpected error: {err}");

    coordinator.shutdown();
}

/// Sends a client greeting at `protocol` and returns the rejection reason.
fn client_handshake(ep: &Endpoint, protocol: u32) -> String {
    let mut conn = ep.connect().unwrap();
    let _: Challenge = bobw_dist::wire::recv(&mut conn)
        .unwrap()
        .expect("challenge");
    let mut payload = Vec::new();
    Greeting::Client(ClientHello {
        protocol,
        client_name: "curious".to_string(),
        auth: Vec::new(),
    })
    .encode(&mut payload);
    bobw_dist::wire::write_frame(&mut conn, &payload).unwrap();
    match bobw_dist::wire::recv::<_, HelloReply>(&mut conn)
        .unwrap()
        .expect("reply")
    {
        HelloReply::Rejected { reason } => reason,
        HelloReply::Welcome => panic!("client greeting must be rejected by a batch coordinator"),
    }
}

/// A client greeting on a plain batch coordinator is turned away with a
/// pointer at `bobw serve` (or, one version behind, with the version
/// skew), and a garbage first frame (not a greeting at all) just drops
/// the connection.
#[test]
fn handshake_rejects_clients_and_garbage() {
    let ep = Endpoint::parse("tcp://127.0.0.1:0").unwrap();
    let coordinator = Coordinator::bind(&ep, open_config()).unwrap();
    let serve_at = coordinator.endpoint().expect("bound").clone();

    let reason = client_handshake(&serve_at, PROTOCOL_VERSION);
    assert!(reason.contains("bobw serve"), "unexpected reason: {reason}");
    let previous = PROTOCOL_VERSION - 1;
    assert_eq!(
        client_handshake(&serve_at, previous),
        format!("protocol version mismatch (server {PROTOCOL_VERSION}, client {previous})")
    );

    // Garbage greeting: an unknown discriminant. The server must drop the
    // connection without welcoming anything.
    let mut conn = serve_at.connect().unwrap();
    let _: Challenge = bobw_dist::wire::recv(&mut conn)
        .unwrap()
        .expect("challenge");
    bobw_dist::wire::write_frame(&mut conn, &[0xff; 24]).unwrap();
    match bobw_dist::wire::recv::<_, HelloReply>(&mut conn) {
        Ok(None) | Err(_) => {} // dropped, as it must be
        Ok(Some(reply)) => panic!("garbage greeting must not be answered, got {reply:?}"),
    }

    coordinator.shutdown();
}

/// A coordinator-side config holding a non-finite float renders it as
/// JSON `null`. A real worker must refuse such a batch and compute
/// nothing: a plain `f64` field fails to decode, and an `Option<f64>`
/// decodes to `None`, which the config fingerprint check catches.
#[test]
fn worker_refuses_configs_with_non_finite_floats() {
    let mut plain = test_config();
    plain.proximity_ms = f64::NAN;
    let mut optional = test_config();
    let mut scenario = bobw_scenario::Scenario::site_failure(2.0, 0);
    scenario.measure_from_s = Some(f64::INFINITY);
    optional.scenario = Some(scenario);

    for (cfg, why) in [
        (plain, "malformed config"),
        (optional, "config fingerprint mismatch"),
    ] {
        let listener = Endpoint::parse("tcp://127.0.0.1:0")
            .unwrap()
            .bind()
            .unwrap();
        let endpoint = listener.local_endpoint().unwrap();
        let worker = std::thread::spawn(move || {
            let mut wc = WorkerConfig::new(endpoint);
            wc.name = "refuser".to_string();
            wc.secret = None;
            run_worker(&wc)
        });

        // Play the coordinator by hand: handshake, one batch, one cell.
        let mut conn = listener.accept().unwrap();
        let challenge = Challenge {
            nonce: vec![7; 16],
            auth_required: false,
        };
        send(&mut conn, &challenge).unwrap();
        let greeting: Greeting = recv(&mut conn).unwrap().expect("greeting");
        assert!(matches!(greeting, Greeting::Worker(_)));
        send(&mut conn, &HelloReply::Welcome).unwrap();
        let batch = ToWorker::Batch {
            batch_id: 0,
            config_print: config_fingerprint(&cfg),
            config: Box::new(cfg),
        };
        send(&mut conn, &batch).unwrap();
        let assign = ToWorker::Assign {
            batch_id: 0,
            cell_index: 0,
            cell: CellSpec::Failover {
                technique: "anycast".to_string(),
                site: "bos".to_string(),
            },
        };
        // The worker may already have hung up.
        let _ = send(&mut conn, &assign);

        // Checked before the join: a worker that accepted would wait for
        // more work on this connection forever.
        match recv::<_, FromWorker>(&mut conn) {
            Ok(None) | Err(_) => {}
            Ok(Some(msg)) => panic!("a refused batch must get no reply, got {msg:?}"),
        }
        let err = worker.join().unwrap().expect_err("worker must refuse");
        assert!(err.contains(why), "unexpected error: {err}");
    }
}

/// A worker that handshakes correctly, acks the batch, accepts an
/// assignment — and then goes silent (no heartbeat, no result, socket
/// open). The lease must expire and the cell land on a live worker.
#[test]
fn expired_lease_is_reassigned_to_live_worker() {
    let mut cfg = test_config();
    cfg.targets_per_site = 6;
    let testbed = Testbed::new(cfg.clone());
    let cell = CellSpec::Failover {
        technique: "anycast".to_string(),
        site: testbed
            .cdn
            .name(testbed.cdn.sites().next().unwrap())
            .to_string(),
    };
    let expected = results_json(&[execute_cell(&testbed, &cell).unwrap()]);

    let ep = Endpoint::parse("tcp://127.0.0.1:0").unwrap();
    let mut coordinator = Coordinator::bind(
        &ep,
        CoordinatorConfig {
            lease_timeout: Duration::from_millis(300),
            tick: Duration::from_millis(20),
            secret: None,
        },
    )
    .unwrap();
    let serve_at = coordinator.endpoint().expect("bound").clone();

    let stuck_got_assignment = Arc::new(AtomicBool::new(false));
    let stuck = {
        let serve_at = serve_at.clone();
        let got = Arc::clone(&stuck_got_assignment);
        std::thread::spawn(move || {
            let mut conn = serve_at.connect().unwrap();
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
            // Ack batches, swallow the assignment, never answer again —
            // but keep the socket open so only the lease can save the cell.
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

    // A real worker joins late, after the stuck worker owns the lease.
    let rescuer = {
        let serve_at = serve_at.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(700));
            let mut wc = WorkerConfig::new(serve_at);
            wc.name = "rescuer".to_string();
            wc.secret = None;
            run_worker(&wc).expect("rescuer worker")
        })
    };

    let outputs = coordinator
        .run_batch(&cfg, std::slice::from_ref(&cell))
        .expect("batch");
    assert!(
        stuck_got_assignment.load(Ordering::SeqCst),
        "the stuck worker should have received the first assignment"
    );
    assert_eq!(results_json(&outputs), expected);

    coordinator.shutdown();
    let rescued = rescuer.join().unwrap();
    assert_eq!(rescued, 1, "the rescuer must have computed the cell");
    stuck.join().unwrap();
}

/// A `--threads 4` worker multiplexed over one connection must produce
/// the same bytes as the sequential local run — concurrency inside the
/// worker moves scheduling, never content.
#[test]
fn multiplexed_worker_matches_local() {
    let cfg = test_config();
    let testbed = Testbed::new(cfg.clone());
    let cells = test_cells(&testbed);
    let local: Vec<CellOutput> = cells
        .iter()
        .map(|c| execute_cell(&testbed, c).expect("local cell"))
        .collect();

    let ep = Endpoint::parse("tcp://127.0.0.1:0").unwrap();
    let mut coordinator = Coordinator::bind(&ep, open_config()).unwrap();
    let serve_at = coordinator.endpoint().expect("bound").clone();

    let worker = std::thread::spawn(move || {
        let mut wc = WorkerConfig::new(serve_at);
        wc.name = "mux".to_string();
        wc.threads = 4;
        wc.secret = None;
        run_worker(&wc).expect("worker")
    });

    let outputs = coordinator.run_batch(&cfg, &cells).expect("batch");
    assert_eq!(results_json(&outputs), results_json(&local));

    coordinator.shutdown();
    let computed = worker.join().unwrap();
    assert_eq!(computed as usize, cells.len());
}
