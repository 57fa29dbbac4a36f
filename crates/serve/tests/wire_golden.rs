//! Golden bytes for every non-config protocol message: the exact
//! encodings a peer of the previous protocol version produced for the same
//! values. Round-trip tests compare decoded values, so they cannot notice
//! a renumbered discriminant or a reordered field; this table can.

use bobw_core::{CellPerf, ControlResult, FailoverResult, TargetOutcome, TrafficSummary};
use bobw_dist::wire::encode_vec;
use bobw_dist::{
    CellOutput, CellSpec, Challenge, ClientHello, FromWorker, Greeting, Hello, HelloReply, ToWorker,
};
use bobw_event::{SimDuration, SimTime};
use bobw_serve::{ClientReply, ClientRequest, JobState};
use bobw_topology::SiteId;

fn hello() -> Hello {
    Hello {
        protocol: 8,
        fingerprint: 0x0123_4567_89ab_cdef,
        worker_name: "w1".into(),
        capacity: 2,
        auth: vec![0xaa, 0xbb],
    }
}

fn client_hello() -> ClientHello {
    ClientHello {
        protocol: 8,
        client_name: "cli".into(),
        auth: Vec::new(),
    }
}

fn perf() -> CellPerf {
    CellPerf {
        events_processed: 1234,
        peak_queue_depth: 56,
        queue_capacity: 64,
        wall_micros: 789,
    }
}

fn control_output() -> CellOutput {
    CellOutput::Control(
        ControlResult {
            site_name: "ams".into(),
            site: SiteId(3),
            num_near: 17,
            frac_not_anycast_routed: 0.25,
            steered: vec![(3, 0.5), (5, f64::NAN)],
        },
        perf(),
    )
}

fn failover_output() -> CellOutput {
    CellOutput::Failover(
        FailoverResult {
            technique: "reactive-anycast".into(),
            site_name: "bos".into(),
            failed_site: SiteId(1),
            num_candidates: 9,
            num_selected: 8,
            num_controllable: 1,
            outcomes: vec![TargetOutcome {
                reconnection: Some(SimDuration::from_nanos(1_500_000_000)),
                failover: None,
                final_site: Some(SiteId(2)),
                bounces: 1,
                losses_after_reconnect: 0,
            }],
            t_fail: SimTime::from_nanos(10_000_000_000),
            traffic: Some(TrafficSummary {
                ticks: 2,
                peak_utilization_before: vec![0.5],
                peak_utilization_after: vec![f64::INFINITY],
                offered: 3.0,
                served: 2.5,
                shed: 0.5,
                scrubbed: 0.0,
                unserved: -0.0,
                resteers: 4,
                target_weights: vec![1.0],
            }),
        },
        perf(),
    )
}

fn cases() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("Hello", encode_vec(&hello())),
        (
            "Challenge",
            encode_vec(&Challenge {
                nonce: vec![1, 2, 3],
                auth_required: true,
            }),
        ),
        ("Greeting::Worker", encode_vec(&Greeting::Worker(hello()))),
        (
            "Greeting::Client",
            encode_vec(&Greeting::Client(client_hello())),
        ),
        ("HelloReply::Welcome", encode_vec(&HelloReply::Welcome)),
        (
            "HelloReply::Rejected",
            encode_vec(&HelloReply::Rejected {
                reason: "no".into(),
            }),
        ),
        (
            "CellSpec::Failover",
            encode_vec(&CellSpec::Failover {
                technique: "anycast".into(),
                site: "bos".into(),
            }),
        ),
        (
            "CellSpec::Control",
            encode_vec(&CellSpec::Control {
                site: "ams".into(),
                prepends: vec![3, 5],
            }),
        ),
        (
            "ToWorker::Assign",
            encode_vec(&ToWorker::Assign {
                batch_id: 1,
                cell_index: 2,
                cell: CellSpec::Control {
                    site: "ams".into(),
                    prepends: vec![3],
                },
            }),
        ),
        ("ToWorker::Drain", encode_vec(&ToWorker::Drain)),
        ("ToWorker::Shutdown", encode_vec(&ToWorker::Shutdown)),
        (
            "FromWorker::Ready",
            encode_vec(&FromWorker::Ready { cache_hit: true }),
        ),
        (
            "FromWorker::Heartbeat",
            encode_vec(&FromWorker::Heartbeat {
                batch_id: 1,
                cell_index: 2,
            }),
        ),
        (
            "FromWorker::Done",
            encode_vec(&FromWorker::Done {
                batch_id: 1,
                cell_index: 2,
                output: Box::new(control_output()),
            }),
        ),
        (
            "FromWorker::Failed",
            encode_vec(&FromWorker::Failed {
                batch_id: 1,
                cell_index: 2,
                error: "boom".into(),
            }),
        ),
        (
            "ClientRequest::Submit",
            encode_vec(&ClientRequest::Submit {
                spec_json: "{}".into(),
            }),
        ),
        ("ClientRequest::Jobs", encode_vec(&ClientRequest::Jobs)),
        (
            "ClientRequest::Watch",
            encode_vec(&ClientRequest::Watch { job_id: 7 }),
        ),
        ("ClientRequest::Status", encode_vec(&ClientRequest::Status)),
        ("ClientRequest::Matrix", encode_vec(&ClientRequest::Matrix)),
        ("ClientRequest::Quit", encode_vec(&ClientRequest::Quit)),
        (
            "ClientReply::Error",
            encode_vec(&ClientReply::Error {
                message: "no".into(),
            }),
        ),
        (
            "ClientReply::Submitted",
            encode_vec(&ClientReply::Submitted { job_id: 7 }),
        ),
        (
            "ClientReply::Jobs",
            encode_vec(&ClientReply::Jobs {
                rows_json: "[]".into(),
            }),
        ),
        (
            "ClientReply::Cell",
            encode_vec(&ClientReply::Cell {
                job_id: 7,
                cell_index: 0,
                output: Box::new(failover_output()),
            }),
        ),
        (
            "ClientReply::JobDone",
            encode_vec(&ClientReply::JobDone {
                job_id: 7,
                state: JobState::Failed,
                error: Some("boom".into()),
            }),
        ),
        (
            "ClientReply::Status",
            encode_vec(&ClientReply::Status { json: "{}".into() }),
        ),
        (
            "ClientReply::Matrix",
            encode_vec(&ClientReply::Matrix { json: "{}".into() }),
        ),
        ("ClientReply::Bye", encode_vec(&ClientReply::Bye)),
        ("JobState::Queued", encode_vec(&JobState::Queued)),
        ("JobState::Running", encode_vec(&JobState::Running)),
        ("JobState::Done", encode_vec(&JobState::Done)),
        ("JobState::Failed", encode_vec(&JobState::Failed)),
    ]
}

/// `(message, hex of its encoding)`, in the order of [`cases`].
const GOLDEN: &[(&str, &str)] = &[
    ("Hello", "08000000efcdab896745230102000000000000007731020000000200000000000000aabb"),
    ("Challenge", "030000000000000001020301"),
    ("Greeting::Worker", "0000000008000000efcdab896745230102000000000000007731020000000200000000000000aabb"),
    ("Greeting::Client", "01000000080000000300000000000000636c690000000000000000"),
    ("HelloReply::Welcome", "00000000"),
    ("HelloReply::Rejected", "0100000002000000000000006e6f"),
    ("CellSpec::Failover", "000000000700000000000000616e79636173740300000000000000626f73"),
    ("CellSpec::Control", "010000000300000000000000616d7302000000000000000305"),
    ("ToWorker::Assign", "0100000001000000000000000200000000000000010000000300000000000000616d73010000000000000003"),
    ("ToWorker::Drain", "02000000"),
    ("ToWorker::Shutdown", "03000000"),
    ("FromWorker::Ready", "0000000001"),
    ("FromWorker::Heartbeat", "0100000001000000000000000200000000000000"),
    ("FromWorker::Done", "0200000001000000000000000200000000000000010000000300000000000000616d73031100000000000000000000000000d03f020000000000000003000000000000e03f05000000000000f87fd204000000000000380000000000000040000000000000001503000000000000"),
    ("FromWorker::Failed", "03000000010000000000000002000000000000000400000000000000626f6f6d"),
    ("ClientRequest::Submit", "0000000002000000000000007b7d"),
    ("ClientRequest::Jobs", "02000000"),
    ("ClientRequest::Watch", "030000000700000000000000"),
    ("ClientRequest::Status", "04000000"),
    ("ClientRequest::Matrix", "05000000"),
    ("ClientRequest::Quit", "06000000"),
    ("ClientReply::Error", "0000000002000000000000006e6f"),
    ("ClientReply::Submitted", "010000000700000000000000"),
    ("ClientReply::Jobs", "0200000002000000000000005b5d"),
    ("ClientReply::Cell", "030000000700000000000000000000000000000000000000100000000000000072656163746976652d616e79636173740300000000000000626f7301090000000000000008000000000000000100000000000000010000000000000001002f685900000000000102010000000000000000e40b540200000001020000000100000000000000000000000000e03f0100000000000000000000000000f07f00000000000008400000000000000440000000000000e03f0000000000000000000000000000008004000000000000000100000000000000000000000000f03fd204000000000000380000000000000040000000000000001503000000000000"),
    ("ClientReply::JobDone", "04000000070000000000000003000000010400000000000000626f6f6d"),
    ("ClientReply::Status", "0500000002000000000000007b7d"),
    ("ClientReply::Matrix", "0600000002000000000000007b7d"),
    ("ClientReply::Bye", "07000000"),
    ("JobState::Queued", "00000000"),
    ("JobState::Running", "01000000"),
    ("JobState::Done", "02000000"),
    ("JobState::Failed", "03000000"),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `wire_enum!` numbers variants by declaration index, the numbering the
/// hand-written impls it replaced used; every message keeps its bytes.
#[test]
fn non_config_messages_keep_their_bytes() {
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len());
    let mismatches: Vec<String> = cases
        .iter()
        .zip(GOLDEN)
        .filter_map(|((name, bytes), (golden_name, expected))| {
            assert_eq!(name, golden_name);
            let got = hex(bytes);
            (got != *expected).then(|| format!("{name}: got {got}, want {expected}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
