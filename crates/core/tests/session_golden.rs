//! Golden pin for the session-fault cells: the event count and a hash of
//! the serialized result of each quick-scale, seed-42, reactive-anycast
//! cell at `bos`, for the five session-fault catalog scenarios under the
//! message-level model plus the abstract silent crash.
//!
//! The numbers freeze the exact order of every FSM step, RNG draw and event
//! push — same-instant events run FIFO, so a reordered push changes them.
//! A deliberate behaviour change updates this table and says why.

use bobw_core::SessionModel::{self, Abstract, MessageLevel};
use bobw_core::{run_failover, ExperimentConfig, Technique, Testbed};

/// FNV-1a over the result's JSON (the same hash `bobw-dist` uses for config
/// fingerprints).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn session_fault_cells_are_frozen() {
    let catalog = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    #[rustfmt::skip]
    let golden: [(&str, SessionModel, u64, u64); 6] = [
        ("session-reset", MessageLevel, 22142, 0xe0566932b4e97ff1),
        ("damping-session-reset", MessageLevel, 21639, 0xb86b993bac4b9ea4),
        ("half-open", MessageLevel, 22347, 0x0608247681e15f40),
        ("graceful-restart", MessageLevel, 12484, 0x1ed11c541b50e9c6),
        ("prefix-hijack", MessageLevel, 16278, 0x8f01ba6940876e97),
        ("silent-crash", Abstract, 11858, 0x8eff68c119955519),
    ];
    for (name, model, events, hash) in golden {
        let scenario = bobw_scenario::load_file(&catalog.join(format!("{name}.json"))).unwrap();
        let mut cfg = ExperimentConfig::quick(42);
        cfg.session_model = model;
        // The catalog convention the `scenarios` bin and the CLI apply.
        if scenario.wants_damping() {
            cfg.timing.flap_damping = Some(bobw_bgp::DampingConfig::default());
        }
        cfg.scenario = Some(scenario);
        let tb = Testbed::new(cfg);
        let (result, perf) = run_failover(&tb, &Technique::ReactiveAnycast, tb.site("bos"))
            .expect("catalog scenario compiles");
        let json = serde_json::to_string(&result).unwrap();
        assert_eq!(
            (perf.events_processed, fnv1a(json.as_bytes())),
            (events, hash),
            "{name} ({model:?}) drifted from its pinned output"
        );
    }
}
