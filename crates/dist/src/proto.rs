//! Protocol messages and their [`Wire`] encodings.
//!
//! The coordinator ships the **full `ExperimentConfig`** in each batch
//! header rather than asking workers to reconstruct it from CLI flags:
//! ablation studies mutate a dozen config knobs (MRAI bands, detection
//! delay, flap damping, fault scripts, …) that no flag set could
//! express, and a worker building even a slightly different config would
//! silently produce different — deterministically wrong — results.
//!
//! The config crosses as **one length-prefixed string holding its
//! canonical JSON**, re-parsed with the typed deserializer on arrival. So
//! a new config knob needs no encoder, and a worker rejects a
//! structurally invalid config (scenario included) at decode time. Every
//! sender writes canonical JSON, so the receiver also refuses JSON that
//! does not re-encode to the same bytes: a field this build does not know
//! would otherwise be dropped without a word. [`config_fingerprint`]
//! hashes that same JSON; the worker re-hashes what it decoded and refuses
//! the batch unless the two agree, which catches a corrupted config that
//! still decodes.
//! Everything else is binary: messages are `wire_struct!` / `wire_enum!`
//! encodings, and cell results keep the exact `f64` bits that
//! byte-identical distributed results rest on.
//!
//! The *handshake* fingerprint guards against a subtler hazard: two
//! builds that parse the same config but whose topology generators (or
//! RNG streams) diverged. [`build_fingerprint`] hashes the protocol
//! version together with the JSON rendering of a topology generated from
//! a fixed canonical config; any semantic drift in the generator changes
//! the hash and the coordinator rejects the worker at `Hello` time
//! instead of merging corrupt cells.

use std::sync::OnceLock;

use bobw_core::{CellPerf, ControlResult, ExperimentConfig, FailoverResult};
use bobw_event::{RngFactory, SimDuration, SimTime};
use bobw_topology::{generate, SiteId};
use serde::{Serialize, Value};

use crate::wire::{Wire, WireError};
use crate::{wire_enum, wire_struct};

/// Bump on any incompatible change to the message set or an encoding.
/// v2: `ExperimentConfig` carries an optional fault scenario.
/// v3: `ExperimentConfig` carries an optional traffic layer; results
/// carry its summary.
/// v4: challenge/HMAC handshake (server sends [`Challenge`] first, peers
/// answer with a [`Greeting`]), multiplexed workers (`Hello` advertises
/// a capacity, `Ready` reports testbed-cache hits), client greetings for
/// the `bobw serve` job service, and `TrafficSummary` gains scrubbed
/// volume.
/// v5: `CellPerf` reports the final event-queue capacity.
/// v6: `ExperimentConfig` carries the session model (abstract vs
/// message-level FSMs) and the traffic config carries per-region capacity
/// overrides. Scenarios still cross as JSON, so the session-fault actions
/// need no encoding change.
/// v7: `ExperimentConfig` crosses as its canonical JSON, so config fields
/// no longer touch the protocol. Every other message keeps its v6 bytes.
/// v8: the config lost `failure_mode` and `reaction_fault` (a scenario
/// scripts both), and a config JSON that does not re-encode to the same
/// bytes — an unknown or stale field, say — is refused.
pub const PROTOCOL_VERSION: u32 = 8;

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// FNV-1a, the same construction the vendored proptest stub uses — small,
/// stable, and plenty for equality fingerprints (this is not security).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of this *build's* experiment semantics: protocol version
/// plus the JSON of the topology the quick-scale config generates. Two
/// binaries agree iff their generators (and the RNG streams beneath them)
/// produce identical worlds.
pub fn build_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        let cfg = ExperimentConfig::quick(0);
        let rng = RngFactory::new(0xb0b3_d157);
        let (topo, _) = generate(&cfg.gen, &rng);
        let json = serde_json::to_string(&topo).expect("topology serializes");
        fnv1a(json.as_bytes()) ^ ((PROTOCOL_VERSION as u64) << 56)
    })
}

/// Fingerprint of one experiment config: the FNV of its canonical JSON.
/// It is the worker's testbed cache key and the per-batch check that the
/// config survived the wire. JSON writes a non-finite float as `null`,
/// which decodes to something else or not at all, so a config holding
/// one gets a fingerprint no decoded config can match.
pub fn config_fingerprint(cfg: &ExperimentConfig) -> u64 {
    let value = cfg.to_value();
    let json = serde_json::to_string(&value).expect("config serializes");
    let print = fnv1a(json.as_bytes());
    if has_non_finite(&value) {
        !print
    } else {
        print
    }
}

fn has_non_finite(v: &Value) -> bool {
    match v {
        Value::Float(f) => !f.is_finite(),
        Value::Array(items) => items.iter().any(has_non_finite),
        Value::Object(entries) => entries.iter().any(|(_, v)| has_non_finite(v)),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Cell descriptions and outputs
// ---------------------------------------------------------------------------

/// One unit of distributable work. Sites travel by *name* (the grids in
/// `ablation.rs` and friends are written in site names) and techniques by
/// their paper name, which round-trips through `Technique::parse`.
#[derive(Debug, Clone, PartialEq)]
pub enum CellSpec {
    /// A §5.2 failover experiment: run `technique`, fail `site`.
    Failover { technique: String, site: String },
    /// A Table 1 control measurement of `site` across `prepends`.
    Control { site: String, prepends: Vec<u8> },
}

/// The result of one executed cell, mirroring [`CellSpec`].
#[derive(Debug, Clone)]
pub enum CellOutput {
    Failover(FailoverResult, CellPerf),
    Control(ControlResult, CellPerf),
}

impl CellOutput {
    pub fn perf(&self) -> CellPerf {
        match self {
            CellOutput::Failover(_, p) | CellOutput::Control(_, p) => *p,
        }
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// First frame the *server* (coordinator or `bobw serve` daemon) sends
/// on every accepted connection: a fresh nonce the peer must fold into
/// its authentication tag, plus whether a tag is required at all (no
/// configured secret ⇒ open, the pre-v4 behavior).
#[derive(Debug, Clone, PartialEq)]
pub struct Challenge {
    pub nonce: Vec<u8>,
    pub auth_required: bool,
}

/// First frame a peer sends after the [`Challenge`]: identifies the
/// connection as a cell-computing worker or a job-service client. A
/// plain batch coordinator rejects `Client` greetings; the `bobw serve`
/// daemon accepts both on one listener.
#[derive(Debug, Clone, PartialEq)]
pub enum Greeting {
    Worker(Hello),
    Client(ClientHello),
}

/// Worker half of a [`Greeting`].
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    pub protocol: u32,
    /// [`build_fingerprint`] of the worker's binary.
    pub fingerprint: u64,
    /// Human-readable worker name for logs (hostname/pid by default).
    pub worker_name: String,
    /// Concurrent cells this worker computes (its `--threads`); the
    /// coordinator assigns up to this many cells over the one connection.
    pub capacity: u32,
    /// HMAC tag over (nonce, protocol, fingerprint, name); empty when the
    /// worker has no secret configured.
    pub auth: Vec<u8>,
}

/// Client half of a [`Greeting`] (submit/watch/status connections).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientHello {
    pub protocol: u32,
    /// Human-readable client name for logs.
    pub client_name: String,
    /// HMAC tag over (nonce, protocol, name); empty when unauthenticated.
    pub auth: Vec<u8>,
}

/// Coordinator's answer to a [`Hello`].
#[derive(Debug, Clone, PartialEq)]
pub enum HelloReply {
    Welcome,
    /// The worker must exit; `reason` is for its log.
    Rejected {
        reason: String,
    },
}

/// Coordinator → worker after the handshake.
#[derive(Debug, Clone)]
pub enum ToWorker {
    /// Announces a batch: workers (re)build their testbed for `config`
    /// (cached across batches by [`config_fingerprint`]).
    Batch {
        batch_id: u64,
        config_print: u64,
        /// Boxed to keep the enum lease-message-sized (the config dwarfs
        /// every other variant).
        config: Box<ExperimentConfig>,
    },
    /// Assigns one cell of the current batch.
    Assign {
        batch_id: u64,
        cell_index: u64,
        cell: CellSpec,
    },
    /// No more cells in this batch; idle until the next `Batch`.
    Drain,
    /// The run is over; the worker exits.
    Shutdown,
}

/// Worker → coordinator after the handshake.
#[derive(Debug, Clone)]
pub enum FromWorker {
    /// Acknowledges a `Batch`: the testbed for its config is up (either
    /// freshly built or — `cache_hit` — served warm from the worker's
    /// process-wide cache) and the worker will accept assignments.
    Ready { cache_hit: bool },
    /// Still alive and still computing `cell_index` (lease renewal).
    Heartbeat { batch_id: u64, cell_index: u64 },
    /// A finished cell. Boxed to keep the enum heartbeat-sized (the
    /// result dwarfs every other variant).
    Done {
        batch_id: u64,
        cell_index: u64,
        output: Box<CellOutput>,
    },
    /// The worker could not run the cell (bad technique name, unknown
    /// site, …). The coordinator treats the worker as poisoned for this
    /// cell and reassigns elsewhere.
    Failed {
        batch_id: u64,
        cell_index: u64,
        error: String,
    },
}

// ---------------------------------------------------------------------------
// Wire impls — protocol messages
// ---------------------------------------------------------------------------

wire_struct!(Hello {
    protocol,
    fingerprint,
    worker_name,
    capacity,
    auth
});

wire_struct!(ClientHello {
    protocol,
    client_name,
    auth
});

wire_struct!(Challenge {
    nonce,
    auth_required
});

wire_enum!(Greeting {
    Worker(hello),
    Client(hello)
});

wire_enum!(HelloReply {
    Welcome,
    Rejected { reason }
});

wire_enum!(CellSpec {
    Failover { technique, site },
    Control { site, prepends }
});

wire_enum!(CellOutput {
    Failover(result, perf),
    Control(result, perf)
});

wire_enum!(ToWorker {
    Batch {
        batch_id,
        config_print,
        config
    },
    Assign {
        batch_id,
        cell_index,
        cell
    },
    Drain,
    Shutdown
});

wire_enum!(FromWorker {
    Ready { cache_hit },
    Heartbeat {
        batch_id,
        cell_index
    },
    Done {
        batch_id,
        cell_index,
        output
    },
    Failed {
        batch_id,
        cell_index,
        error
    }
});

// Configs cross the wire as their canonical JSON and are re-parsed with
// the *typed* deserializer on arrival, so a worker rejects a structurally
// invalid config at decode time — before it can build a testbed from it —
// and a config carrying fields it does not know (an older client's
// `failure_mode`, say) instead of running it without them.
impl Wire for ExperimentConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        serde_json::to_string(self)
            .expect("config serializes")
            .encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let json = String::decode(buf)?;
        let config: ExperimentConfig = serde_json::from_str_typed(&json)
            .map_err(|_| WireError::Invalid("malformed config"))?;
        if serde_json::to_string(&config).ok().as_deref() != Some(json.as_str()) {
            return Err(WireError::Invalid("non-canonical config"));
        }
        Ok(config)
    }
}

// ---------------------------------------------------------------------------
// Wire impls — results
// ---------------------------------------------------------------------------

impl Wire for SimDuration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_nanos().encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SimDuration::from_nanos(u64::decode(buf)?))
    }
}

impl Wire for SimTime {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_nanos().encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SimTime::from_nanos(u64::decode(buf)?))
    }
}

impl Wire for SiteId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(SiteId(u8::decode(buf)?))
    }
}

wire_struct!(bobw_core::TargetOutcome {
    reconnection,
    failover,
    final_site,
    bounces,
    losses_after_reconnect
});

wire_struct!(FailoverResult {
    technique,
    site_name,
    failed_site,
    num_candidates,
    num_selected,
    num_controllable,
    outcomes,
    t_fail,
    traffic
});

wire_struct!(bobw_core::TrafficSummary {
    ticks,
    peak_utilization_before,
    peak_utilization_after,
    offered,
    served,
    shed,
    scrubbed,
    unserved,
    resteers,
    target_weights
});

wire_struct!(ControlResult {
    site_name,
    site,
    num_near,
    frac_not_anycast_routed,
    steered
});

wire_struct!(CellPerf {
    events_processed,
    peak_queue_depth,
    queue_capacity,
    wall_micros
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_exact, encode_vec};

    /// A config with every optional knob exercised — the ablation bins'
    /// mutations must survive the wire exactly.
    fn every_knob_config() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(99);
        cfg.timing.flap_damping = Some(bobw_bgp::DampingConfig::default());
        cfg.timing.withdrawal_rate_limiting = true;
        cfg.timing.mrai_min_s *= 0.25;
        cfg.pre_failure_flaps = 4;
        cfg.detection_delay = SimDuration::from_nanos(123_456_789);
        cfg.scenario = Some(bobw_scenario::Scenario::site_failure(2.5, 3).crashed());
        cfg.traffic = Some(bobw_core::TrafficConfig {
            capacity_headroom: 1.25,
            control_every: 5,
            region_capacity: vec![
                bobw_core::RegionCapacity {
                    region: "seattle".into(),
                    factor: 2.0,
                },
                bobw_core::RegionCapacity {
                    region: "boston".into(),
                    factor: 0.5,
                },
            ],
            ..Default::default()
        });
        cfg.session_model = bobw_core::SessionModel::MessageLevel;
        cfg
    }

    #[test]
    fn experiment_config_round_trips_exactly() {
        for cfg in [
            ExperimentConfig::quick(3),
            ExperimentConfig::eval(42),
            every_knob_config(),
        ] {
            let json = serde_json::to_string(&cfg).unwrap();
            let bytes = encode_vec(&cfg);
            // On the wire the config is exactly its length-prefixed JSON.
            assert_eq!(bytes, encode_vec(&json));
            let back: ExperimentConfig = decode_exact(&bytes).unwrap();
            // The vendored serde can't derive PartialEq-able configs, but JSON
            // rendering is canonical: equal JSON ⇒ equal config.
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
            assert_eq!(encode_vec(&back), bytes);
            assert_eq!(config_fingerprint(&cfg), config_fingerprint(&back));
        }
    }

    /// A non-finite float renders as `null`: the config either fails to
    /// decode (a plain `f64` field) or decodes to a different value (an
    /// `Option<f64>`), and in both cases its fingerprint matches nothing a
    /// worker can decode.
    #[test]
    fn non_finite_configs_cannot_match_a_decoded_fingerprint() {
        let mut plain = ExperimentConfig::quick(3);
        plain.proximity_ms = f64::NAN;
        assert_eq!(
            decode_exact::<ExperimentConfig>(&encode_vec(&plain)).unwrap_err(),
            WireError::Invalid("malformed config")
        );

        let mut optional = ExperimentConfig::quick(3);
        let mut scenario = bobw_scenario::Scenario::site_failure(2.0, 0);
        scenario.measure_from_s = Some(f64::INFINITY);
        optional.scenario = Some(scenario);
        let back: ExperimentConfig = decode_exact(&encode_vec(&optional)).unwrap();
        assert_eq!(back.scenario.unwrap().measure_from_s, None);
        let mut decoded = optional.clone();
        decoded.scenario.as_mut().unwrap().measure_from_s = None;
        assert_ne!(config_fingerprint(&optional), config_fingerprint(&decoded));
        assert_eq!(
            serde_json::to_string(&optional).unwrap(),
            serde_json::to_string(&decoded).unwrap()
        );
    }

    #[test]
    fn cell_messages_round_trip() {
        let spec = CellSpec::Failover {
            technique: "proactive-prepending-3-selective".into(),
            site: "sea1".into(),
        };
        let bytes = encode_vec(&spec);
        assert_eq!(decode_exact::<CellSpec>(&bytes).unwrap(), spec);

        let spec = CellSpec::Control {
            site: "ams".into(),
            prepends: vec![3, 5],
        };
        let bytes = encode_vec(&spec);
        assert_eq!(decode_exact::<CellSpec>(&bytes).unwrap(), spec);

        let hello = Hello {
            protocol: PROTOCOL_VERSION,
            fingerprint: build_fingerprint(),
            worker_name: "w-1".into(),
            capacity: 8,
            auth: vec![0xaa; 32],
        };
        let bytes = encode_vec(&hello);
        assert_eq!(decode_exact::<Hello>(&bytes).unwrap(), hello);

        let challenge = Challenge {
            nonce: crate::auth::fresh_nonce(),
            auth_required: true,
        };
        let bytes = encode_vec(&challenge);
        assert_eq!(decode_exact::<Challenge>(&bytes).unwrap(), challenge);

        let greeting = Greeting::Client(ClientHello {
            protocol: PROTOCOL_VERSION,
            client_name: "cli".into(),
            auth: Vec::new(),
        });
        let bytes = encode_vec(&greeting);
        assert_eq!(decode_exact::<Greeting>(&bytes).unwrap(), greeting);

        let reply = HelloReply::Rejected {
            reason: "fingerprint mismatch".into(),
        };
        let bytes = encode_vec(&reply);
        assert_eq!(decode_exact::<HelloReply>(&bytes).unwrap(), reply);
    }

    #[test]
    fn failover_result_round_trips_via_execution() {
        use bobw_core::{run_failover, Technique, Testbed};
        let mut cfg = ExperimentConfig::quick(7);
        cfg.targets_per_site = 20;
        let tb = Testbed::new(cfg);
        let site = tb.site("bos");
        let (r, perf) = run_failover(&tb, &Technique::ReactiveAnycast, site).expect("cell runs");
        let out = CellOutput::Failover(r.clone(), perf);
        let bytes = encode_vec(&out);
        let back: CellOutput = decode_exact(&bytes).unwrap();
        let CellOutput::Failover(r2, p2) = back else {
            panic!("wrong variant");
        };
        assert_eq!(r.outcomes, r2.outcomes);
        assert_eq!(r.site_name, r2.site_name);
        assert_eq!(r.t_fail, r2.t_fail);
        assert_eq!(r.num_candidates, r2.num_candidates);
        assert_eq!(perf.events_processed, p2.events_processed);
        // JSON rendering — what actually lands in results/*.json — must be
        // identical after a wire round trip.
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    /// A traffic-enabled cell's summary (peak utilizations, shed volume,
    /// demand weights) must survive the wire bit-for-bit — the extended
    /// resilience matrix is computed on the coordinator from these.
    #[test]
    fn traffic_summary_round_trips_via_execution() {
        use bobw_core::{run_failover, Technique, Testbed};
        let mut cfg = ExperimentConfig::quick(7);
        cfg.targets_per_site = 20;
        cfg.traffic = Some(bobw_core::TrafficConfig::default());
        let tb = Testbed::new(cfg);
        let site = tb.site("bos");
        let (r, perf) = run_failover(&tb, &Technique::ReactiveAnycast, site).expect("cell runs");
        assert!(r.traffic.is_some(), "traffic layer must have observed");
        let bytes = encode_vec(&CellOutput::Failover(r.clone(), perf));
        let back: CellOutput = decode_exact(&bytes).unwrap();
        let CellOutput::Failover(r2, _) = back else {
            panic!("wrong variant");
        };
        assert_eq!(r.traffic, r2.traffic);
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    #[test]
    fn build_fingerprint_is_stable_within_a_build() {
        assert_eq!(build_fingerprint(), build_fingerprint());
        assert_ne!(build_fingerprint(), 0);
    }

    /// A scenario that crossed the wire inside its config must compile to
    /// a byte-identical event list on the worker — including the
    /// RNG-jittered flap cycles, which is what coordinator/worker
    /// byte-identity of results rests on.
    #[test]
    fn scenario_compiles_identically_after_wire_round_trip() {
        use bobw_core::Testbed;
        use bobw_scenario::{Scenario, ScenarioAction, ScenarioEvent};

        let mut scenario = Scenario::site_failure(2.0, 0);
        scenario.events.insert(
            0,
            ScenarioEvent {
                at_s: 1.0,
                action: ScenarioAction::Flap {
                    site: "$site".into(),
                    count: 3,
                    period_s: 3.0,
                    down_s: 1.0,
                    jitter_s: 1.5,
                },
            },
        );
        let mut cfg = ExperimentConfig::quick(7);
        cfg.scenario = Some(scenario.clone());
        let back: ExperimentConfig = decode_exact(&encode_vec(&cfg)).unwrap();
        let remote_scenario = back.scenario.expect("scenario survives the wire");
        assert_eq!(remote_scenario, scenario);

        let tb = Testbed::new(ExperimentConfig::quick(7));
        let site = tb.site("bos");
        let local = scenario.compile(&tb.topo, &tb.cdn, &tb.rng, site).unwrap();
        let remote = remote_scenario
            .compile(&tb.topo, &tb.cdn, &tb.rng, site)
            .unwrap();
        assert_eq!(local, remote);
        assert_eq!(
            serde_json::to_string(&local).unwrap(),
            serde_json::to_string(&remote).unwrap()
        );
    }

    /// The canonical JSON of `cfg` with its first `from` replaced by `to`,
    /// framed the way a config travels.
    fn tampered_config(cfg: &ExperimentConfig, from: &str, to: &str) -> Vec<u8> {
        let json = serde_json::to_string(cfg).unwrap();
        assert!(json.contains(from), "{from} not in {json}");
        encode_vec(&json.replacen(from, to, 1))
    }

    /// A malformed scenario inside a config is rejected at decode time,
    /// before a worker could try to build a testbed from it.
    #[test]
    fn malformed_scenario_is_rejected_at_decode() {
        let bytes = tampered_config(
            &ExperimentConfig::quick(7),
            r#""scenario":null"#,
            r#""scenario":{"name":"x"}"#,
        );
        let err = decode_exact::<ExperimentConfig>(&bytes).unwrap_err();
        assert_eq!(err, WireError::Invalid("malformed config"));
    }

    /// `Prefix`'s invariant holds on the JSON path too: a length past 32
    /// inside a batch frame is a typed error, not a later shift overflow.
    #[test]
    fn out_of_range_prefix_in_a_batch_frame_is_invalid() {
        let cfg = ExperimentConfig::quick(7);
        let covering = serde_json::to_string(&cfg.plan.covering).unwrap();
        let config = tampered_config(&cfg, &covering, r#"{"bits":0,"len":40}"#);
        let mut frame = encode_vec(&0u32); // ToWorker::Batch
        1u64.encode(&mut frame);
        config_fingerprint(&cfg).encode(&mut frame);
        frame.extend_from_slice(&config);
        assert_eq!(
            decode_exact::<ToWorker>(&frame).unwrap_err(),
            WireError::Invalid("malformed config")
        );
    }
}
