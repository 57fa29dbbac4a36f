//! Hostile and odd config input, one corpus: truncated, bit-flipped and
//! garbage config JSON inside the two frames that carry a config — a
//! coordinator's `ToWorker::Batch` and a client's `ClientRequest::SubmitRaw`.
//! Every case ends in a typed `WireError` without a panic, and no declared
//! length is trusted past the frame. A bit flip can still leave a valid
//! config behind; in a batch, the worker's fingerprint check then refuses
//! it unless it is the very config that was sent.

use bobw_core::{ExperimentConfig, SessionModel};
use bobw_dist::wire::{decode_exact, encode_vec, Wire, WireError};
use bobw_dist::{config_fingerprint, CellSpec, ToWorker};
use bobw_scenario::{Scenario, ScenarioAction};
use bobw_serve::ClientRequest;
use proptest::prelude::*;

/// A quick config with a subset of the knobs the ablation and scenario
/// grids mutate, chosen by the bits of `knobs`.
fn config(seed: u64, knobs: u8) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(seed);
    if knobs & 1 != 0 {
        cfg.timing.flap_damping = Some(Default::default());
        cfg.timing.mrai_min_s *= 0.25;
    }
    if knobs & 4 != 0 {
        cfg.scenario = Some(Scenario::site_failure(2.5, 1));
        cfg.session_model = SessionModel::MessageLevel;
    }
    if knobs & 2 != 0 {
        // A silent crash and a botched reaction, as a scenario scripts them.
        let mut scenario = cfg
            .scenario
            .take()
            .unwrap_or_else(|| Scenario::site_failure(2.0, 0))
            .crashed();
        for ev in &mut scenario.events {
            if let ScenarioAction::React {
                skip, wrong_prefix, ..
            } = &mut ev.action
            {
                (*skip, *wrong_prefix) = (3, Some(true));
            }
        }
        cfg.scenario = Some(scenario);
    }
    if knobs & 8 != 0 {
        cfg.traffic = Some(Default::default());
    }
    cfg
}

fn cells() -> Vec<CellSpec> {
    vec![CellSpec::Failover {
        technique: "anycast".into(),
        site: "bos".into(),
    }]
}

/// A `SubmitRaw` (`submit`) or `Batch` frame whose config slot holds
/// `json` — any bytes — behind a declared length of `len`.
fn frame(submit: bool, print: u64, json: &[u8], len: u64) -> Vec<u8> {
    let mut out = Vec::new();
    if submit {
        1u32.encode(&mut out); // ClientRequest::SubmitRaw
        "job".to_string().encode(&mut out);
    } else {
        0u32.encode(&mut out); // ToWorker::Batch
        3u64.encode(&mut out);
        print.encode(&mut out);
    }
    len.encode(&mut out);
    out.extend_from_slice(json);
    if submit {
        cells().encode(&mut out);
    }
    out
}

/// The frame a real sender builds for `cfg`.
fn real_frame(submit: bool, cfg: &ExperimentConfig) -> Vec<u8> {
    let json = serde_json::to_string(cfg).unwrap();
    frame(
        submit,
        config_fingerprint(cfg),
        json.as_bytes(),
        json.len() as u64,
    )
}

/// The config a receiver decodes from `frame`, with the fingerprint it
/// travelled with (batches only); `None` for a message without a config.
type Received = Option<(ExperimentConfig, Option<u64>)>;

fn receive(submit: bool, frame: &[u8]) -> Result<Received, WireError> {
    Ok(if submit {
        match decode_exact::<ClientRequest>(frame)? {
            ClientRequest::SubmitRaw { config, .. } => Some((*config, None)),
            _ => None,
        }
    } else {
        match decode_exact::<ToWorker>(frame)? {
            ToWorker::Batch {
                config_print,
                config,
                ..
            } => Some((*config, Some(config_print))),
            _ => None,
        }
    })
}

/// Bytes that look like JSON, so garbage gets past the first character.
const JSONISH: &[u8] = b"{}[]\":,0123456789.-eEtruefalsn _abcz\\";

#[test]
fn hand_built_frames_match_the_real_encoders() {
    let cfg = config(7, 0b1111);
    let batch = ToWorker::Batch {
        batch_id: 3,
        config_print: config_fingerprint(&cfg),
        config: Box::new(cfg.clone()),
    };
    assert_eq!(real_frame(false, &cfg), encode_vec(&batch));
    let submit = ClientRequest::SubmitRaw {
        name: "job".into(),
        config: Box::new(cfg.clone()),
        cells: cells(),
    };
    assert_eq!(real_frame(true, &cfg), encode_vec(&submit));
    for submit in [false, true] {
        let (back, _) = receive(submit, &real_frame(submit, &cfg)).unwrap().unwrap();
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&cfg).unwrap()
        );
    }
}

#[test]
fn maximal_length_prefix_is_oversized() {
    for submit in [false, true] {
        let json = serde_json::to_string(&config(1, 0)).unwrap();
        let evil = frame(submit, 0, json.as_bytes(), u64::MAX);
        assert_eq!(
            receive(submit, &evil).unwrap_err(),
            WireError::Oversized(u64::MAX)
        );
    }
}

/// A config carrying a field this build does not know — the pre-v8
/// `failure_mode` a queued crash job may still carry — is refused in both
/// frames: dropping the field would run the job as a graceful failure.
#[test]
fn unknown_config_fields_are_invalid() {
    for knobs in 0..16 {
        for submit in [false, true] {
            let json = serde_json::to_string(&config(7, knobs)).unwrap();
            let stale = json.replacen(
                r#""scenario":"#,
                r#""failure_mode":"SilentCrash","scenario":"#,
                1,
            );
            assert_ne!(stale, json);
            let err = receive(
                submit,
                &frame(submit, 0, stale.as_bytes(), stale.len() as u64),
            )
            .unwrap_err();
            assert_eq!(err, WireError::Invalid("non-canonical config"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every strict prefix of a config-carrying frame is an error.
    #[test]
    fn truncated_frames_error(
        seed in 0u64..1000,
        knobs in 0u8..16,
        submit in any::<bool>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = real_frame(submit, &config(seed, knobs));
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(receive(submit, &bytes[..cut]).is_err());
    }

    /// Config JSON cut short inside a well-formed frame is invalid.
    #[test]
    fn truncated_config_json_is_invalid(
        seed in 0u64..1000,
        knobs in 0u8..16,
        submit in any::<bool>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let json = serde_json::to_string(&config(seed, knobs)).unwrap();
        let cut = &json.as_bytes()[..((json.len() as f64) * cut_frac) as usize];
        let err = receive(submit, &frame(submit, 0, cut, cut.len() as u64)).unwrap_err();
        prop_assert_eq!(err, WireError::Invalid("malformed config"));
    }

    /// A flipped bit is an error, or leaves a config that is either the
    /// one sent or one the batch's fingerprint refuses.
    #[test]
    fn bit_flips_are_errors_or_refused(
        seed in 0u64..1000,
        knobs in 0u8..16,
        submit in any::<bool>(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let cfg = config(seed, knobs);
        let mut bytes = real_frame(submit, &cfg);
        let pos = ((bytes.len() as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        if let Ok(Some((back, Some(print)))) = receive(submit, &bytes) {
            let same = serde_json::to_string(&back).unwrap() == serde_json::to_string(&cfg).unwrap();
            prop_assert!(same || config_fingerprint(&back) != print);
        }
    }

    /// Arbitrary bytes in the config slot are an invalid value.
    #[test]
    fn garbage_config_is_invalid(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
        submit in any::<bool>(),
    ) {
        let err = receive(submit, &frame(submit, 0, &bytes, bytes.len() as u64)).unwrap_err();
        prop_assert!(matches!(err, WireError::Invalid(_)), "{err:?}");
    }

    /// So is JSON-looking garbage, which gets past the parser's first byte.
    #[test]
    fn jsonish_garbage_config_is_invalid(
        picks in proptest::collection::vec(0usize..JSONISH.len(), 0..512),
        submit in any::<bool>(),
    ) {
        let bytes: Vec<u8> = picks.iter().map(|&i| JSONISH[i]).collect();
        let err = receive(submit, &frame(submit, 0, &bytes, bytes.len() as u64)).unwrap_err();
        prop_assert_eq!(err, WireError::Invalid("malformed config"));
    }

    /// A config length past the end of the frame is refused before any
    /// allocation for it.
    #[test]
    fn length_past_the_frame_is_oversized(
        seed in 0u64..1000,
        submit in any::<bool>(),
        extra in 1u64..(1 << 40),
    ) {
        let json = serde_json::to_string(&config(seed, 0)).unwrap();
        let honest = frame(submit, 0, json.as_bytes(), json.len() as u64);
        let header = if submit { 4 + 8 + 3 + 8 } else { 4 + 8 + 8 + 8 };
        let declared = (honest.len() - header) as u64 + extra;
        let evil = frame(submit, 0, json.as_bytes(), declared);
        prop_assert_eq!(receive(submit, &evil).unwrap_err(), WireError::Oversized(declared));
    }
}
