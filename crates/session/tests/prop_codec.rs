//! Property tests for the BGP wire codec: every message type round-trips
//! through encode/decode, and the decoder rejects — without panicking —
//! truncated messages and arbitrary garbage. Mirrors the dist handshake's
//! garbage-rejection discipline. Decoding into a buffer that still holds an
//! earlier message agrees exactly with a fresh decode.

use bobw_net::{Asn, Prefix};
use bobw_session::{
    decode, decode_into, encode, BgpMessage, Capability, NotificationMsg, OpenMsg, UpdateAttrs,
    UpdateMsg,
};
use proptest::prelude::*;
use proptest::TestCaseError;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (0u32..=u32::MAX, 0u8..=32).prop_map(|(bits, len)| Prefix::new(bits, len))
}

fn arb_caps() -> impl Strategy<Value = Vec<Capability>> {
    proptest::collection::vec(
        prop_oneof![
            (1u16..=4095).prop_map(|restart_time_s| Capability::GracefulRestart { restart_time_s }),
            // Codes 64/65 are claimed by the known capabilities; stay clear
            // so Unknown round-trips as Unknown.
            (66u8..=255, proptest::collection::vec(0u8..=255, 0..8))
                .prop_map(|(code, data)| Capability::Unknown { code, data }),
        ],
        0..3,
    )
}

fn arb_open() -> impl Strategy<Value = BgpMessage> {
    (0u32..=u32::MAX, 0u16..=65535, 0u32..=u32::MAX, arb_caps()).prop_map(
        |(asn, hold_time_s, bgp_id, mut caps)| {
            // The four-octet capability always travels (as the simulator
            // sends it); it is also what makes any 32-bit ASN encodable.
            caps.insert(0, Capability::FourOctetAs { asn });
            BgpMessage::Open(OpenMsg {
                asn,
                hold_time_s,
                bgp_id,
                caps,
            })
        },
    )
}

fn arb_attrs() -> impl Strategy<Value = UpdateAttrs> {
    (
        proptest::collection::vec((0u32..=u32::MAX).prop_map(Asn), 0..300),
        0u32..=u32::MAX,
        0u32..=u32::MAX,
        any::<bool>(),
    )
        .prop_map(|(as_path, med, origin_node, no_export)| UpdateAttrs {
            as_path,
            med,
            origin_node,
            no_export,
        })
}

fn arb_update() -> impl Strategy<Value = BgpMessage> {
    (
        proptest::collection::vec(arb_prefix(), 0..6),
        arb_attrs(),
        proptest::collection::vec(arb_prefix(), 0..6),
    )
        .prop_map(|(withdrawn, attrs, nlri)| {
            // Attributes only make sense alongside NLRI (encode enforces
            // the NLRI-without-attrs direction).
            let attrs = (!nlri.is_empty()).then_some(attrs);
            BgpMessage::Update(UpdateMsg {
                withdrawn,
                attrs,
                nlri,
            })
        })
}

fn arb_notification() -> impl Strategy<Value = BgpMessage> {
    (
        0u8..=255,
        0u8..=255,
        proptest::collection::vec(0u8..=255, 0..16),
    )
        .prop_map(|(code, subcode, data)| {
            BgpMessage::Notification(NotificationMsg {
                code,
                subcode,
                data,
            })
        })
}

fn arb_message() -> impl Strategy<Value = BgpMessage> {
    prop_oneof![
        arb_open(),
        arb_update(),
        arb_notification(),
        Just(BgpMessage::Keepalive),
    ]
}

fn announce(attrs: UpdateAttrs, nlri: Vec<Prefix>) -> BgpMessage {
    BgpMessage::Update(UpdateMsg {
        withdrawn: Vec::new(),
        attrs: Some(attrs),
        nlri,
    })
}

fn arb_nlri() -> impl Strategy<Value = Vec<Prefix>> {
    proptest::collection::vec(arb_prefix(), 1..6)
}

/// Message pairs whose second half is most likely to inherit state from the
/// first through a reused buffer: a NO_EXPORT update then a plain one,
/// attributes then a withdrawal, an OPEN then an UPDATE.
fn arb_leaky_pair() -> impl Strategy<Value = (BgpMessage, BgpMessage)> {
    prop_oneof![
        (arb_attrs(), arb_nlri(), arb_attrs(), arb_nlri()).prop_map(|(mut a, n, mut b, m)| {
            a.no_export = true;
            b.no_export = false;
            (announce(a, n), announce(b, m))
        }),
        (arb_attrs(), arb_nlri(), arb_nlri()).prop_map(|(a, n, withdrawn)| {
            let withdrawal = BgpMessage::Update(UpdateMsg {
                withdrawn,
                attrs: None,
                nlri: Vec::new(),
            });
            (announce(a, n), withdrawal)
        }),
        (arb_open(), arb_update()),
    ]
}

/// The encoding of `msg`, left intact, cut at `frac` of its length, or
/// with one bit flipped at `frac`.
fn mutated(msg: &BgpMessage, (mutation, frac, bit): (u8, f64, u8)) -> Vec<u8> {
    let mut bytes = encode(msg).expect("encodes");
    let pos = ((bytes.len() as f64) * frac) as usize;
    match mutation {
        1 => bytes.truncate(pos),
        2 => bytes[pos] ^= 1 << bit,
        _ => {}
    }
    bytes
}

fn arb_mutation() -> impl Strategy<Value = (u8, f64, u8)> {
    (0u8..3, 0.0f64..1.0, 0u8..8)
}

/// Decoding `bytes` into a buffer holding `prev` gives exactly what a fresh
/// decode gives: equal messages and lengths, or an error from both.
fn dirty_decode_agrees(prev: &BgpMessage, bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut out = prev.clone();
    let dirty = decode_into(bytes, &mut out).map(|len| (out, len));
    match (dirty, decode(bytes)) {
        (Ok(dirty), Ok(fresh)) => prop_assert_eq!(dirty, fresh),
        (Err(_), Err(_)) => {}
        (dirty, fresh) => prop_assert!(false, "decode_into {dirty:?} but decode {fresh:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// decode(encode(msg)) == msg for every message type.
    #[test]
    fn every_message_type_round_trips(msg in arb_message()) {
        let bytes = encode(&msg).expect("simulator-shaped messages encode");
        let (back, used) = decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, msg);
    }

    /// Every strict prefix of a valid encoding is rejected, never panics.
    #[test]
    fn truncation_always_errors(msg in arb_message(), cut_frac in 0.0f64..1.0) {
        let bytes = encode(&msg).expect("encodes");
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(cut < bytes.len());
        prop_assert!(decode(&bytes[..cut]).is_err());
    }

    /// Arbitrary garbage never panics the decoder; without the all-ones
    /// marker it is always rejected.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let _ = decode(&bytes);
        if bytes.len() >= 16 && bytes[..16].iter().any(|&b| b != 0xFF) {
            prop_assert!(decode(&bytes).is_err());
        }
    }

    /// Single-byte corruption of a valid message either decodes to some
    /// well-formed message or errors — it never panics. (Bit flips in
    /// length/type/body fields exercise every validation path.)
    #[test]
    fn bit_flips_never_panic(msg in arb_message(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = encode(&msg).expect("encodes");
        let pos = ((bytes.len() as f64) * pos_frac) as usize;
        prop_assert!(pos < bytes.len());
        bytes[pos] ^= 1 << bit;
        let _ = decode(&bytes);
    }

    /// `decode_into` over any earlier message ≡ `decode`, on intact,
    /// truncated and bit-flipped frames.
    #[test]
    fn decode_into_a_dirty_buffer_matches_decode(
        prev in arb_message(),
        next in arb_message(),
        mutation in arb_mutation(),
    ) {
        dirty_decode_agrees(&prev, &mutated(&next, mutation))?;
    }

    /// The same over the pairs most likely to leak `withdrawn`, `nlri`,
    /// `as_path`, `med` or `no_export` from one message into the next.
    #[test]
    fn decode_into_after_a_leaky_predecessor_matches_decode(
        pair in arb_leaky_pair(),
        mutation in arb_mutation(),
    ) {
        let (prev, next) = pair;
        dirty_decode_agrees(&prev, &mutated(&next, mutation))?;
    }
}
