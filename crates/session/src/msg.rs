//! BGP message types (RFC 4271 §4) as the simulator models them.
//!
//! Two representations coexist:
//!
//! - [`BgpMessage`]: the full structured message the codec encodes/decodes.
//!   Heap-backed (capability and prefix lists), used at codec boundaries.
//! - [`SessionPayload`]: the `Copy` digest of the session-management
//!   messages (OPEN / KEEPALIVE / NOTIFICATION) that travels inside the
//!   simulator's event enum, which must stay `Copy`. UPDATE never needs a
//!   digest — route payloads already travel as `bobw_bgp::Message`.
//!
//! Conversions between the two are lossless for everything the simulator
//! cares about; the codec round-trips the full structured form.

use bobw_net::{Asn, Prefix};

/// NOTIFICATION error code: hold timer expired (RFC 4271 §6.5).
pub const HOLD_TIMER_EXPIRED: u8 = 4;
/// NOTIFICATION error code: administrative Cease (RFC 4271 §6.7).
pub const CEASE: u8 = 6;

/// An OPEN message: version, ASN, hold-time proposal, router id, and the
/// advertised capabilities (RFC 3392 optional parameters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMsg {
    pub asn: u32,
    pub hold_time_s: u16,
    /// Router identifier; the simulator uses the node id.
    pub bgp_id: u32,
    pub caps: Vec<Capability>,
}

impl OpenMsg {
    /// The graceful-restart window this OPEN advertises, if any.
    pub fn graceful_restart_s(&self) -> Option<u16> {
        self.caps.iter().find_map(|c| match c {
            Capability::GracefulRestart { restart_time_s } => Some(*restart_time_s),
            _ => None,
        })
    }
}

/// A capability advertised in OPEN (RFC 5492 code points).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Capability {
    /// Four-octet AS numbers (RFC 6793, code 65).
    FourOctetAs { asn: u32 },
    /// Graceful restart (RFC 4724, code 64): restart window in seconds
    /// (12-bit field on the wire, so at most 4095).
    GracefulRestart { restart_time_s: u16 },
    /// Anything else, preserved verbatim so decode(encode(x)) round-trips.
    Unknown { code: u8, data: Vec<u8> },
}

/// The path attributes an UPDATE carries for its announced prefixes.
///
/// `origin_node` is the simulator's catchment-accounting metadata (see
/// `bobw_bgp::WireRoute::origin`); it rides in a private-use optional
/// transitive attribute, the way real CDNs smuggle site identity through
/// communities.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateAttrs {
    pub as_path: Vec<Asn>,
    pub med: u32,
    pub origin_node: u32,
    /// The well-known NO_EXPORT community.
    pub no_export: bool,
}

/// An UPDATE message: withdrawn routes, attributes, announced NLRI.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateMsg {
    pub withdrawn: Vec<Prefix>,
    /// `None` for a pure withdrawal (no NLRI, so no attributes).
    pub attrs: Option<UpdateAttrs>,
    pub nlri: Vec<Prefix>,
}

/// A NOTIFICATION message: error code, subcode, diagnostic data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotificationMsg {
    pub code: u8,
    pub subcode: u8,
    pub data: Vec<u8>,
}

/// One full BGP message, ready for the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BgpMessage {
    Open(OpenMsg),
    Update(UpdateMsg),
    Notification(NotificationMsg),
    Keepalive,
}

impl BgpMessage {
    /// The UPDATE this message holds, after replacing any other message
    /// type with an empty UPDATE — the buffer a caller refills in place.
    pub fn update_mut(&mut self) -> &mut UpdateMsg {
        if !matches!(self, BgpMessage::Update(_)) {
            *self = BgpMessage::Update(UpdateMsg::default());
        }
        match self {
            BgpMessage::Update(u) => u,
            _ => unreachable!("just made an UPDATE"),
        }
    }
}

/// The `Copy` digest of a session-management message, sized for the
/// simulator's event enum. `gr_restart_s == 0` means "no graceful-restart
/// capability advertised" (a zero restart window would be useless anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPayload {
    Open {
        asn: u32,
        hold_time_s: u16,
        gr_restart_s: u16,
    },
    Keepalive,
    Notification {
        code: u8,
        subcode: u8,
    },
}

impl SessionPayload {
    /// Expands the digest into the full message the codec understands.
    pub fn to_message(self, bgp_id: u32) -> BgpMessage {
        match self {
            SessionPayload::Open {
                asn,
                hold_time_s,
                gr_restart_s,
            } => {
                let mut caps = vec![Capability::FourOctetAs { asn }];
                if gr_restart_s > 0 {
                    caps.push(Capability::GracefulRestart {
                        restart_time_s: gr_restart_s,
                    });
                }
                BgpMessage::Open(OpenMsg {
                    asn,
                    hold_time_s,
                    bgp_id,
                    caps,
                })
            }
            SessionPayload::Keepalive => BgpMessage::Keepalive,
            SessionPayload::Notification { code, subcode } => {
                BgpMessage::Notification(NotificationMsg {
                    code,
                    subcode,
                    data: Vec::new(),
                })
            }
        }
    }

    /// Digests a decoded message back into the event-sized form. Returns
    /// `None` for UPDATE, which travels through the route machinery.
    pub fn from_message(msg: &BgpMessage) -> Option<SessionPayload> {
        match msg {
            BgpMessage::Open(o) => Some(SessionPayload::Open {
                asn: o.asn,
                hold_time_s: o.hold_time_s,
                gr_restart_s: o.graceful_restart_s().unwrap_or(0),
            }),
            BgpMessage::Keepalive => Some(SessionPayload::Keepalive),
            BgpMessage::Notification(n) => Some(SessionPayload::Notification {
                code: n.code,
                subcode: n.subcode,
            }),
            BgpMessage::Update(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips_through_full_message() {
        let cases = [
            SessionPayload::Open {
                asn: 65001,
                hold_time_s: 90,
                gr_restart_s: 120,
            },
            SessionPayload::Open {
                asn: 4_200_000_000,
                hold_time_s: 3,
                gr_restart_s: 0,
            },
            SessionPayload::Keepalive,
            SessionPayload::Notification {
                code: CEASE,
                subcode: 2,
            },
        ];
        for p in cases {
            let full = p.to_message(7);
            assert_eq!(SessionPayload::from_message(&full), Some(p));
        }
    }

    #[test]
    fn update_has_no_payload_digest() {
        let u = BgpMessage::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: None,
            nlri: vec![],
        });
        assert_eq!(SessionPayload::from_message(&u), None);
    }
}
