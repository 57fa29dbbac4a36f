//! Message-level BGP session layer.
//!
//! The abstract simulator models a peering as a boolean plus a hold timer.
//! This crate supplies the protocol-fidelity alternative: RFC 4271 wire
//! messages with a hand-rolled codec ([`codec`]), and a per-peer finite
//! state machine ([`fsm`]) whose transitions — not a flag — decide when
//! routes flow and when they are purged.
//!
//! The crate is deliberately pure: no RNG, no clocks, no event queue. The
//! FSM consumes [`fsm::FsmInput`]s and emits [`fsm::FsmOutput`]s; the
//! simulator (in `bobw-bgp`) owns scheduling, jitter, and delivery. That
//! split keeps determinism auditable — every draw of randomness happens in
//! exactly one place, the integration layer — and makes the state machine
//! testable without a simulator (see the exhaustive transition tests in
//! [`fsm`]).

pub mod codec;
pub mod fsm;
pub mod msg;

pub use codec::{decode, decode_into, encode, encode_into, CodecError};
pub use fsm::{DownReason, FsmInput, FsmOutput, PeerFsm, PeerState, SessionConfig, TimerKind};
pub use msg::{
    BgpMessage, Capability, NotificationMsg, OpenMsg, SessionPayload, UpdateAttrs, UpdateMsg,
    CEASE, HOLD_TIMER_EXPIRED,
};
