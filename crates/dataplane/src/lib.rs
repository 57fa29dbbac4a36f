//! # bobw-dataplane
//!
//! The data plane of the *Best of Both Worlds* simulator: hop-by-hop packet
//! forwarding over the BGP FIBs, anycast catchment computation, path RTT,
//! and a Verfploeter-style prober.
//!
//! The paper measures availability on the data plane: after emulating a
//! site failure it pings every controllable target every ~1.5 s for ~600 s
//! and records at which site (if any) each reply arrives (§5.2). This crate
//! reproduces that instrument:
//!
//! * [`forward::walk`] follows each node's longest-prefix-match FIB entry
//!   hop by hop, so packets die in exactly the ways BGP convergence lets
//!   them die — blackholed at a router with no route, looping between
//!   routers holding mutually stale routes, or arriving at a failed site.
//! * [`probe`] holds the paper's probing protocol: the probing parameters
//!   and the per-probe record, with sequence numbers (to detect
//!   disconnection) and the site each reply landed at.
//! * [`mod@catchment`] computes which site each client AS reaches — the basis
//!   of the paper's target selection ("not routed to the site by anycast")
//!   and Table 1's traffic-control percentages.

pub mod catchment;
pub mod forward;
pub mod packet;
pub mod probe;

pub use catchment::{catchment, rtt_to_site};
pub use forward::{walk, walk_with_deps, walk_with_path, Delivery, ForwardEnv, WalkDeps};
pub use packet::{internet_checksum, IcmpEcho, PacketError, ETHICS_PAYLOAD};
pub use probe::{ProbeConfig, ProbeOutcome, ProbeRecord};
