//! # bobw-bgp
//!
//! An AS-level BGP simulator built for one purpose: reproducing the routing
//! dynamics that the *Best of Both Worlds* paper (IMC '22) measures on the
//! real Internet. The paper's findings are all consequences of four BGP
//! behaviours, each implemented here:
//!
//! 1. **The decision process** (RFC 4271 order: LOCAL_PREF, then AS-path
//!    length, then MED, then deterministic tiebreaks) with Gao-Rexford
//!    import preferences (customer > peer > provider). This is why
//!    `proactive-prepending` loses control at some sites: a *customer*
//!    route to a prepended backup site beats a *peer* route to the intended
//!    site no matter the prepend count (Appendix C.1).
//! 2. **Valley-free export** (routes from customers go to everyone; routes
//!    from peers/providers go only to customers), which shapes every
//!    catchment in Table 1.
//! 3. **Path exploration with MRAI rate-limiting**: when a node's best
//!    route is withdrawn it falls back to (possibly stale) alternatives
//!    from other neighbors and re-advertises them; each correction round is
//!    paced by the Min Route Advertisement Interval, while withdrawals
//!    themselves travel un-throttled. That asymmetry is exactly why a
//!    unicast withdrawal takes ~100 s to converge (Appendix A, Figure 3)
//!    while a fresh anycast announcement propagates in ~10 s (Appendix B,
//!    Figure 4) — and therefore why `reactive-anycast` beats
//!    `proactive-superprefix` (§4).
//! 4. **Per-prefix FIBs with longest-prefix match**, fed by the Loc-RIB, so
//!    the data plane blackholes at routers holding stale more-specific
//!    routes during superprefix failover (§3).
//!
//! The simulator is event-driven and deterministic; see `bobw-event`.

pub mod damping;
pub mod diag;
pub mod node;
pub mod policy;
pub mod rib;
pub mod route;
mod sessions;
pub mod sim;
pub mod timing;

pub use damping::{DampState, DampingConfig};
pub use diag::{dump_rib, explain, Candidate, Verdict};
pub use node::BgpNode;
pub use policy::{import_local_pref, may_export, OriginConfig};
pub use rib::{cmp_selected, select_from, FlatRib, MapRib, RibKernel};
pub use route::{
    BgpEvent, Emitted, Message, NextHop, RouteAttrs, RouteChange, Selected, SessionTimerKind,
    WireRoute,
};
pub use sim::{BgpSim, SimSeed, Standalone};
pub use timing::BgpTimingConfig;
