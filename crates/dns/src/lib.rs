//! # bobw-dns
//!
//! The DNS redirection subsystem: how every technique in the paper steers
//! clients during *normal* operation, and the reason pure unicast fails
//! during site failures.
//!
//! Three pieces:
//!
//! * [`authoritative`] — the CDN's authoritative resolver. It owns the
//!   client→site mapping (the "control" every technique wants to keep) and
//!   returns an address inside the mapped site's per-site prefix.
//! * [`resolver`] — recursive resolvers with caches honoring (or not) the
//!   record TTL.
//! * [`client`] — the client population model used for the unicast failover
//!   baseline: cache phase at failure time, plus the TTL-violating fraction
//!   that keeps using records long past expiry (Allman '20 measured a
//!   *median* of 890 s past expiry; the paper leans on that number to argue
//!   unicast's tail failover is far worse than anycast's, §5.4.1).
//!
//! The paper does not measure unicast failover directly (no real client
//! population), but discusses it throughout; this crate makes the baseline
//! reproducible from the published parameters.

pub mod authoritative;
pub mod client;
pub mod resolver;

pub use authoritative::{Authoritative, DnsAnswer};
pub use client::{ClientPopulation, DnsFailoverConfig, OVERSHOOT_MEDIAN_S, OVERSHOOT_SIGMA};
pub use resolver::{CacheStatus, RecursiveResolver};
