//! # bobw-net
//!
//! Address-family primitives shared by every layer of the *Best of Both
//! Worlds* CDN routing simulator:
//!
//! * [`Prefix`] — an IPv4 CIDR prefix with containment / covering math,
//!   used both as the routing key in BGP RIBs and as the destination key in
//!   the data-plane longest-prefix-match.
//! * [`PrefixTrie`] — a binary (uncompressed) prefix trie providing exact
//!   longest-prefix-match semantics. FIBs are built on this, which is what
//!   makes the `proactive-superprefix` failure mode (stale more-specific
//!   routes shadowing a valid covering route) fall out of the data structure
//!   rather than being hand-coded.
//! * [`Asn`], [`AsPath`] — AS numbers and AS paths with prepending and
//!   loop detection, the currency of the BGP decision process. Paths are
//!   interned in a [`PathTable`] that lives for one cell, so they copy as a
//!   handle.
//! * [`NodeId`] — a dense index for topology nodes (one per AS, plus one per
//!   CDN site, plus one per route collector).
//!
//! Everything here is deterministic plain data: no clocks, no randomness.
//! The only interior mutability is the per-thread path interner, whose id
//! assignment is invisible to results (ids never serialize and never order).

pub mod addr;
pub mod aspath;
pub mod flatmap;
pub mod hash;
pub mod ids;
pub mod trie;

pub use addr::{fmt_addr, parse_addr, Ipv4Net, Prefix, PrefixParseError};
pub use aspath::{AsPath, Asn, PathId, PathTable};
pub use flatmap::FlatPrefixMap;
pub use hash::{FastHashMap, FastHashSet, FastHasher};
pub use ids::NodeId;
pub use trie::PrefixTrie;
