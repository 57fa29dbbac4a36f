//! # bobw-traffic
//!
//! The demand-driven data plane: what the paper's §3 control argument is
//! *about*, made measurable. The probing layer (`bobw-dataplane`) answers
//! "can this client reach a site?"; this crate answers "what happens to
//! the *load* while it does" — per-client demand processes (heavy-tailed
//! populations, diurnal curves, flash-crowd surges), per-site capacity
//! with an overload model, and the load-aware redirection controller that
//! §3 argues only the CDN can run ("only the CDN has access to the
//! service availability, server load, and internal software and hardware
//! health information necessary to make the best redirection decisions").
//!
//! The reference dynamics to reproduce are Sinha et al.'s (*Distributed
//! Load Management in Anycast-based CDNs*): an anycast failover shifts a
//! failed site's whole catchment onto whichever neighbor BGP's economics
//! favor — an overload *cascade* — while DNS-weight shedding re-packs the
//! displaced demand within every site's capacity.
//!
//! Layering: the crate sits below `bobw-core` (which schedules
//! [`TrafficSim`] ticks on its event engine) and is strictly
//! *observational* with respect to probing — enabling traffic changes no
//! probe outcome, no BGP message, and no shared RNG stream, which is what
//! keeps `traffic: None` runs byte-identical to builds that predate the
//! subsystem.
//!
//! * [`assign`] — the static load snapshot: demand sampling,
//!   capacity-constrained greedy assignment, anycast catchment load.
//! * [`demand`] — time-varying demand: diurnal modulation, surges,
//!   regional demand shifts.
//! * [`sim`] — the per-experiment traffic simulation: tick accumulation,
//!   overload/shedding, and the periodic DNS-weight controller.

pub mod assign;
pub mod config;
pub mod demand;
pub mod sim;

pub use assign::{anycast_load, apply_to_dns, assign_load_aware, Assignment, LoadModel};
pub use config::{RegionCapacity, TrafficConfig};
pub use demand::{DemandModel, Surge};
pub use sim::{Steering, TrafficSim, TrafficSummary};
