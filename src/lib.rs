//! # bobw — *The Best of Both Worlds* (IMC '22) in Rust
//!
//! A full reproduction of Zhu et al., *"The Best of Both Worlds: High
//! Availability CDN Routing Without Compromising Control"* (ACM IMC 2022):
//! the hybrid CDN redirection techniques **reactive-anycast** and
//! **proactive-prepending**, the baselines they are compared against, and
//! every substrate the paper's evaluation needs — an AS-level BGP simulator
//! with realistic convergence dynamics, an Internet-like topology
//! generator, a longest-prefix-match data plane with Verfploeter-style
//! probing, a DNS redirection model with TTL violations, and RIS-style
//! route collectors with the paper's estimation pipelines.
//!
//! This crate is a façade: it re-exports the workspace's sub-crates under
//! one roof so applications can depend on a single crate.
//!
//! ```
//! use bobw::core::{run_failover, ExperimentConfig, Technique, Testbed};
//!
//! // Build a small Internet with the paper's 8-site CDN deployment...
//! let mut cfg = ExperimentConfig::quick(42);
//! cfg.targets_per_site = 20; // keep the doctest fast
//! cfg.probe.duration = bobw::event::SimDuration::from_secs(60);
//! let testbed = Testbed::new(cfg);
//! // ...fail the Boston site under reactive-anycast...
//! let (result, _perf) = run_failover(&testbed, &Technique::ReactiveAnycast, testbed.site("bos"))
//!     .expect("the built-in site failure compiles");
//! // ...and look at how fast clients came back.
//! assert!(result.num_controllable > 0);
//! assert!(!result.reconnection_secs().is_empty());
//! ```
//!
//! The crate layout mirrors the system layers:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`net`] | `bobw-net` | prefixes, LPM trie, AS paths |
//! | [`event`] | `bobw-event` | deterministic discrete-event kernel |
//! | [`topology`] | `bobw-topology` | AS graph, generator, CDN deployment |
//! | [`bgp`] | `bobw-bgp` | the BGP simulator |
//! | [`dataplane`] | `bobw-dataplane` | forwarding, catchment, probing |
//! | [`dns`] | `bobw-dns` | DNS redirection and TTL violations |
//! | [`core`] | `bobw-core` | **the paper's techniques + experiments** |
//! | [`traffic`] | `bobw-traffic` | demand, capacity/overload, DNS shedding |
//! | [`measure`] | `bobw-measure` | collectors, estimators, CDFs |

pub use bobw_bgp as bgp;
pub use bobw_core as core;
pub use bobw_dataplane as dataplane;
pub use bobw_dns as dns;
pub use bobw_event as event;
pub use bobw_measure as measure;
pub use bobw_net as net;
pub use bobw_topology as topology;
pub use bobw_traffic as traffic;
