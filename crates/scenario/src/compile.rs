//! Scenario compilation: declarative script → flat, concrete fault ops.
//!
//! Compilation resolves site names against the CDN deployment, link
//! indices against the topology's adjacency lists, and regions against the
//! generator's region table; expands flap sequences (drawing jitter from
//! the testbed RNG's named streams); and lowers every action to a
//! [`FaultOp`] the experiment loop can apply directly. The output order is
//! the script order (expansions in cycle order), which the experiment
//! preserves when scheduling — the event engine breaks timestamp ties
//! FIFO, so authors control same-instant ordering by event order.
//!
//! Purity: the only inputs are the scenario, the testbed (topology + CDN,
//! themselves pure functions of the seed) and the measured site. No
//! clocks, no global state — the same cell compiles to the same byte
//! sequence on every process of a distributed run.

use bobw_event::{RngFactory, SimDuration};
use bobw_net::NodeId;
use bobw_topology::{CdnDeployment, SiteId, Topology, REGIONS};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

use crate::model::{Scenario, ScenarioAction, ScenarioError};

/// One concrete injectable operation, resolved against a testbed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultOp {
    /// Withdraw every prefix the node currently originates.
    Withdraw { node: NodeId },
    /// Re-announce the node's original (phase-1) advertisements.
    Announce { node: NodeId },
    /// Data plane down; graceful → withdraw all, else silent link crash.
    SiteFail { node: NodeId, graceful: bool },
    /// Data plane up, links restored, original advertisements replayed.
    SiteRestore { node: NodeId },
    /// Silently fail each (a, b) link.
    CutLinks { pairs: Vec<(NodeId, NodeId)> },
    /// Restore each (a, b) link.
    RestoreLinks { pairs: Vec<(NodeId, NodeId)> },
    /// Bounce the BGP session on one link (down + up, same instant).
    SessionReset { node: NodeId, peer: NodeId },
    /// Half-open session: `peer`'s side silently dies and purges; `node`
    /// keeps advertising until its hold timer expires.
    HalfOpen { node: NodeId, peer: NodeId },
    /// Graceful restart (RFC 4724): `node`'s sessions all drop but
    /// forwarding is retained; message-level neighbors keep the learned
    /// routes as stale for up to `restart`.
    GracefulRestart { node: NodeId, restart: SimDuration },
    /// NOTIFICATION-triggered reset of the (node, peer) session with RFC
    /// 4271 error `code`; both ends purge, then reconnect.
    NotifyReset {
        node: NodeId,
        peer: NodeId,
        code: u8,
    },
    /// `node` originates `victim`'s prefixes as its own (origin hijack).
    Hijack { node: NodeId, victim: NodeId },
    /// Withdraw the node's prefixes and DNS-de-steer the site's clients,
    /// each re-resolving within `ttl`; a `violators` share of them only
    /// after a further overshoot past expiry.
    Drain {
        node: NodeId,
        site: SiteId,
        ttl: SimDuration,
        violators: f64,
    },
    /// Data plane down with no control-plane action (the tail end of a
    /// drain: routes are already withdrawn when the machines power off).
    SiteDark { node: NodeId },
    /// Fire the technique's reaction, minus its first `skip` actions,
    /// announcing the covering prefix instead of the specific one when
    /// `wrong_prefix`. With `stagger` set, one action fires now and the
    /// rest roll out one every `stagger` (a staged rollout); `None` fires
    /// all at once.
    React {
        skip: usize,
        stagger: Option<SimDuration>,
        wrong_prefix: bool,
    },
    /// Demand surge starting at the event time (region is an index into
    /// [`REGIONS`], `None` = global). Traffic layer only; a no-op when the
    /// experiment runs without traffic.
    Surge {
        region: Option<usize>,
        factor: f64,
        ramp: SimDuration,
        duration: SimDuration,
    },
    /// Permanent multiplicative demand shift for one region (index into
    /// [`REGIONS`]). Traffic layer only.
    DemandShift { region: usize, factor: f64 },
    /// Scale a site's serving capacity by `factor`. Traffic layer only.
    CapacityChange { site: SiteId, factor: f64 },
    /// DDoS scrubbing online for `duration`: per-tick overload diverts to
    /// a pool of `capacity_factor × total capacity` before shedding.
    /// Traffic layer only.
    Scrub {
        capacity_factor: f64,
        duration: SimDuration,
    },
}

/// A fault op at an offset from the scenario epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledEvent {
    pub at: SimDuration,
    pub op: FaultOp,
}

/// A scenario resolved against one testbed cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledScenario {
    pub name: String,
    /// The measured site after `$site` substitution.
    pub measure_site: SiteId,
    /// Measurement anchor relative to the scenario epoch.
    pub t_fail_offset: SimDuration,
    pub events: Vec<CompiledEvent>,
}

impl CompiledScenario {
    /// Whether any op needs the DNS drain machinery (the experiment only
    /// builds the authoritative + per-target resolve state when so).
    pub fn has_drain(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.op, FaultOp::Drain { .. }))
    }
}

/// Resolves a scenario site name: `"$site"` → the cell's measured site.
fn resolve_site(
    event: usize,
    name: &str,
    measured: SiteId,
    cdn: &CdnDeployment,
) -> Result<SiteId, ScenarioError> {
    if name == "$site" {
        return Ok(measured);
    }
    cdn.by_name(name)
        .ok_or_else(|| ScenarioError::at(event, format!("unknown site {name:?}")))
}

/// Resolves a region name into its [`REGIONS`] index.
fn resolve_region(event: usize, name: &str) -> Result<usize, ScenarioError> {
    REGIONS
        .iter()
        .position(|r| r.name == name)
        .ok_or_else(|| ScenarioError::at(event, format!("unknown region {name:?}")))
}

/// Resolves a link index into the site node's adjacency list.
fn resolve_link(
    event: usize,
    topo: &Topology,
    node: NodeId,
    link: usize,
) -> Result<NodeId, ScenarioError> {
    let neighbors = topo.neighbors(node);
    neighbors.get(link).map(|a| a.peer).ok_or_else(|| {
        ScenarioError::at(
            event,
            format!(
                "link index {link} out of range: node {node} has {} links",
                neighbors.len()
            ),
        )
    })
}

/// Every topology link with exactly one endpoint in the named region,
/// as (low, high) node pairs in sorted order — the deterministic cut set
/// of a regional partition.
fn region_cut(
    event: usize,
    topo: &Topology,
    region: &str,
) -> Result<Vec<(NodeId, NodeId)>, ScenarioError> {
    let idx = REGIONS
        .iter()
        .position(|r| r.name == region)
        .ok_or_else(|| ScenarioError::at(event, format!("unknown region {region:?}")))?;
    let mut pairs = BTreeSet::new();
    for node in topo.nodes() {
        let a_in = node.region == idx;
        for adj in topo.neighbors(node.id) {
            let b_in = topo.node(adj.peer).region == idx;
            if a_in != b_in {
                let (lo, hi) = if node.id <= adj.peer {
                    (node.id, adj.peer)
                } else {
                    (adj.peer, node.id)
                };
                pairs.insert((lo, hi));
            }
        }
    }
    if pairs.is_empty() {
        return Err(ScenarioError::at(
            event,
            format!("region {region:?} has no crossing links in this topology"),
        ));
    }
    Ok(pairs.into_iter().collect())
}

/// [`Scenario::compile`] under its older signature, from when the
/// experiment config carried a failure mode: `default_graceful: false`
/// compiles [`Scenario::crashed`]. Kept because the benchmark crate
/// builds against it; everything else calls the method.
pub fn compile(
    scenario: &Scenario,
    topo: &Topology,
    cdn: &CdnDeployment,
    rng: &RngFactory,
    measured: SiteId,
    default_graceful: bool,
) -> Result<CompiledScenario, ScenarioError> {
    if default_graceful {
        scenario.compile(topo, cdn, rng, measured)
    } else {
        scenario.clone().crashed().compile(topo, cdn, rng, measured)
    }
}

impl Scenario {
    /// Compiles the scenario against one testbed cell. `measured` is the
    /// cell's failed/measured site (binds `"$site"`).
    pub fn compile(
        &self,
        topo: &Topology,
        cdn: &CdnDeployment,
        rng: &RngFactory,
        measured: SiteId,
    ) -> Result<CompiledScenario, ScenarioError> {
        self.validate()?;
        let mut events = Vec::with_capacity(self.events.len());
        let mut push = |at_s: f64, op: FaultOp| {
            events.push(CompiledEvent {
                at: SimDuration::from_secs_f64(at_s),
                op,
            });
        };
        for (i, ev) in self.events.iter().enumerate() {
            match &ev.action {
                ScenarioAction::Withdraw { site } => {
                    let node = cdn.node(resolve_site(i, site, measured, cdn)?);
                    push(ev.at_s, FaultOp::Withdraw { node });
                }
                ScenarioAction::Announce { site } => {
                    let node = cdn.node(resolve_site(i, site, measured, cdn)?);
                    push(ev.at_s, FaultOp::Announce { node });
                }
                ScenarioAction::SiteFail { site, graceful } => {
                    let node = cdn.node(resolve_site(i, site, measured, cdn)?);
                    push(
                        ev.at_s,
                        FaultOp::SiteFail {
                            node,
                            graceful: graceful.unwrap_or(true),
                        },
                    );
                }
                ScenarioAction::SiteRestore { site } => {
                    let node = cdn.node(resolve_site(i, site, measured, cdn)?);
                    push(ev.at_s, FaultOp::SiteRestore { node });
                }
                ScenarioAction::LinkDown { site, link } => {
                    let node = cdn.node(resolve_site(i, site, measured, cdn)?);
                    let peer = resolve_link(i, topo, node, *link)?;
                    push(
                        ev.at_s,
                        FaultOp::CutLinks {
                            pairs: vec![(node, peer)],
                        },
                    );
                }
                ScenarioAction::LinkUp { site, link } => {
                    let node = cdn.node(resolve_site(i, site, measured, cdn)?);
                    let peer = resolve_link(i, topo, node, *link)?;
                    push(
                        ev.at_s,
                        FaultOp::RestoreLinks {
                            pairs: vec![(node, peer)],
                        },
                    );
                }
                ScenarioAction::SessionReset { site, link } => {
                    let node = cdn.node(resolve_site(i, site, measured, cdn)?);
                    let peer = resolve_link(i, topo, node, *link)?;
                    push(ev.at_s, FaultOp::SessionReset { node, peer });
                }
                ScenarioAction::HalfOpen { site, link } => {
                    let node = cdn.node(resolve_site(i, site, measured, cdn)?);
                    let peer = resolve_link(i, topo, node, *link)?;
                    push(ev.at_s, FaultOp::HalfOpen { node, peer });
                }
                ScenarioAction::GracefulRestart { site, restart_s } => {
                    let node = cdn.node(resolve_site(i, site, measured, cdn)?);
                    push(
                        ev.at_s,
                        FaultOp::GracefulRestart {
                            node,
                            restart: SimDuration::from_secs_f64(*restart_s),
                        },
                    );
                }
                ScenarioAction::NotifyReset { site, link, code } => {
                    let node = cdn.node(resolve_site(i, site, measured, cdn)?);
                    let peer = resolve_link(i, topo, node, *link)?;
                    push(
                        ev.at_s,
                        FaultOp::NotifyReset {
                            node,
                            peer,
                            code: *code,
                        },
                    );
                }
                ScenarioAction::HijackAnnounce { site, link } => {
                    // The neighbor across the link is the hijacker; the site is
                    // the victim whose prefixes it forges.
                    let victim = cdn.node(resolve_site(i, site, measured, cdn)?);
                    let hijacker = resolve_link(i, topo, victim, *link)?;
                    push(
                        ev.at_s,
                        FaultOp::Hijack {
                            node: hijacker,
                            victim,
                        },
                    );
                }
                ScenarioAction::Flap {
                    site,
                    count,
                    period_s,
                    down_s,
                    jitter_s,
                } => {
                    let node = cdn.node(resolve_site(i, site, measured, cdn)?);
                    // One jitter stream per scenario event, advanced per cycle:
                    // deterministic in ⟨seed, event index, cycle⟩, identical on
                    // every process of a distributed run.
                    let mut r = rng.stream("scenario-flap", i as u64);
                    for cycle in 0..*count {
                        let jitter = if *jitter_s > 0.0 {
                            r.gen_range(0.0..*jitter_s)
                        } else {
                            0.0
                        };
                        let down = ev.at_s + *period_s * cycle as f64 + jitter;
                        push(down, FaultOp::Withdraw { node });
                        push(down + *down_s, FaultOp::Announce { node });
                    }
                }
                ScenarioAction::Partition { region } => {
                    let pairs = region_cut(i, topo, region)?;
                    push(ev.at_s, FaultOp::CutLinks { pairs });
                }
                ScenarioAction::HealPartition { region } => {
                    let pairs = region_cut(i, topo, region)?;
                    push(ev.at_s, FaultOp::RestoreLinks { pairs });
                }
                ScenarioAction::Drain {
                    site,
                    ttl_s,
                    shutdown_after_s,
                    violators,
                } => {
                    let site_id = resolve_site(i, site, measured, cdn)?;
                    let node = cdn.node(site_id);
                    push(
                        ev.at_s,
                        FaultOp::Drain {
                            node,
                            site: site_id,
                            ttl: SimDuration::from_secs_f64(*ttl_s),
                            violators: violators.unwrap_or(0.0),
                        },
                    );
                    push(ev.at_s + *shutdown_after_s, FaultOp::SiteDark { node });
                }
                ScenarioAction::React {
                    skip,
                    stagger_s,
                    wrong_prefix,
                } => {
                    push(
                        ev.at_s,
                        FaultOp::React {
                            skip: *skip,
                            stagger: stagger_s.map(SimDuration::from_secs_f64),
                            wrong_prefix: wrong_prefix.unwrap_or(false),
                        },
                    );
                }
                ScenarioAction::Surge {
                    region,
                    factor,
                    ramp_s,
                    duration_s,
                } => {
                    let region = match region {
                        None => None,
                        Some(name) => Some(resolve_region(i, name)?),
                    };
                    push(
                        ev.at_s,
                        FaultOp::Surge {
                            region,
                            factor: *factor,
                            ramp: SimDuration::from_secs_f64(*ramp_s),
                            duration: SimDuration::from_secs_f64(*duration_s),
                        },
                    );
                }
                ScenarioAction::DemandShift { region, factor } => {
                    let region = resolve_region(i, region)?;
                    push(
                        ev.at_s,
                        FaultOp::DemandShift {
                            region,
                            factor: *factor,
                        },
                    );
                }
                ScenarioAction::CapacityChange { site, factor } => {
                    let site = resolve_site(i, site, measured, cdn)?;
                    push(
                        ev.at_s,
                        FaultOp::CapacityChange {
                            site,
                            factor: *factor,
                        },
                    );
                }
                ScenarioAction::Scrub {
                    capacity_factor,
                    duration_s,
                } => {
                    push(
                        ev.at_s,
                        FaultOp::Scrub {
                            capacity_factor: *capacity_factor,
                            duration: SimDuration::from_secs_f64(*duration_s),
                        },
                    );
                }
            }
        }
        Ok(CompiledScenario {
            name: self.name.clone(),
            measure_site: measured,
            t_fail_offset: SimDuration::from_secs_f64(self.t_fail_s()),
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ScenarioEvent;
    use bobw_topology::{generate, GenConfig};

    fn testbed() -> (Topology, CdnDeployment, RngFactory) {
        let rng = RngFactory::new(7);
        let (topo, cdn) = generate(&GenConfig::small(), &rng);
        (topo, cdn, rng)
    }

    #[test]
    fn baseline_compiles_to_the_legacy_schedule() {
        let (topo, cdn, rng) = testbed();
        let site = cdn.by_name("bos").unwrap();
        let c = Scenario::site_failure(2.0, 1)
            .compile(&topo, &cdn, &rng, site)
            .unwrap();
        assert_eq!(c.measure_site, site);
        assert_eq!(c.t_fail_offset, SimDuration::from_secs(40));
        let node = cdn.node(site);
        assert_eq!(c.events.len(), 4);
        assert_eq!(c.events[0].at, SimDuration::from_secs(10));
        assert_eq!(c.events[0].op, FaultOp::Withdraw { node });
        assert_eq!(c.events[1].at, SimDuration::from_secs(20));
        assert_eq!(c.events[1].op, FaultOp::Announce { node });
        assert_eq!(c.events[2].at, SimDuration::from_secs(40));
        assert_eq!(
            c.events[2].op,
            FaultOp::SiteFail {
                node,
                graceful: true
            }
        );
        assert_eq!(c.events[3].at, SimDuration::from_secs(42));
        assert_eq!(
            c.events[3].op,
            FaultOp::React {
                skip: 0,
                stagger: None,
                wrong_prefix: false,
            }
        );

        // The older free-function signature: `false` compiles the crashed
        // script, `true` the script as written.
        let baseline = Scenario::site_failure(2.0, 1);
        let crash = compile(&baseline, &topo, &cdn, &rng, site, false).unwrap();
        assert_eq!(
            crash.events[2].op,
            FaultOp::SiteFail {
                node,
                graceful: false
            }
        );
        assert_eq!(
            crash,
            baseline
                .clone()
                .crashed()
                .compile(&topo, &cdn, &rng, site)
                .unwrap()
        );
        assert_eq!(
            compile(&baseline, &topo, &cdn, &rng, site, true).unwrap(),
            c
        );
    }

    #[test]
    fn compilation_is_deterministic_across_independent_testbeds() {
        // Two separately-built same-seed testbeds (as a coordinator and a
        // remote worker would hold) compile any scenario, including one
        // with RNG-jittered flaps, to byte-identical event lists.
        let mut scenario = Scenario::site_failure(2.0, 0);
        scenario.events.insert(
            0,
            ScenarioEvent {
                at_s: 2.0,
                action: ScenarioAction::Flap {
                    site: "$site".into(),
                    count: 3,
                    period_s: 20.0,
                    down_s: 5.0,
                    jitter_s: 4.0,
                },
            },
        );
        let dump = |c: &CompiledScenario| serde_json::to_string(c).unwrap();
        let (topo_a, cdn_a, rng_a) = testbed();
        let (topo_b, cdn_b, rng_b) = testbed();
        let site = cdn_a.by_name("sea1").unwrap();
        let a = scenario.compile(&topo_a, &cdn_a, &rng_a, site).unwrap();
        let b = scenario.compile(&topo_b, &cdn_b, &rng_b, site).unwrap();
        assert_eq!(dump(&a), dump(&b));
        // And the jitter actually jittered: cycles are not exactly 20 s apart.
        let downs: Vec<f64> = a
            .events
            .iter()
            .filter(|e| matches!(e.op, FaultOp::Withdraw { .. }))
            .map(|e| e.at.as_secs_f64())
            .collect();
        assert_eq!(downs.len(), 3);
        assert!(
            (downs[1] - downs[0] - 20.0).abs() > 1e-9 || (downs[2] - downs[1] - 20.0).abs() > 1e-9,
            "jitter drew zero twice: {downs:?}"
        );
    }

    #[test]
    fn partition_cuts_exactly_the_region_crossing_links() {
        let (topo, cdn, rng) = testbed();
        let scenario = Scenario {
            name: "p".into(),
            description: String::new(),
            site: "sea1".into(),
            measure_from_s: Some(10.0),
            events: vec![ScenarioEvent {
                at_s: 10.0,
                action: ScenarioAction::Partition {
                    region: "seattle".into(),
                },
            }],
        };
        let site = cdn.by_name("sea1").unwrap();
        let c = scenario.compile(&topo, &cdn, &rng, site).unwrap();
        let FaultOp::CutLinks { pairs } = &c.events[0].op else {
            panic!("expected CutLinks, got {:?}", c.events[0].op);
        };
        let idx = REGIONS.iter().position(|r| r.name == "seattle").unwrap();
        assert!(!pairs.is_empty());
        let mut sorted = pairs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(&sorted, pairs, "pairs must be sorted and unique");
        for &(a, b) in pairs {
            let cross = (topo.node(a).region == idx) != (topo.node(b).region == idx);
            assert!(cross, "({a}, {b}) does not cross the seattle boundary");
        }
    }

    #[test]
    fn compile_errors_name_the_event() {
        let (topo, cdn, rng) = testbed();
        let site = cdn.by_name("bos").unwrap();
        let mut s = Scenario::site_failure(2.0, 0);
        s.events[0] = ScenarioEvent {
            at_s: 10.0,
            action: ScenarioAction::SiteFail {
                site: "atlantis".into(),
                graceful: None,
            },
        };
        let err = s.compile(&topo, &cdn, &rng, site).unwrap_err().to_string();
        assert!(
            err.contains("events[0]") && err.contains("atlantis"),
            "{err}"
        );

        s.events[0] = ScenarioEvent {
            at_s: 10.0,
            action: ScenarioAction::LinkDown {
                site: "bos".into(),
                link: 10_000,
            },
        };
        let err = s.compile(&topo, &cdn, &rng, site).unwrap_err().to_string();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn traffic_actions_compile_to_resolved_ops() {
        let (topo, cdn, rng) = testbed();
        let site = cdn.by_name("bos").unwrap();
        let s = Scenario {
            name: "traffic".into(),
            description: String::new(),
            site: "$site".into(),
            measure_from_s: Some(10.0),
            events: vec![
                ScenarioEvent {
                    at_s: 10.0,
                    action: ScenarioAction::Surge {
                        region: Some("seattle".into()),
                        factor: 3.0,
                        ramp_s: 20.0,
                        duration_s: 120.0,
                    },
                },
                ScenarioEvent {
                    at_s: 20.0,
                    action: ScenarioAction::DemandShift {
                        region: "boston".into(),
                        factor: 1.5,
                    },
                },
                ScenarioEvent {
                    at_s: 30.0,
                    action: ScenarioAction::CapacityChange {
                        site: "$site".into(),
                        factor: 0.5,
                    },
                },
                ScenarioEvent {
                    at_s: 40.0,
                    action: ScenarioAction::React {
                        skip: 1,
                        stagger_s: Some(5.0),
                        wrong_prefix: Some(true),
                    },
                },
                ScenarioEvent {
                    at_s: 50.0,
                    action: ScenarioAction::Scrub {
                        capacity_factor: 2.0,
                        duration_s: 90.0,
                    },
                },
            ],
        };
        let c = s.compile(&topo, &cdn, &rng, site).unwrap();
        let sea = REGIONS.iter().position(|r| r.name == "seattle").unwrap();
        let bos = REGIONS.iter().position(|r| r.name == "boston").unwrap();
        assert_eq!(
            c.events[0].op,
            FaultOp::Surge {
                region: Some(sea),
                factor: 3.0,
                ramp: SimDuration::from_secs(20),
                duration: SimDuration::from_secs(120),
            }
        );
        assert_eq!(
            c.events[1].op,
            FaultOp::DemandShift {
                region: bos,
                factor: 1.5
            }
        );
        assert_eq!(
            c.events[2].op,
            FaultOp::CapacityChange { site, factor: 0.5 }
        );
        assert_eq!(
            c.events[3].op,
            FaultOp::React {
                skip: 1,
                stagger: Some(SimDuration::from_secs(5)),
                wrong_prefix: true,
            }
        );
        assert_eq!(
            c.events[4].op,
            FaultOp::Scrub {
                capacity_factor: 2.0,
                duration: SimDuration::from_secs(90),
            }
        );

        // Unknown regions are named in the error.
        let mut bad = s.clone();
        bad.events[1] = ScenarioEvent {
            at_s: 20.0,
            action: ScenarioAction::DemandShift {
                region: "oz".into(),
                factor: 1.5,
            },
        };
        let err = bad
            .compile(&topo, &cdn, &rng, site)
            .unwrap_err()
            .to_string();
        assert!(err.contains("events[1]") && err.contains("oz"), "{err}");
    }

    #[test]
    fn session_actions_compile_to_resolved_ops() {
        let (topo, cdn, rng) = testbed();
        let site = cdn.by_name("bos").unwrap();
        let s = Scenario {
            name: "session-faults".into(),
            description: String::new(),
            site: "$site".into(),
            measure_from_s: Some(10.0),
            events: vec![
                ScenarioEvent {
                    at_s: 10.0,
                    action: ScenarioAction::HalfOpen {
                        site: "$site".into(),
                        link: 0,
                    },
                },
                ScenarioEvent {
                    at_s: 20.0,
                    action: ScenarioAction::GracefulRestart {
                        site: "$site".into(),
                        restart_s: 120.0,
                    },
                },
                ScenarioEvent {
                    at_s: 30.0,
                    action: ScenarioAction::NotifyReset {
                        site: "$site".into(),
                        link: 1,
                        code: 4,
                    },
                },
                ScenarioEvent {
                    at_s: 40.0,
                    action: ScenarioAction::HijackAnnounce {
                        site: "$site".into(),
                        link: 0,
                    },
                },
            ],
        };
        let c = s.compile(&topo, &cdn, &rng, site).unwrap();
        let node = cdn.node(site);
        let peer0 = topo.neighbors(node)[0].peer;
        let peer1 = topo.neighbors(node)[1].peer;
        assert_eq!(c.events[0].op, FaultOp::HalfOpen { node, peer: peer0 });
        assert_eq!(
            c.events[1].op,
            FaultOp::GracefulRestart {
                node,
                restart: SimDuration::from_secs(120),
            }
        );
        assert_eq!(
            c.events[2].op,
            FaultOp::NotifyReset {
                node,
                peer: peer1,
                code: 4,
            }
        );
        // The hijacker is the neighbor; the measured site is the victim.
        assert_eq!(
            c.events[3].op,
            FaultOp::Hijack {
                node: peer0,
                victim: node,
            }
        );

        // Bad link indices are compile-time errors, as for LinkDown.
        let mut bad = s.clone();
        bad.events[0] = ScenarioEvent {
            at_s: 10.0,
            action: ScenarioAction::HalfOpen {
                site: "$site".into(),
                link: 10_000,
            },
        };
        let err = bad
            .compile(&topo, &cdn, &rng, site)
            .unwrap_err()
            .to_string();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn drain_expands_to_desteer_plus_shutdown() {
        let (topo, cdn, rng) = testbed();
        let site = cdn.by_name("ams").unwrap();
        // A catalog-style drain with `violators` omitted: no violators.
        let s: Scenario = serde_json::from_str_typed(
            r#"{
                "name": "drain", "description": "", "site": "ams",
                "measure_from_s": null,
                "events": [ { "at_s": 10.0, "action": { "Drain": {
                    "site": "$site", "ttl_s": 30.0, "shutdown_after_s": 60.0
                } } } ]
            }"#,
        )
        .unwrap();
        let c = s.compile(&topo, &cdn, &rng, site).unwrap();
        assert!(c.has_drain());
        assert_eq!(c.t_fail_offset, SimDuration::from_secs(10));
        assert_eq!(c.events.len(), 2);
        let node = cdn.node(site);
        assert_eq!(
            c.events[0].op,
            FaultOp::Drain {
                node,
                site,
                ttl: SimDuration::from_secs(30),
                violators: 0.0,
            }
        );
        assert_eq!(c.events[1].at, SimDuration::from_secs(70));
        assert_eq!(c.events[1].op, FaultOp::SiteDark { node });

        // The built-in DNS failover: the site dies at 10 s, DNS reacts
        // after the detection delay and the machines are already dark.
        let dns = Scenario::dns_failover(2.0);
        dns.validate().unwrap();
        let c = dns.compile(&topo, &cdn, &rng, site).unwrap();
        assert_eq!(c.t_fail_offset, SimDuration::from_secs(10));
        let at = |s: u64| SimDuration::from_secs(s);
        assert_eq!(
            c.events,
            vec![
                CompiledEvent {
                    at: at(10),
                    op: FaultOp::SiteFail {
                        node,
                        graceful: true
                    },
                },
                CompiledEvent {
                    at: at(12),
                    op: FaultOp::Drain {
                        node,
                        site,
                        ttl: SimDuration::from_secs_f64(crate::DNS_TTL_S),
                        violators: crate::DNS_VIOLATORS,
                    },
                },
                CompiledEvent {
                    at: at(12),
                    op: FaultOp::SiteDark { node },
                },
            ]
        );

        // The violator share must be a finite share.
        for bad in [f64::NAN, -0.1, 1.5] {
            let mut s = dns.clone();
            let ScenarioAction::Drain { violators, .. } = &mut s.events[1].action else {
                unreachable!("dns_failover drains second");
            };
            *violators = Some(bad);
            let err = s.compile(&topo, &cdn, &rng, site).unwrap_err().to_string();
            assert!(
                err.contains("events[1]") && err.contains("violators"),
                "{bad}: {err}"
            );
        }
    }
}
