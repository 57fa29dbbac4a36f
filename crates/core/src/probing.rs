//! The probe plane: one round of Verfploeter-style pings (§5.2) over a
//! fixed target list, for the failover loop (`experiment`).
//!
//! It owns what a round needs and nothing else does: the targets, the set of
//! nodes that are down on the data plane, a per-target memo of the last
//! forwarding walk, and a per-target streaming fold of the outcomes
//! ([`OutcomeFold`]) — so a run keeps O(targets) state however long it
//! probes.
//!
//! **What a memo entry depends on.** A walk is a pure function of the down
//! set, the destination address, and the forwarding state (FIB entry, and
//! `fwd_up` of each link tried) of exactly the nodes it read, which
//! [`walk_with_deps`] reports. An entry is therefore valid iff the down-set
//! epoch and the destination are unchanged and the sum of those nodes'
//! [`BgpSim::forwarding_version`]s is — the versions are monotone, so equal
//! sums mean every one of them is unchanged. A route change anywhere else in
//! the network, for any prefix, costs this target nothing. In debug builds
//! every hit is checked against a fresh walk.

use bobw_bgp::BgpSim;
use bobw_dataplane::{walk_with_deps, Delivery, ForwardEnv, ProbeOutcome, WalkDeps};
use bobw_event::{SimDuration, SimTime};
use bobw_net::{Ipv4Net, NodeId};
use bobw_topology::{propagation_delay, CdnDeployment, SiteId, Topology};

use crate::metrics::{OutcomeFold, TargetOutcome};

/// Where a probe's reply lands and how long after sending, or `None` for a
/// lost probe: the time-independent part of a [`ProbeOutcome`].
type Answer = Option<(SiteId, SimDuration)>;

#[derive(Clone, Copy)]
struct Memo {
    down_epoch: u64,
    dst: Ipv4Net,
    deps: WalkDeps,
    version_sum: u64,
    answer: Answer,
}

/// How much work the plane did. Deterministic (a function of the cell, not
/// of the host), so tests can pin the memo's effect by count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ProbeCounts {
    /// Probes sent (targets × rounds).
    pub probes: u64,
    /// Forwarding walks performed for them (memo misses).
    pub walks: u64,
}

#[derive(Default)]
pub(crate) struct ProbePlane {
    targets: Vec<NodeId>,
    /// Per target, the request leg's delay (prober → target, geographic; the
    /// request is assumed deliverable — the paper pre-selects responsive
    /// targets): a reply arrives `request leg + reply path latency` after
    /// sending.
    request_leg: Vec<SimDuration>,
    memo: Vec<Option<Memo>>,
    folds: Vec<OutcomeFold>,
    /// Nodes that currently drop all traffic (failed CDN sites).
    down: Vec<NodeId>,
    /// Bumped whenever `down` changes; part of every memo key.
    down_epoch: u64,
    counts: ProbeCounts,
}

impl ProbePlane {
    /// Pings sent from `prober` whose replies the Internet routes back.
    pub(crate) fn pings(topo: &Topology, prober: NodeId, targets: Vec<NodeId>) -> ProbePlane {
        let from = topo.node(prober).coords;
        ProbePlane {
            request_leg: targets
                .iter()
                .map(|&t| propagation_delay(from.distance_km(&topo.node(t).coords)))
                .collect(),
            memo: vec![None; targets.len()],
            folds: vec![OutcomeFold::default(); targets.len()],
            targets,
            ..ProbePlane::default()
        }
    }

    pub(crate) fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// The nodes currently down, for any other [`ForwardEnv`] over the same
    /// world.
    pub(crate) fn down(&self) -> &[NodeId] {
        &self.down
    }

    pub(crate) fn mark_down(&mut self, node: NodeId) {
        if !self.down.contains(&node) {
            self.down.push(node);
            self.down_epoch += 1;
        }
    }

    pub(crate) fn mark_up(&mut self, node: NodeId) {
        if let Some(i) = self.down.iter().position(|&n| n == node) {
            self.down.remove(i);
            self.down_epoch += 1;
        }
    }

    pub(crate) fn counts(&self) -> ProbeCounts {
        self.counts
    }

    /// Sends one probe per target at `now` and folds the outcomes.
    /// `dst_of(index, target)` names the address the probe's reply is
    /// routed to; `None` means there is nowhere to reply to, which counts
    /// as lost.
    pub(crate) fn round(
        &mut self,
        topo: &Topology,
        bgp: &BgpSim,
        cdn: &CdnDeployment,
        now: SimTime,
        mut dst_of: impl FnMut(usize, NodeId) -> Option<Ipv4Net>,
    ) {
        let env = ForwardEnv {
            topo,
            bgp,
            down: &self.down,
        };
        self.counts.probes += self.targets.len() as u64;
        for (i, &target) in self.targets.iter().enumerate() {
            let answer = dst_of(i, target).and_then(|dst| {
                let fresh = || {
                    let (delivery, deps) = walk_with_deps(&env, target, dst);
                    let answer = match delivery {
                        // Delivered to a non-site origin (not a CDN
                        // prefix): lost from the experiment's point of view.
                        Delivery::Delivered { node, latency, .. } => cdn
                            .site_at(node)
                            .map(|site| (site, self.request_leg[i] + latency)),
                        _ => None,
                    };
                    (answer, deps)
                };
                match &self.memo[i] {
                    Some(m)
                        if m.down_epoch == self.down_epoch
                            && m.dst == dst
                            && m.deps.version_sum(bgp) == m.version_sum =>
                    {
                        debug_assert_eq!(
                            m.answer,
                            fresh().0,
                            "stale probe memo for target {target:?} -> {dst:#x}"
                        );
                        m.answer
                    }
                    _ => {
                        self.counts.walks += 1;
                        let (answer, deps) = fresh();
                        self.memo[i] = deps.map(|deps| Memo {
                            down_epoch: self.down_epoch,
                            dst,
                            version_sum: deps.version_sum(bgp),
                            deps,
                            answer,
                        });
                        answer
                    }
                }
            });
            self.folds[i].push(match answer {
                Some((site, delay)) => ProbeOutcome::Received {
                    site,
                    at: now + delay,
                },
                None => ProbeOutcome::Lost,
            });
        }
    }

    /// Per-target outcomes of everything probed so far, in target order.
    pub(crate) fn outcomes(&self, t_fail: SimTime) -> Vec<TargetOutcome> {
        self.folds.iter().map(|f| f.finish(t_fail)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
    use bobw_event::RngFactory;
    use bobw_net::Prefix;
    use bobw_topology::{generate, GenConfig};

    const T_FAIL: SimTime = SimTime::from_secs(100);

    /// A tiny topology with `prefix` announced from ams and converged.
    fn world() -> (Topology, CdnDeployment, Standalone, Prefix) {
        let rng = RngFactory::new(7);
        let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
        let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        s.announce(
            cdn.node(cdn.by_name("ams").unwrap()),
            prefix,
            OriginConfig::plain(),
        );
        s.run_to_idle(10_000_000);
        (topo, cdn, s, prefix)
    }

    #[test]
    fn ping_replies_arrive_after_a_round_trip() {
        let (topo, cdn, s, prefix) = world();
        let ams = cdn.by_name("ams").unwrap();
        let bos = cdn.node(cdn.by_name("bos").unwrap());
        let targets: Vec<NodeId> = topo.client_nodes().take(5).collect();
        let dst = prefix.addr_at(10);

        let mut pings = ProbePlane::pings(&topo, bos, targets);
        pings.round(&topo, s.sim(), &cdn, T_FAIL, |_, _| Some(dst));
        for o in pings.outcomes(T_FAIL) {
            assert_eq!(o.final_site, Some(ams));
            assert!(o.reconnection.unwrap() > SimDuration::ZERO, "{o:?}");
        }
    }

    #[test]
    fn memo_skips_walks_until_what_they_read_changes() {
        let (topo, cdn, mut s, prefix) = world();
        let ams = cdn.node(cdn.by_name("ams").unwrap());
        let bos = cdn.node(cdn.by_name("bos").unwrap());
        let targets: Vec<NodeId> = topo.client_nodes().take(5).collect();
        let n = targets.len() as u64;
        let mut plane = ProbePlane::pings(&topo, bos, targets);
        let at = |k: u64| T_FAIL + SimDuration::from_secs(2 * k);
        let dst = prefix.addr_at(10);

        // A static network: the first round walks, the rest do not.
        for k in 0..3 {
            plane.round(&topo, s.sim(), &cdn, at(k), |_, _| Some(dst));
        }
        assert_eq!(
            plane.counts(),
            ProbeCounts {
                probes: 3 * n,
                walks: n
            }
        );

        // A different destination is a different walk (here: no route)...
        let elsewhere: Prefix = "9.9.9.0/24".parse().unwrap();
        plane.round(&topo, s.sim(), &cdn, at(3), |_, _| {
            Some(elsewhere.addr_at(1))
        });
        assert_eq!(plane.counts().walks, 2 * n);
        // ...and having nowhere to connect is no walk at all.
        plane.round(&topo, s.sim(), &cdn, at(4), |_, _| None);
        assert_eq!(plane.counts().walks, 2 * n);
        plane.round(&topo, s.sim(), &cdn, at(5), |_, _| Some(dst));
        assert_eq!(plane.counts().walks, 3 * n);

        // The site dies on the data plane only (routes not yet withdrawn):
        // no forwarding version moves, the down-set epoch does.
        plane.mark_down(ams);
        plane.mark_down(ams);
        plane.round(&topo, s.sim(), &cdn, at(6), |_, _| Some(dst));
        assert_eq!(plane.counts().walks, 4 * n);
        assert!(plane
            .outcomes(T_FAIL)
            .iter()
            .all(|o| o.final_site.is_none()));
        plane.mark_up(ams);
        plane.round(&topo, s.sim(), &cdn, at(7), |_, _| Some(dst));
        assert_eq!(plane.counts().walks, 5 * n);
        assert!(plane
            .outcomes(T_FAIL)
            .iter()
            .all(|o| o.final_site.is_some()));

        // The withdrawal empties every FIB on every path: all walk again,
        // once, and then the (lost) answers are memoized like any other.
        s.withdraw(ams, prefix);
        s.run_to_idle(10_000_000);
        for k in 8..10 {
            plane.round(&topo, s.sim(), &cdn, at(k), |_, _| Some(dst));
        }
        assert_eq!(plane.counts().walks, 6 * n);
        for o in plane.outcomes(T_FAIL) {
            assert_eq!(o.final_site, None);
            // Rounds 3, 4, 6, 8 and 9 were lost after the first reply.
            assert_eq!(o.losses_after_reconnect, 5);
        }
    }
}
