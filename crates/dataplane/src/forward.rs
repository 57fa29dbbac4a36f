//! Hop-by-hop forwarding over the current FIBs.

use bobw_bgp::{BgpSim, NextHop};
use bobw_event::SimDuration;
use bobw_net::{Ipv4Net, NodeId};
use bobw_topology::Topology;

/// Hop budget for a forwarding walk, standing in for the IP TTL. AS-level
/// paths are short; anything beyond this is a routing loop.
pub const MAX_HOPS: usize = 64;

/// Everything a forwarding walk needs to know about the world.
pub struct ForwardEnv<'a> {
    pub topo: &'a Topology,
    pub bgp: &'a BgpSim,
    /// Nodes that currently drop all traffic (failed CDN sites). A packet
    /// arriving here — even one the FIB would "deliver" — is lost, exactly
    /// like a packet reaching a dead PEERING site.
    pub down: &'a [NodeId],
}

impl ForwardEnv<'_> {
    fn is_down(&self, n: NodeId) -> bool {
        self.down.contains(&n)
    }
}

/// Outcome of forwarding one packet toward a destination address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// The packet reached a node that locally originates the matched
    /// prefix (for CDN prefixes: a live site).
    Delivered {
        node: NodeId,
        hops: usize,
        latency: SimDuration,
    },
    /// Some router on the path had no route at all.
    Blackhole { at: NodeId, hops: usize },
    /// The packet revisited a router: a forwarding loop (stale routes
    /// pointing at each other during convergence). Real packets die by TTL.
    Loop { at: NodeId, hops: usize },
    /// The packet arrived at a node marked down (the failed site).
    DeadNode { at: NodeId, hops: usize },
    /// The FIB pointed across a failed link (hold timer not yet expired):
    /// the packet is dropped at the interface.
    DeadLink { at: NodeId, hops: usize },
}

impl Delivery {
    /// Did the packet arrive at a live origin?
    pub fn delivered_to(&self) -> Option<NodeId> {
        match self {
            Delivery::Delivered { node, .. } => Some(*node),
            _ => None,
        }
    }
}

/// Most nodes a walk may read and still report them as [`WalkDeps`].
/// AS-level paths are short (mean ~4 hops at eval scale); a longer walk is
/// reported as untracked and its result should simply not be cached.
pub const MAX_DEPS: usize = 8;

/// The nodes whose forwarding state one walk read: every node it entered
/// (FIB lookup, and both ends' `fwd_up` for each link crossed) plus, on
/// [`Delivery::DeadLink`], the far end of the dead link. The walk's result
/// is a pure function of these nodes' forwarding state, the destination and
/// the down set — and of nothing else in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkDeps {
    nodes: [NodeId; MAX_DEPS],
    len: u8,
}

impl WalkDeps {
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes[..self.len as usize]
    }

    /// Sum of the nodes' [`BgpSim::forwarding_version`]s. The versions are
    /// monotone, so the sum equals an earlier reading of it iff every one of
    /// them does: the walk would replay hop for hop.
    pub fn version_sum(&self, bgp: &BgpSim) -> u64 {
        self.nodes()
            .iter()
            .map(|&n| bgp.forwarding_version(n))
            .sum()
    }
}

/// Every node a walk entered, in order, in a fixed array (the hop budget
/// bounds it): doubles as the loop-detection set, so a walk allocates
/// nothing.
struct Trail {
    nodes: [NodeId; MAX_HOPS + 1],
    len: usize,
    /// On `DeadLink`: the next hop whose `fwd_up` was consulted.
    far_end: Option<NodeId>,
}

impl Trail {
    fn new() -> Trail {
        Trail {
            nodes: [NodeId(0); MAX_HOPS + 1],
            len: 0,
            far_end: None,
        }
    }

    fn entered(&self) -> &[NodeId] {
        &self.nodes[..self.len]
    }
}

/// Forwards a packet from `from` toward `dst`, following each node's
/// current FIB. Returns where (and whether) it arrived.
pub fn walk(env: &ForwardEnv<'_>, from: NodeId, dst: Ipv4Net) -> Delivery {
    walk_inner(env, from, dst, &mut Trail::new())
}

/// Like [`walk`], but also returns the node path traversed (including the
/// source and the final node). Used by the Appendix C.1 divergence
/// analysis, which compares AS-level paths the way reverse traceroute does.
pub fn walk_with_path(env: &ForwardEnv<'_>, from: NodeId, dst: Ipv4Net) -> (Delivery, Vec<NodeId>) {
    let mut trail = Trail::new();
    let d = walk_inner(env, from, dst, &mut trail);
    (d, trail.entered().to_vec())
}

/// Like [`walk`], but also reports which nodes' forwarding state the walk
/// read, or `None` when there were more than [`MAX_DEPS`] of them.
pub fn walk_with_deps(
    env: &ForwardEnv<'_>,
    from: NodeId,
    dst: Ipv4Net,
) -> (Delivery, Option<WalkDeps>) {
    let mut trail = Trail::new();
    let d = walk_inner(env, from, dst, &mut trail);
    let entered = trail.entered();
    if entered.len() + usize::from(trail.far_end.is_some()) > MAX_DEPS {
        return (d, None);
    }
    let mut deps = WalkDeps {
        nodes: [NodeId(0); MAX_DEPS],
        len: entered.len() as u8,
    };
    deps.nodes[..entered.len()].copy_from_slice(entered);
    if let Some(far_end) = trail.far_end {
        deps.nodes[entered.len()] = far_end;
        deps.len += 1;
    }
    (d, Some(deps))
}

fn walk_inner(env: &ForwardEnv<'_>, from: NodeId, dst: Ipv4Net, trail: &mut Trail) -> Delivery {
    let mut node = from;
    let mut hops = 0usize;
    let mut latency = SimDuration::ZERO;
    loop {
        // Paths are short, so scanning the trail beats hashing.
        let revisited = trail.entered().contains(&node);
        trail.nodes[trail.len] = node;
        trail.len += 1;
        if env.is_down(node) {
            return Delivery::DeadNode { at: node, hops };
        }
        if revisited {
            return Delivery::Loop { at: node, hops };
        }
        match env.bgp.fib_lookup(node, dst) {
            None => return Delivery::Blackhole { at: node, hops },
            Some((_, NextHop::Local)) => {
                return Delivery::Delivered {
                    node,
                    hops,
                    latency,
                }
            }
            Some((_, NextHop::Via(next))) => {
                if !env.bgp.link_is_up(node, next) {
                    trail.far_end = Some(next);
                    return Delivery::DeadLink { at: node, hops };
                }
                let link = env
                    .topo
                    .delay(node, next)
                    .expect("FIB next hop must be a neighbor");
                latency += link;
                node = next;
                hops += 1;
                if hops > MAX_HOPS {
                    return Delivery::Loop { at: node, hops };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
    use bobw_event::RngFactory;
    use bobw_net::{Asn, Prefix};
    use bobw_topology::{NodeKind, Topology, REGIONS};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// t1 provides mid and leaf2; mid provides leaf.
    fn chain() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let c = REGIONS[0].center;
        let t1 = t.add_node(Asn(10), NodeKind::Tier1, c, 0);
        let mid = t.add_node(Asn(20), NodeKind::Transit, c, 0);
        let leaf = t.add_node(Asn(30), NodeKind::Stub, c, 0);
        let leaf2 = t.add_node(Asn(40), NodeKind::Stub, c, 0);
        t.link_provider_customer(t1, mid);
        t.link_provider_customer(mid, leaf);
        t.link_provider_customer(t1, leaf2);
        (t, t1, mid, leaf, leaf2)
    }

    fn converged(topo: &Topology, origin: NodeId, prefix: Prefix) -> Standalone {
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(topo, BgpTimingConfig::instant(), &rng);
        s.announce(origin, prefix, OriginConfig::plain());
        s.run_to_idle(1_000_000);
        s
    }

    #[test]
    fn delivers_across_hops_with_latency() {
        let (topo, _t1, _mid, leaf, leaf2) = chain();
        let pre = p("184.164.244.0/24");
        let s = converged(&topo, leaf, pre);
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        };
        match walk(&env, leaf2, pre.addr_at(10)) {
            Delivery::Delivered {
                node,
                hops,
                latency,
            } => {
                assert_eq!(node, leaf);
                assert_eq!(hops, 3); // leaf2 -> t1 -> mid -> leaf
                assert!(latency > SimDuration::ZERO);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn walk_with_path_records_route() {
        let (topo, t1, mid, leaf, leaf2) = chain();
        let pre = p("184.164.244.0/24");
        let s = converged(&topo, leaf, pre);
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        };
        let (d, path) = walk_with_path(&env, leaf2, pre.addr_at(1));
        assert!(matches!(d, Delivery::Delivered { .. }));
        assert_eq!(path, vec![leaf2, t1, mid, leaf]);
    }

    #[test]
    fn deps_are_the_path_walked() {
        let (topo, t1, mid, leaf, leaf2) = chain();
        let pre = p("184.164.244.0/24");
        let s = converged(&topo, leaf, pre);
        let down = [leaf];
        for down in [&[][..], &down[..]] {
            let env = ForwardEnv {
                topo: &topo,
                bgp: s.sim(),
                down,
            };
            // Delivered, DeadNode (site down) and Blackhole (no such prefix).
            for dst in [pre.addr_at(1), p("9.9.9.0/24").addr_at(1)] {
                let (d, path) = walk_with_path(&env, leaf2, dst);
                let (d2, deps) = walk_with_deps(&env, leaf2, dst);
                assert_eq!(d, d2);
                assert_eq!(d, walk(&env, leaf2, dst));
                assert_eq!(deps.expect("short path is tracked").nodes(), &path[..]);
            }
        }
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        };
        let (_, deps) = walk_with_deps(&env, leaf2, pre.addr_at(1));
        let deps = deps.unwrap();
        assert_eq!(deps.nodes(), &[leaf2, t1, mid, leaf]);
        assert_eq!(deps.version_sum(s.sim()), {
            let v = |n| s.sim().forwarding_version(n);
            v(leaf2) + v(t1) + v(mid) + v(leaf)
        });
    }

    #[test]
    fn dead_link_deps_include_the_far_end() {
        let (topo, t1, mid, leaf, leaf2) = chain();
        let pre = p("184.164.244.0/24");
        let mut s = converged(&topo, leaf, pre);
        // Cut mid—leaf silently: until the hold timers fire, mid's FIB still
        // points across the dead link.
        s.fail_link(mid, leaf);
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        };
        let (d, path) = walk_with_path(&env, leaf2, pre.addr_at(1));
        assert_eq!(d, Delivery::DeadLink { at: mid, hops: 2 });
        assert_eq!(path, vec![leaf2, t1, mid]);
        let (d2, deps) = walk_with_deps(&env, leaf2, pre.addr_at(1));
        assert_eq!(d, d2);
        // The walk consulted leaf's half of the link without entering it.
        assert_eq!(deps.unwrap().nodes(), &[leaf2, t1, mid, leaf]);
    }

    /// `n` nodes in a provider→customer line, the last one originating.
    fn line(n: u32) -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let c = REGIONS[0].center;
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| t.add_node(Asn(10 + i), NodeKind::Transit, c, 0))
            .collect();
        for w in nodes.windows(2) {
            t.link_provider_customer(w[0], w[1]);
        }
        (t, nodes)
    }

    #[test]
    fn walks_reading_more_than_max_deps_nodes_are_untracked() {
        let pre = p("184.164.244.0/24");
        for (n, tracked) in [(MAX_DEPS as u32, true), (MAX_DEPS as u32 + 1, false)] {
            let (topo, nodes) = line(n);
            let s = converged(&topo, *nodes.last().unwrap(), pre);
            let env = ForwardEnv {
                topo: &topo,
                bgp: s.sim(),
                down: &[],
            };
            let (d, path) = walk_with_path(&env, nodes[0], pre.addr_at(1));
            assert_eq!(d.delivered_to(), nodes.last().copied());
            assert_eq!(path, nodes);
            let (d2, deps) = walk_with_deps(&env, nodes[0], pre.addr_at(1));
            assert_eq!(d, d2);
            assert_eq!(deps.is_some(), tracked, "{n}-node path");
        }
    }

    #[test]
    fn transient_forwarding_loop_is_reported_with_the_repeated_node() {
        // o buys transit from a and b, which peer. After o withdraws, each
        // provider in turn falls back to the other's not-yet-withdrawn
        // route: for an instant their FIBs point at each other.
        let mut topo = Topology::new();
        let c = REGIONS[0].center;
        let a = topo.add_node(Asn(10), NodeKind::Transit, c, 0);
        let b = topo.add_node(Asn(20), NodeKind::Transit, c, 0);
        let o = topo.add_node(Asn(30), NodeKind::Stub, c, 0);
        topo.link_provider_customer(a, o);
        topo.link_provider_customer(b, o);
        topo.link_peers(a, b);
        let pre = p("184.164.244.0/24");
        let mut s = converged(&topo, o, pre);
        s.withdraw(o, pre);
        let mut looped = false;
        while s.pending_events() > 0 {
            s.run_to_idle(1);
            let env = ForwardEnv {
                topo: &topo,
                bgp: s.sim(),
                down: &[],
            };
            let (d, path) = walk_with_path(&env, a, pre.addr_at(1));
            if let Delivery::Loop { at, hops } = d {
                looped = true;
                assert_eq!((at, hops), (a, 2));
                assert_eq!(path, vec![a, b, a]);
                let (d2, deps) = walk_with_deps(&env, a, pre.addr_at(1));
                assert_eq!(d, d2);
                assert_eq!(deps.unwrap().nodes(), &path[..]);
            }
        }
        assert!(looped, "withdrawal never produced the a<->b loop");
        assert_eq!(s.sim().fib_lookup(a, pre.addr_at(1)), None);
    }

    #[test]
    fn blackhole_when_no_route() {
        let (topo, _, _, leaf, leaf2) = chain();
        let pre = p("184.164.244.0/24");
        let s = converged(&topo, leaf, pre);
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        };
        // An address outside any announced prefix dies at the source.
        match walk(&env, leaf2, p("9.9.9.0/24").addr_at(1)) {
            Delivery::Blackhole { at, hops } => {
                assert_eq!(at, leaf2);
                assert_eq!(hops, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dead_site_swallows_packets() {
        let (topo, _, _, leaf, leaf2) = chain();
        let pre = p("184.164.244.0/24");
        let s = converged(&topo, leaf, pre);
        // Mark the origin down without withdrawing: packets still routed
        // there (FIBs unchanged) but die on arrival — the instant after a
        // site failure, before any BGP reaction.
        let down = [leaf];
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &down,
        };
        match walk(&env, leaf2, pre.addr_at(1)) {
            Delivery::DeadNode { at, .. } => assert_eq!(at, leaf),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn source_down_immediately_dead() {
        let (topo, _, _, leaf, leaf2) = chain();
        let pre = p("184.164.244.0/24");
        let s = converged(&topo, leaf, pre);
        let down = [leaf2];
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &down,
        };
        assert!(matches!(
            walk(&env, leaf2, pre.addr_at(1)),
            Delivery::DeadNode { .. }
        ));
    }

    #[test]
    fn delivery_accessor() {
        let d = Delivery::Delivered {
            node: NodeId(3),
            hops: 2,
            latency: SimDuration::ZERO,
        };
        assert_eq!(d.delivered_to(), Some(NodeId(3)));
        assert_eq!(
            Delivery::Blackhole {
                at: NodeId(1),
                hops: 0
            }
            .delivered_to(),
            None
        );
    }
}
