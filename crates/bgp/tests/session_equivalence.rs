//! The abstract and message-level session models must agree on every
//! steady state: after convergence, and after a site link is cut, purged at
//! hold expiry and restored. They differ in how they get there (OPEN
//! handshakes, codec round trips, FSM-driven teardown), never in where the
//! decision process ends up.

use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
use bobw_event::RngFactory;
use bobw_net::Prefix;
use bobw_topology::{generate, GenConfig};

fn check(gen: &GenConfig, seed: u64) {
    let rng = RngFactory::new(seed);
    let (topo, cdn) = generate(gen, &rng);
    let anycast: Prefix = "184.164.244.0/24".parse().unwrap();
    let unicast: Prefix = "184.164.245.0/24".parse().unwrap();
    let site = cdn.site_nodes()[0];
    let world = |message_level: bool| {
        let mut s = Standalone::new(&topo, BgpTimingConfig::default(), &rng);
        if message_level {
            s.enable_message_level();
        }
        for &node in cdn.site_nodes() {
            s.announce(node, anycast, OriginConfig::plain());
        }
        s.announce(site, unicast, OriginConfig::plain());
        s.run_to_idle(u64::MAX);
        s
    };
    let same_best = |abs: &Standalone, ml: &Standalone, phase: &str| {
        for n in topo.ids() {
            for pre in [anycast, unicast] {
                assert_eq!(
                    abs.sim().best(n, &pre),
                    ml.sim().best(n, &pre),
                    "seed {seed}, {} nodes, {phase}: best route for {pre} at {n} \
                     differs between session models",
                    topo.len()
                );
            }
        }
    };
    let (mut abs, mut ml) = (world(false), world(true));
    same_best(&abs, &ml, "converged");

    // Cut the site's first link; both models purge at hold expiry.
    let peer = topo.neighbors(site)[0].peer;
    for s in [&mut abs, &mut ml] {
        s.fail_link(site, peer);
        s.run_to_idle(u64::MAX);
        assert!(!s.sim().link_is_up(site, peer));
    }
    same_best(&abs, &ml, "link cut");

    for s in [&mut abs, &mut ml] {
        s.restore_link(site, peer);
        s.run_to_idle(u64::MAX);
        assert!(s.sim().link_is_up(site, peer));
    }
    same_best(&abs, &ml, "link restored");
}

#[test]
fn models_agree_on_tiny_topologies() {
    for seed in 1..=4 {
        check(&GenConfig::tiny(), seed);
    }
}

#[test]
fn models_agree_on_small_topologies() {
    for seed in 1..=4 {
        check(&GenConfig::small(), seed);
    }
}
