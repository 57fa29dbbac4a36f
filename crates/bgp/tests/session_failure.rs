//! Link/session failure injection tests: silent failures, hold-timer
//! expiry, recovery, and the data-plane consequences.

use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
use bobw_event::{RngFactory, SimDuration};
use bobw_net::{Asn, NodeId, Prefix};
use bobw_topology::{NodeKind, Topology, REGIONS};

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// Diamond: origin multihomed under p1 and p2, both customers of t1.
///
/// ```text
///        t1
///       /  \
///      p1   p2
///       \  /
///      origin
/// ```
fn diamond() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
    let mut t = Topology::new();
    let c = REGIONS[0].center;
    let t1 = t.add_node(Asn(10), NodeKind::Tier1, c, 0);
    let p1 = t.add_node(Asn(20), NodeKind::Transit, c, 0);
    let p2 = t.add_node(Asn(21), NodeKind::Transit, c, 0);
    let origin = t.add_node(Asn(30), NodeKind::Stub, c, 0);
    t.link_provider_customer(t1, p1);
    t.link_provider_customer(t1, p2);
    t.link_provider_customer(p1, origin);
    t.link_provider_customer(p2, origin);
    (t, t1, p1, p2, origin)
}

fn timing(hold_s: f64) -> BgpTimingConfig {
    let mut t = BgpTimingConfig::instant();
    t.hold_time_s = hold_s;
    t
}

#[test]
fn silent_failure_holds_routes_until_hold_expiry() {
    let (topo, t1, p1, _p2, origin) = diamond();
    let rng = RngFactory::new(1);
    let mut s = Standalone::new(&topo, timing(90.0), &rng);
    let pre = p("184.164.244.0/24");
    s.announce(origin, pre, OriginConfig::plain());
    s.run_to_idle(1_000_000);
    assert_eq!(s.sim().best(p1, &pre).unwrap().from, Some(origin));

    // The origin-p1 link dies silently. No withdrawal is sent: p1 keeps
    // the stale route through the hold window.
    s.fail_link(origin, p1);
    let t_fail = s.now();
    s.run_until(t_fail + SimDuration::from_secs(60), 1_000_000);
    assert_eq!(
        s.sim().best(p1, &pre).unwrap().from,
        Some(origin),
        "route must persist before hold expiry"
    );
    assert!(!s.sim().link_is_up(origin, p1));
    assert!(s.sim().link_is_up(origin, _p2));

    // After the hold timer (90 s), p1 purges and falls back to the path
    // via its provider t1 -> p2 -> origin.
    s.run_to_idle(1_000_000);
    let best = s.sim().best(p1, &pre).unwrap();
    assert_eq!(best.from, Some(t1));
    assert_eq!(best.attrs.origin, origin);
    assert!(s.now() >= t_fail + SimDuration::from_secs(90));
}

#[test]
fn messages_on_failed_link_are_lost() {
    let (topo, _t1, p1, p2, origin) = diamond();
    let rng = RngFactory::new(1);
    let mut s = Standalone::new(&topo, timing(90.0), &rng);
    let pre = p("184.164.244.0/24");
    // Fail the link BEFORE announcing: p1 never hears the origin directly.
    s.fail_link(origin, p1);
    s.announce(origin, pre, OriginConfig::plain());
    s.run_to_idle(1_000_000);
    let best = s.sim().best(p1, &pre).expect("route via t1 survives");
    assert_ne!(best.from, Some(origin));
    // p2 heard it directly.
    assert_eq!(s.sim().best(p2, &pre).unwrap().from, Some(origin));
}

#[test]
fn restore_resends_full_table() {
    let (topo, _t1, p1, _p2, origin) = diamond();
    let rng = RngFactory::new(1);
    let mut s = Standalone::new(&topo, timing(90.0), &rng);
    let pre = p("184.164.244.0/24");
    s.announce(origin, pre, OriginConfig::plain());
    s.run_to_idle(1_000_000);
    s.fail_link(origin, p1);
    s.run_to_idle(1_000_000); // hold expires, p1 reroutes via t1
    assert_ne!(s.sim().best(p1, &pre).unwrap().from, Some(origin));

    // Link comes back: session re-establishes, full table re-exchanged,
    // p1 prefers its direct customer route again.
    s.restore_link(origin, p1);
    s.run_to_idle(1_000_000);
    assert!(s.sim().link_is_up(origin, p1));
    assert_eq!(s.sim().best(p1, &pre).unwrap().from, Some(origin));
}

#[test]
fn hold_expiry_noop_if_restored_in_time() {
    let (topo, _t1, p1, _p2, origin) = diamond();
    let rng = RngFactory::new(1);
    let mut s = Standalone::new(&topo, timing(90.0), &rng);
    let pre = p("184.164.244.0/24");
    s.announce(origin, pre, OriginConfig::plain());
    s.run_to_idle(1_000_000);
    s.fail_link(origin, p1);
    let t_fail = s.now();
    // Flap: restore before the hold timer fires.
    s.run_until(t_fail + SimDuration::from_secs(30), 1_000_000);
    s.restore_link(origin, p1);
    s.run_to_idle(1_000_000);
    // The pending HoldExpire events fired as no-ops; the direct route wins.
    assert_eq!(s.sim().best(p1, &pre).unwrap().from, Some(origin));
}

#[test]
fn short_hold_time_converges_fast() {
    // BFD-style sub-second detection: failure behaves almost like a
    // withdrawal.
    let (topo, t1, p1, _p2, origin) = diamond();
    let rng = RngFactory::new(1);
    let mut s = Standalone::new(&topo, timing(0.3), &rng);
    let pre = p("184.164.244.0/24");
    s.announce(origin, pre, OriginConfig::plain());
    s.run_to_idle(1_000_000);
    let t_fail = s.now();
    s.fail_link(origin, p1);
    s.run_to_idle(1_000_000);
    assert_eq!(s.sim().best(p1, &pre).unwrap().from, Some(t1));
    assert!(
        s.now().since(t_fail) < SimDuration::from_secs(5),
        "BFD-scale detection should reroute in seconds, took {}",
        s.now().since(t_fail)
    );
}

#[test]
fn whole_site_crash_isolates_until_hold() {
    let (topo, t1, p1, p2, origin) = diamond();
    let rng = RngFactory::new(1);
    let mut s = Standalone::new(&topo, timing(90.0), &rng);
    let pre = p("184.164.244.0/24");
    s.announce(origin, pre, OriginConfig::plain());
    s.run_to_idle(1_000_000);
    // Crash all of the origin's links at once.
    s.fail_all_links(origin, &[p1, p2]);
    s.run_to_idle(1_000_000);
    for n in [t1, p1, p2] {
        assert!(
            s.sim().best(n, &pre).is_none(),
            "{n} kept a route to a fully crashed site"
        );
    }
}

#[test]
fn double_link_failure_is_idempotent() {
    let (topo, _t1, p1, _p2, origin) = diamond();
    let rng = RngFactory::new(1);
    let mut s = Standalone::new(&topo, timing(90.0), &rng);
    let pre = p("184.164.244.0/24");
    s.announce(origin, pre, OriginConfig::plain());
    s.run_to_idle(1_000_000);

    // First failure arms one hold timer per link end.
    s.fail_link(origin, p1);
    let armed = s.pending_events();
    assert_eq!(armed, 2, "one HoldExpire per end of the failed link");

    // Failing the same (already dead) link again is a no-op: no extra
    // timers, no extra best-route churn once everything settles.
    s.fail_link(origin, p1);
    assert_eq!(
        s.pending_events(),
        armed,
        "re-failing a dead link must not schedule duplicate HoldExpire events"
    );

    s.run_to_idle(1_000_000);
    let single = {
        let rng = RngFactory::new(1);
        let mut reference = Standalone::new(&topo, timing(90.0), &rng);
        reference.announce(origin, pre, OriginConfig::plain());
        reference.run_to_idle(1_000_000);
        reference.fail_link(origin, p1);
        reference.run_to_idle(1_000_000);
        reference
    };
    assert_eq!(
        s.sim().stats().best_changes,
        single.sim().stats().best_changes
    );
    assert_eq!(s.events_processed(), single.events_processed());
}

#[test]
fn double_site_crash_is_idempotent() {
    // SilentCrash after a drill: the experiment layer can end up crashing
    // the same site twice; the second crash must not double the timers.
    let (topo, _t1, p1, p2, origin) = diamond();
    let rng = RngFactory::new(1);
    let mut s = Standalone::new(&topo, timing(90.0), &rng);
    let pre = p("184.164.244.0/24");
    s.announce(origin, pre, OriginConfig::plain());
    s.run_to_idle(1_000_000);

    s.fail_all_links(origin, &[p1, p2]);
    let armed = s.pending_events();
    assert_eq!(armed, 4, "two links, one HoldExpire per end");
    s.fail_all_links(origin, &[p1, p2]);
    assert_eq!(s.pending_events(), armed);

    // A partial overlap is also handled per-session: only the link that is
    // still up arms new timers.
    s.restore_link(origin, p1);
    s.run_until(s.now() + SimDuration::from_secs(1), 1_000_000);
    let before = s.pending_events();
    s.fail_all_links(origin, &[p1, p2]);
    assert_eq!(
        s.pending_events(),
        before + 2,
        "only the restored link arms fresh hold timers"
    );
}

#[test]
fn overlapping_link_failure_and_site_crash_is_idempotent() {
    // The scenario engine can script `LinkDown` on a link and then a
    // `SiteFail` that crashes every link of the same node. The overlap
    // must behave per-session: the crash only arms timers on the link
    // that is still alive, and the end state matches a direct crash.
    let (topo, _t1, p1, p2, origin) = diamond();
    let rng = RngFactory::new(1);
    let mut s = Standalone::new(&topo, timing(90.0), &rng);
    let pre = p("184.164.244.0/24");
    s.announce(origin, pre, OriginConfig::plain());
    s.run_to_idle(1_000_000);

    s.fail_link(origin, p1);
    let armed = s.pending_events();
    assert_eq!(armed, 2, "one HoldExpire per end of the failed link");
    s.fail_all_links(origin, &[p1, p2]);
    assert_eq!(
        s.pending_events(),
        armed + 2,
        "the crash arms timers only on the still-alive link"
    );
    s.run_to_idle(1_000_000);

    let direct = {
        let rng = RngFactory::new(1);
        let mut reference = Standalone::new(&topo, timing(90.0), &rng);
        reference.announce(origin, pre, OriginConfig::plain());
        reference.run_to_idle(1_000_000);
        reference.fail_all_links(origin, &[p1, p2]);
        reference.run_to_idle(1_000_000);
        reference
    };
    for n in [NodeId(0), NodeId(1), NodeId(2), NodeId(3)] {
        assert_eq!(
            bobw_bgp::dump_rib(s.sim(), n, &pre),
            bobw_bgp::dump_rib(direct.sim(), n, &pre),
            "RIB at {n} diverges between overlapped and direct crash"
        );
    }
}

#[test]
fn flap_sequence_restores_full_rib_equivalence() {
    // A scenario `Flap` compiles to withdraw/re-announce cycles. After
    // the last re-announce converges, every node's full RIB (candidates
    // and best) must be indistinguishable from a run that never flapped
    // — flap residue (stale candidates, lingering timers) would poison
    // any measurement taken after the churn.
    let (topo, t1, p1, p2, origin) = diamond();
    let pre = p("184.164.244.0/24");

    let rng = RngFactory::new(1);
    let mut flapped = Standalone::new(&topo, timing(90.0), &rng);
    flapped.announce(origin, pre, OriginConfig::plain());
    flapped.run_to_idle(1_000_000);
    for _ in 0..3 {
        flapped.withdraw(origin, pre);
        flapped.run_until(flapped.now() + SimDuration::from_secs(5), 1_000_000);
        flapped.announce(origin, pre, OriginConfig::plain());
        flapped.run_until(flapped.now() + SimDuration::from_secs(25), 1_000_000);
    }
    flapped.run_to_idle(1_000_000);

    let rng = RngFactory::new(1);
    let mut calm = Standalone::new(&topo, timing(90.0), &rng);
    calm.announce(origin, pre, OriginConfig::plain());
    calm.run_to_idle(1_000_000);

    assert_eq!(flapped.pending_events(), 0, "flap left timers armed");
    for n in [t1, p1, p2, origin] {
        assert_eq!(
            bobw_bgp::dump_rib(flapped.sim(), n, &pre),
            bobw_bgp::dump_rib(calm.sim(), n, &pre),
            "RIB at {n} retains flap residue"
        );
    }
}

#[test]
fn reset_then_cut_keeps_full_hold_window() {
    // A session reset arms hold timers that find the session back up when
    // they fire. If the same link is cut 60 s after the reset, the reset's
    // timer (due at +90 s) must not purge the new outage: that one gets its
    // own full hold window and purges at +150 s.
    let (topo, t1, p1, _p2, origin) = diamond();
    let rng = RngFactory::new(1);
    let mut s = Standalone::new(&topo, timing(90.0), &rng);
    let pre = p("184.164.244.0/24");
    s.announce(origin, pre, OriginConfig::plain());
    s.run_to_idle(1_000_000);
    let t0 = s.now();
    s.reset_link(origin, p1);
    s.run_until(t0 + SimDuration::from_secs(60), 1_000_000);
    s.fail_link(origin, p1);
    s.run_until(t0 + SimDuration::from_secs(149), 1_000_000);
    assert_eq!(
        s.sim().best(p1, &pre).unwrap().from,
        Some(origin),
        "the reset's stale hold timer purged the later outage early"
    );
    s.run_until(t0 + SimDuration::from_secs(151), 1_000_000);
    assert_eq!(s.sim().best(p1, &pre).unwrap().from, Some(t1));
}
