//! The pure-unicast (DNS-redirection) failover experiment, run *in
//! simulation* rather than analytically.
//!
//! The paper does not measure unicast failover ("we have no straightforward
//! way to measure the impact of DNS caching … worldwide", §5) and instead
//! argues from published TTL and TTL-violation numbers. This module closes
//! the loop: it runs a pure-unicast CDN (one /24 per site, DNS steering) in
//! the same composite simulation as Figure 2 — BGP, data plane, and this
//! time also the DNS layer, with per-client resolver caches and violating
//! clients — and measures reconnection/failover with the §5.4.1 metric
//! definitions, producing a Figure-2-comparable "unicast" series.
//!
//! The dynamics are exactly the §2 story: the failed site's prefix is
//! withdrawn and its address dies, but clients keep *connecting to the old
//! address* until their resolver cache turns over (plus a violation grace
//! for the Allman-'20 fraction), because the surviving sites' prefixes are
//! unaffected by the failure and the data plane recovers instantly once a
//! client holds a fresh record.

use bobw_bgp::{BgpEvent, BgpSim, OriginConfig};
use bobw_dns::{Authoritative, RecursiveResolver};
use bobw_event::rng::lognormal;
use bobw_event::{Engine, Handler, Scheduler, SimDuration, SimTime};
use bobw_net::NodeId;
use bobw_topology::{CdnDeployment, SiteId, Topology};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::experiment::{FailoverResult, Testbed};
use crate::probing::ProbePlane;
use crate::targets::select_targets;

/// Client-population parameters for the in-sim DNS experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DnsClientConfig {
    /// Record TTL handed out by the CDN's authoritative server.
    pub ttl: SimDuration,
    /// Fraction of clients whose resolvers/applications keep using records
    /// past expiry.
    pub violator_fraction: f64,
    /// Median / lognormal-sigma of the violators' overshoot (Allman '20:
    /// median 890 s).
    pub overshoot_median_s: f64,
    pub overshoot_sigma: f64,
    /// How often each client retries its connection (mirrors the Figure 2
    /// probing cadence).
    pub attempt_interval: SimDuration,
    /// Length of the observation window after the failure.
    pub window: SimDuration,
}

impl Default for DnsClientConfig {
    fn default() -> Self {
        DnsClientConfig {
            ttl: SimDuration::from_secs(600),
            violator_fraction: 0.25,
            overshoot_median_s: 890.0,
            overshoot_sigma: 1.0,
            attempt_interval: SimDuration::from_millis(1500),
            window: SimDuration::from_secs(1800),
        }
    }
}

impl DnsClientConfig {
    /// Akamai-style 20 s TTL.
    pub fn low_ttl() -> DnsClientConfig {
        DnsClientConfig {
            ttl: SimDuration::from_secs(20),
            ..Default::default()
        }
    }
}

enum SimEvent {
    Bgp(BgpEvent),
    FailSite,
    DnsUpdate,
    AttemptRound,
}

struct DnsRun<'a> {
    topo: &'a Topology,
    cdn: &'a CdnDeployment,
    bgp: BgpSim,
    auth: Authoritative,
    /// One per target, in target order.
    resolvers: Vec<RecursiveResolver>,
    /// The targets, the data-plane down set, and their connection attempts
    /// (see [`ProbePlane`]). DNS answers change rarely (TTL scale), so most
    /// attempt rounds reuse the previous round's walks.
    attempts: ProbePlane,
    failed: SiteId,
    failed_node: NodeId,
    scratch: Vec<(SimDuration, BgpEvent)>,
}

impl Handler<SimEvent> for DnsRun<'_> {
    fn handle(&mut self, now: SimTime, event: SimEvent, sched: &mut Scheduler<'_, SimEvent>) {
        match event {
            SimEvent::Bgp(e) => {
                self.bgp.handle(now, e, &mut self.scratch);
                for (d, e) in self.scratch.drain(..) {
                    sched.after(d, SimEvent::Bgp(e));
                }
            }
            SimEvent::FailSite => {
                self.attempts.mark_down(self.failed_node);
                for prefix in self.bgp.node(self.failed_node).originated_prefixes() {
                    self.bgp
                        .withdraw(now, self.failed_node, prefix, &mut self.scratch);
                }
                for (d, e) in self.scratch.drain(..) {
                    sched.after(d, SimEvent::Bgp(e));
                }
            }
            SimEvent::DnsUpdate => {
                // The CDN's monitoring marks the site failed; fresh answers
                // now steer to each client's fallback site.
                self.auth.mark_failed(self.failed);
            }
            SimEvent::AttemptRound => {
                let DnsRun {
                    attempts,
                    topo,
                    bgp,
                    cdn,
                    resolvers,
                    auth,
                    ..
                } = self;
                attempts.round(topo, bgp, cdn, now, |i, _| {
                    resolvers[i].query(auth, now).map(|(answer, _)| answer.addr)
                });
            }
        }
    }
}

/// Runs the pure-unicast failover experiment for `failed`, returning a
/// [`FailoverResult`] comparable with [`crate::experiment::run_failover`]'s
/// output (technique name `"unicast-dns"`).
pub fn run_unicast_dns_failover(
    testbed: &Testbed,
    failed: SiteId,
    dns: &DnsClientConfig,
) -> FailoverResult {
    let cfg = &testbed.cfg;
    let topo = &testbed.topo;
    let cdn = &testbed.cdn;
    let plan = &cfg.plan;
    let failed_node = cdn.node(failed);

    // Same high-water-mark feedback as the failover loop: a comparable
    // cell's peak queue depth preallocates the hot lane (allocation only,
    // behavior identical).
    let mut engine: Engine<SimEvent> = Engine::with_capacity(testbed.queue_capacity_hint());
    let site_prefixes: Vec<_> = (0..cdn.num_sites()).map(|i| plan.site_prefix(i)).collect();
    let mut run = DnsRun {
        topo,
        cdn,
        bgp: BgpSim::from_seed(topo, cfg.timing.clone(), &testbed.bgp_seed),
        auth: Authoritative::new(site_prefixes.clone(), dns.ttl),
        resolvers: Vec::new(),
        attempts: ProbePlane::default(), // targets set after selection
        failed,
        failed_node,
        scratch: Vec::with_capacity(64),
    };

    // Phase 1: every site announces its own unicast /24 (plus the
    // measurement prefixes used for target selection); converge.
    for (i, site) in cdn.sites().enumerate() {
        run.bgp.announce(
            engine.now(),
            cdn.node(site),
            site_prefixes[i],
            OriginConfig::plain(),
            &mut run.scratch,
        );
        run.bgp.announce(
            engine.now(),
            cdn.node(site),
            plan.anycast_probe,
            OriginConfig::plain(),
            &mut run.scratch,
        );
    }
    run.bgp.announce(
        engine.now(),
        failed_node,
        plan.rtt_probe,
        OriginConfig::plain(),
        &mut run.scratch,
    );
    let pending: Vec<_> = run.scratch.drain(..).collect();
    for (d, e) in pending {
        engine.schedule_after(d, SimEvent::Bgp(e));
    }
    engine.run_to_idle(&mut run, cfg.max_events);

    // Phase 2: targets (≤50 ms of the failed site; the anycast criterion is
    // irrelevant to unicast control, so it is skipped) and their resolvers.
    let targets = select_targets(
        topo,
        cdn,
        &run.bgp,
        plan,
        failed,
        cfg.proximity_ms,
        false,
        cfg.targets_per_site,
        &testbed.rng,
    );
    let num_selected = targets.len();
    // Every target is steered to the failed site and pre-warms its cache at
    // a uniformly random phase within one TTL before the failure (steady
    // state). Violators get a lognormal stale grace.
    let t_fail = engine.now() + dns.ttl + SimDuration::from_secs(10);
    for (i, &t) in targets.iter().enumerate() {
        run.auth.assign(t, failed);
        let ranking: Vec<SiteId> = std::iter::once(failed)
            .chain(cdn.other_sites(failed))
            .collect();
        run.auth.set_fallback(t, ranking);
        let mut r = testbed.rng.stream("dns-client-sim", i as u64);
        let grace = if r.gen_bool(dns.violator_fraction.clamp(0.0, 1.0)) {
            SimDuration::from_secs_f64(lognormal(
                &mut r,
                dns.overshoot_median_s,
                dns.overshoot_sigma,
            ))
        } else {
            SimDuration::ZERO
        };
        let mut resolver = RecursiveResolver::new(t, grace);
        let phase = SimDuration::from_secs_f64(
            r.gen_range(0.0..dns.ttl.as_secs_f64().max(f64::MIN_POSITIVE)),
        );
        let warm_at = t_fail
            .checked_since(SimTime::ZERO)
            .map(|_| SimTime::ZERO + (t_fail.since(SimTime::ZERO) - phase))
            .expect("t_fail after zero");
        resolver.query(&run.auth, warm_at);
        run.resolvers.push(resolver);
    }
    run.attempts = ProbePlane::connections(targets);

    // Phase 3: failure, DNS reaction, connection attempts.
    engine.schedule_at(t_fail, SimEvent::FailSite);
    engine.schedule_at(t_fail + cfg.detection_delay, SimEvent::DnsUpdate);
    let rounds = (dns.window.as_nanos() / dns.attempt_interval.as_nanos().max(1)) as u32;
    for k in 0..rounds {
        engine.schedule_at(
            t_fail + dns.attempt_interval.saturating_mul(k as u64),
            SimEvent::AttemptRound,
        );
    }
    engine.run_until(&mut run, t_fail + dns.window, cfg.max_events);

    let outcomes = run.attempts.outcomes(t_fail);
    testbed.note_peak_queue_depth(engine.peak_pending());
    FailoverResult {
        technique: "unicast-dns".to_string(),
        site_name: cdn.name(failed).to_string(),
        failed_site: failed,
        num_candidates: num_selected,
        num_selected,
        num_controllable: run.attempts.targets().len(),
        outcomes,
        t_fail,
        traffic: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use bobw_measure::Cdf;

    fn testbed() -> Testbed {
        let mut cfg = ExperimentConfig::quick(21);
        cfg.targets_per_site = 60;
        Testbed::new(cfg)
    }

    #[test]
    fn unicast_failover_is_dns_bound() {
        let tb = testbed();
        let dns = DnsClientConfig {
            ttl: SimDuration::from_secs(60),
            violator_fraction: 0.0,
            window: SimDuration::from_secs(120),
            ..Default::default()
        };
        let r = run_unicast_dns_failover(&tb, tb.site("bos"), &dns);
        assert!(r.num_controllable > 0);
        let recon = Cdf::new(r.reconnection_secs());
        // Compliant clients with TTL 60: reconnection spread across
        // (0, 60] s, median near TTL/2 — far slower than the BGP-layer
        // techniques, and bounded by the TTL.
        let med = recon.median().expect("targets reconnect");
        assert!(
            (5.0..=62.0).contains(&med),
            "median {med} outside DNS-bound range"
        );
        assert!(recon.max().unwrap() <= 62.0);
        // Everyone ends at a surviving site.
        for o in &r.outcomes {
            if let Some(site) = o.final_site {
                assert_ne!(site, r.failed_site);
            }
        }
    }

    #[test]
    fn violators_stretch_the_tail() {
        let tb = testbed();
        let strict = DnsClientConfig {
            ttl: SimDuration::from_secs(30),
            violator_fraction: 0.0,
            window: SimDuration::from_secs(300),
            ..Default::default()
        };
        let loose = DnsClientConfig {
            violator_fraction: 0.5,
            ..strict.clone()
        };
        let site = tb.site("slc");
        let a = run_unicast_dns_failover(&tb, site, &strict);
        let b = run_unicast_dns_failover(&tb, site, &loose);
        let pa = Cdf::new(a.reconnection_secs());
        let pb = Cdf::new(b.reconnection_secs());
        // With violators, the p90 extends beyond the TTL bound (or targets
        // fail to reconnect inside the window at all).
        let tail_a = pa.quantile(0.9).unwrap_or(0.0);
        let tail_b = pb.quantile(0.9).unwrap_or(f64::MAX);
        let never_b = b.never_reconnected_fraction();
        assert!(
            tail_b > tail_a || never_b > 0.0,
            "violators had no effect: {tail_a} vs {tail_b} (never {never_b})"
        );
    }

    #[test]
    fn deterministic() {
        let tb = testbed();
        let dns = DnsClientConfig {
            ttl: SimDuration::from_secs(45),
            window: SimDuration::from_secs(90),
            ..Default::default()
        };
        let a = run_unicast_dns_failover(&tb, tb.site("msn"), &dns);
        let b = run_unicast_dns_failover(&tb, tb.site("msn"), &dns);
        assert_eq!(a.outcomes, b.outcomes);
    }
}
