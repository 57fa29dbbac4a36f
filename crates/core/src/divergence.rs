//! Appendix C.1: why does `proactive-prepending` lose control at some
//! sites?
//!
//! The paper announces a unicast prefix `u` from the intended site and an
//! anycast prefix `a5` from every site with the backups prepending five
//! times, measures both reverse paths per target, finds the *diverging AS*
//! (the last AS the two paths share), and classifies the divergence: 82% of
//! sea1's lost targets diverge at an AS whose route toward `a5` is
//! preferred by standard business policy (customer over peer over
//! provider), and for 54% the next hop toward `a5` is an R&E network. The
//! simulator gets the paths from ground-truth FIB walks instead of reverse
//! traceroute.

use bobw_bgp::{OriginConfig, Standalone};
use bobw_dataplane::{walk_with_path, ForwardEnv};
use bobw_net::{NodeId, PathTable};
use bobw_topology::{Rel, SiteId};
use serde::{Deserialize, Serialize};

use crate::experiment::Testbed;
use crate::targets::select_targets;
use crate::technique::Technique;

/// The Appendix C.1 classification for one site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DivergenceReport {
    pub site_name: String,
    /// Targets with measurable paths to both prefixes.
    pub measured_pairs: usize,
    /// Targets whose `a5` path reaches the intended site.
    pub to_intended: usize,
    /// Targets routed to a different site.
    pub diverged: usize,
    /// Diverged targets whose next hop toward `a5` (after the diverging AS)
    /// is an R&E network while the `u` path goes commercial.
    pub via_rne: usize,
    /// Diverged targets where the diverging AS prefers the `a5` link by
    /// relationship class (customer > peer > provider).
    pub business_pref: usize,
}

impl DivergenceReport {
    pub fn frac_to_intended(&self) -> f64 {
        frac(self.to_intended, self.measured_pairs)
    }

    pub fn frac_business_pref(&self) -> f64 {
        frac(self.business_pref, self.diverged)
    }

    pub fn frac_via_rne(&self) -> f64 {
        frac(self.via_rne, self.diverged)
    }
}

fn frac(a: usize, b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn rel_rank(rel: Rel) -> u8 {
    match rel {
        Rel::Customer => 3,
        Rel::MutualTransit => 2,
        Rel::Peer => 1,
        Rel::Provider => 0,
    }
}

/// Runs the C.1 experiment for `site`: `rtt_probe` doubles as the unicast
/// prefix `u`; `specific` plays `a5` with the backups prepending
/// `prepends` (paper: 5) times. Like every cell, it interns its AS paths
/// in a [`PathTable::scope`] of its own.
pub fn analyze_divergence(testbed: &Testbed, site: SiteId, prepends: u8) -> DivergenceReport {
    PathTable::scope(|| divergence_cell(testbed, site, prepends))
}

fn divergence_cell(testbed: &Testbed, site: SiteId, prepends: u8) -> DivergenceReport {
    let cfg = &testbed.cfg;
    let topo = &testbed.topo;
    let cdn = &testbed.cdn;
    let plan = &cfg.plan;

    let mut sim = Standalone::new(topo, cfg.timing.clone(), &testbed.rng);
    // u: unicast from the intended site (the rtt_probe prefix, which the
    // target-selection machinery also needs).
    sim.announce(cdn.node(site), plan.rtt_probe, OriginConfig::plain());
    // Anycast measurement prefix for the selection criterion.
    for s in cdn.sites() {
        sim.announce(cdn.node(s), plan.anycast_probe, OriginConfig::plain());
    }
    // a5: the specific prefix, plain at the site, prepended elsewhere.
    let t = Technique::ProactivePrepending {
        prepends,
        selective: false,
    };
    for a in t.before(plan, topo, cdn, site) {
        sim.announce(a.node, a.prefix, a.cfg);
    }
    sim.run_to_idle(cfg.max_events);

    let targets = select_targets(
        topo,
        cdn,
        sim.sim(),
        plan,
        site,
        cfg.proximity_ms,
        true,
        cfg.targets_per_site,
        &testbed.rng,
    );

    let env = ForwardEnv {
        topo,
        bgp: sim.sim(),
        down: &[],
    };
    let mut report = DivergenceReport {
        site_name: cdn.name(site).to_string(),
        measured_pairs: 0,
        to_intended: 0,
        diverged: 0,
        via_rne: 0,
        business_pref: 0,
    };

    for target in targets {
        let (du, path_u) = walk_with_path(&env, target, plan.rtt_addr());
        let (da, path_a) = walk_with_path(&env, target, plan.probe_addr());
        let (Some(end_u), Some(end_a)) = (du.delivered_to(), da.delivered_to()) else {
            continue; // the paper also drops unmeasurable pairs
        };
        debug_assert_eq!(cdn.site_at(end_u), Some(site), "u is unicast from the site");
        report.measured_pairs += 1;
        if cdn.site_at(end_a) == Some(site) {
            report.to_intended += 1;
            continue;
        }
        report.diverged += 1;
        // Diverging AS: last common node of the shared path prefix.
        let mut i = 0;
        while i < path_u.len() && i < path_a.len() && path_u[i] == path_a[i] {
            i += 1;
        }
        if i == 0 || i >= path_u.len() || i >= path_a.len() {
            continue; // no divergence point with two next hops (e.g. one
                      // path is a prefix of the other)
        }
        let diverging: NodeId = path_u[i - 1];
        let next_u = path_u[i];
        let next_a = path_a[i];
        if topo.node(next_a).kind.is_rne() && !topo.node(next_u).kind.is_rne() {
            report.via_rne += 1;
        }
        if let (Some(rel_a), Some(rel_u)) =
            (topo.rel(diverging, next_a), topo.rel(diverging, next_u))
        {
            // `rel` is the neighbor's role: the diverging AS prefers
            // routing *via its customer*.
            if rel_rank(rel_a) > rel_rank(rel_u) {
                report.business_pref += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;

    #[test]
    fn sea1_divergence_dominated_by_policy() {
        let mut cfg = ExperimentConfig::quick(7);
        cfg.targets_per_site = 200;
        let tb = Testbed::new(cfg);
        let report = analyze_divergence(&tb, tb.site("sea1"), 5);
        assert!(report.measured_pairs > 0);
        assert_eq!(report.measured_pairs, report.to_intended + report.diverged);
        // sea1 must lose a substantial share of targets (Table 1: 6%
        // steered; ours need not match numerically but must diverge a lot).
        assert!(
            report.frac_to_intended() < 0.7,
            "sea1 keeping too much control: {}",
            report.frac_to_intended()
        );
        // Fractions are well-formed.
        assert!(report.via_rne <= report.diverged);
        assert!(report.business_pref <= report.diverged);
        // The dominant explanation is business preference (the C.1
        // finding): more than half the diverged targets.
        if report.diverged > 10 {
            assert!(
                report.frac_business_pref() > 0.3,
                "business preference should explain much of the loss: {}",
                report.frac_business_pref()
            );
        }
    }

    #[test]
    fn sea2_retains_more_control_than_sea1() {
        // The paper's Seattle pair: sea2 (university-hosted, behind the
        // R&E fabric) retains control; sea1 (commercial IX) loses it.
        let mut cfg = ExperimentConfig::quick(7);
        cfg.targets_per_site = 200;
        let tb = Testbed::new(cfg);
        let sea2 = analyze_divergence(&tb, tb.site("sea2"), 5);
        let sea1 = analyze_divergence(&tb, tb.site("sea1"), 5);
        assert!(
            sea2.measured_pairs > 10,
            "sea2 pairs {}",
            sea2.measured_pairs
        );
        // sea1's eligible population can be small at quick scale (its IX
        // presence leaves few non-anycast-routed nearby targets); only
        // compare when the sample is meaningful.
        if sea1.measured_pairs > 5 {
            assert!(
                sea2.frac_to_intended() > sea1.frac_to_intended(),
                "sea2 {} !> sea1 {}",
                sea2.frac_to_intended(),
                sea1.frac_to_intended()
            );
        }
    }
}
