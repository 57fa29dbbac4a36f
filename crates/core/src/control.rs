//! Traffic-control measurement (Table 1).
//!
//! For each site, the paper reports (a) the percentage of its ≤50 ms
//! targets that anycast routes to a *different* site, and (b) of those, the
//! percentage `proactive-prepending` can steer to the site when the backup
//! sites prepend 3 or 5 times. (Targets anycast already routes to the site
//! can trivially be steered by any technique — §5.1.)

use bobw_bgp::{OriginConfig, Standalone};
use bobw_dataplane::{catchment, rtt_to_site, ForwardEnv};
use bobw_event::SimDuration;
use bobw_net::{NodeId, PathTable};
use bobw_topology::SiteId;
use serde::{Deserialize, Serialize};

use crate::experiment::{CellPerf, Testbed};
use crate::technique::Technique;

/// Table 1 numbers for one site.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ControlResult {
    pub site_name: String,
    pub site: SiteId,
    /// Clients within the proximity criterion.
    pub num_near: usize,
    /// Of the near clients, the fraction anycast routes to a different
    /// site (Table 1's second row).
    pub frac_not_anycast_routed: f64,
    /// Per prepend count: of the not-anycast-routed near clients, the
    /// fraction steered to this site by proactive-prepending.
    pub steered: Vec<(u8, f64)>,
}

/// Measures Table 1 for one site across the given prepend counts, with
/// the cell's perf counters (event count, peak queue depth, wall time) —
/// the control-cell analogue of [`run_failover`](crate::run_failover), so
/// Table 1 cells show up in `PerfLog` and can be dispatched to
/// distributed workers. The cell interns its AS paths in a
/// [`PathTable::scope`] of its own.
pub fn measure_control(
    testbed: &Testbed,
    site: SiteId,
    prepend_counts: &[u8],
) -> (ControlResult, CellPerf) {
    PathTable::scope(|| control_cell(testbed, site, prepend_counts))
}

fn control_cell(
    testbed: &Testbed,
    site: SiteId,
    prepend_counts: &[u8],
) -> (ControlResult, CellPerf) {
    let wall_start = std::time::Instant::now();
    let cfg = &testbed.cfg;
    let topo = &testbed.topo;
    let cdn = &testbed.cdn;
    let plan = &cfg.plan;
    let site_node = cdn.node(site);

    let mut sim = Standalone::new(topo, cfg.timing.clone(), &testbed.rng);
    // Measurement prefixes: unicast RTT probe from the site, anycast probe
    // from every site.
    sim.announce(site_node, plan.rtt_probe, OriginConfig::plain());
    for s in cdn.sites() {
        sim.announce(cdn.node(s), plan.anycast_probe, OriginConfig::plain());
    }
    sim.run_to_idle(cfg.max_events);

    // Near clients and their anycast catchment.
    let max_rtt = SimDuration::from_secs_f64(cfg.proximity_ms / 1000.0);
    let (near, not_anycast): (Vec<NodeId>, Vec<NodeId>) = {
        let env = ForwardEnv {
            topo,
            bgp: sim.sim(),
            down: &[],
        };
        let near: Vec<NodeId> = topo
            .client_nodes()
            .filter(|c| matches!(rtt_to_site(&env, *c, plan.rtt_addr()), Some(r) if r <= max_rtt))
            .collect();
        let not_anycast = near
            .iter()
            .copied()
            .filter(|c| catchment(&env, cdn, *c, plan.anycast_addr()) != Some(site))
            .collect();
        (near, not_anycast)
    };

    let frac_not_anycast_routed = if near.is_empty() {
        0.0
    } else {
        not_anycast.len() as f64 / near.len() as f64
    };

    // For each prepend count: announce the specific prefix plain at the
    // site, prepended elsewhere, converge, and count steered targets.
    let mut steered = Vec::with_capacity(prepend_counts.len());
    for &k in prepend_counts {
        let t = Technique::ProactivePrepending {
            prepends: k,
            selective: false,
        };
        for a in t.before(plan, topo, cdn, site) {
            sim.announce(a.node, a.prefix, a.cfg);
        }
        sim.run_to_idle(cfg.max_events);
        let frac = {
            let env = ForwardEnv {
                topo,
                bgp: sim.sim(),
                down: &[],
            };
            if not_anycast.is_empty() {
                0.0
            } else {
                not_anycast
                    .iter()
                    .filter(|c| catchment(&env, cdn, **c, plan.probe_addr()) == Some(site))
                    .count() as f64
                    / not_anycast.len() as f64
            }
        };
        steered.push((k, frac));
    }

    let result = ControlResult {
        site_name: cdn.name(site).to_string(),
        site,
        num_near: near.len(),
        frac_not_anycast_routed,
        steered,
    };
    let perf = CellPerf {
        events_processed: sim.events_processed(),
        peak_queue_depth: sim.peak_queue_depth(),
        queue_capacity: sim.queue_capacity(),
        wall_micros: wall_start.elapsed().as_micros() as u64,
    };
    (result, perf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;

    #[test]
    fn table1_shape_for_key_sites() {
        let tb = Testbed::new(ExperimentConfig::quick(7));
        let (ams, _) = measure_control(&tb, tb.site("ams"), &[3, 5]);
        let (atl, _) = measure_control(&tb, tb.site("atl"), &[3, 5]);
        assert!(ams.num_near > 0 && atl.num_near > 0);
        // ams (well connected: providers + many peers) attracts more of its
        // nearby clients via anycast than atl (one transit + one R&E), the
        // paper's low/high extremes of Table 1's second row (15% vs 95%).
        assert!(ams.frac_not_anycast_routed < atl.frac_not_anycast_routed);
        for r in [&ams, &atl] {
            for (_, f) in &r.steered {
                assert!((0.0..=1.0).contains(f));
            }
        }
    }
}
