//! Load-aware client-to-site mapping — the *other* half of the paper's
//! case for control.
//!
//! §3: "only the CDN has access to the service availability, server load,
//! and internal software and hardware health information necessary to make
//! the best redirection decisions"; §4 lists "better load distribution"
//! among the goals traffic control serves. This module implements the
//! mapping layer that exercises that control: per-client demand weights, a
//! capacity-constrained greedy assignment (nearest site with headroom),
//! and re-assignment after a site failure. The resulting assignment is
//! what the CDN's authoritative DNS hands out ([`apply_to_dns`]).
//!
//! Anycast, by contrast, assigns clients by BGP's economics with no notion
//! of load — [`anycast_load`] measures how unbalanced that is, which is
//! the `load_balance` example's punchline.

use std::collections::HashMap;

use bobw_dataplane::{catchment, ForwardEnv};
use bobw_dns::Authoritative;
use bobw_event::rng::lognormal;
use bobw_event::RngFactory;
use bobw_net::{Ipv4Net, NodeId};
use bobw_topology::{CdnDeployment, NodeKind, SiteId, Topology};
use serde::{Deserialize, Serialize};

/// Per-client traffic demand, in arbitrary load units.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadModel {
    demands: Vec<(NodeId, f64)>,
}

impl LoadModel {
    /// Samples demands: eyeball networks carry heavy, heavy-tailed demand
    /// (median 10, lognormal σ=1); stubs are light (median 1, σ=0.7).
    pub fn sample(topo: &Topology, rng: &RngFactory) -> LoadModel {
        let mut demands = Vec::new();
        for n in topo.nodes().filter(|n| n.kind.hosts_clients()) {
            let mut r = rng.stream("load-demand", n.id.index() as u64);
            let d = match n.kind {
                NodeKind::Eyeball => lognormal(&mut r, 10.0, 1.0),
                _ => lognormal(&mut r, 1.0, 0.7),
            };
            demands.push((n.id, d));
        }
        LoadModel { demands }
    }

    pub fn demands(&self) -> &[(NodeId, f64)] {
        &self.demands
    }

    pub fn total(&self) -> f64 {
        self.demands.iter().map(|(_, d)| *d).sum()
    }

    pub fn demand_of(&self, client: NodeId) -> Option<f64> {
        self.demands
            .iter()
            .find(|(n, _)| *n == client)
            .map(|(_, d)| *d)
    }
}

/// A capacity-constrained assignment of clients to sites.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Assignment {
    /// client → site; clients that could not be placed are absent.
    pub mapping: HashMap<NodeId, SiteId>,
    /// Load placed on each site.
    pub load: Vec<f64>,
    /// Demand that fit nowhere (all candidate sites full).
    pub unplaced: f64,
}

impl Assignment {
    /// Max/mean load ratio across sites with nonzero capacity — 1.0 is a
    /// perfect balance.
    pub fn imbalance(&self) -> f64 {
        let active: Vec<f64> = self.load.iter().copied().filter(|l| *l > 0.0).collect();
        if active.is_empty() {
            return 1.0;
        }
        let mean = active.iter().sum::<f64>() / active.len() as f64;
        let max = active.iter().fold(0.0f64, |a, b| a.max(*b));
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Greedy capacity-constrained assignment: clients in descending demand
/// order go to the nearest (geo-RTT) site with headroom, spilling outward.
/// `capacities[i] = f64::INFINITY` models an uncapped site; a failed site
/// gets capacity 0.
pub fn assign_load_aware(
    topo: &Topology,
    cdn: &CdnDeployment,
    model: &LoadModel,
    capacities: &[f64],
) -> Assignment {
    assert_eq!(capacities.len(), cdn.num_sites());
    let mut order: Vec<(NodeId, f64)> = model.demands.clone();
    // Heaviest first; ties broken by id for determinism.
    order.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));

    // Per-client site preference by great-circle RTT.
    let site_coords: Vec<_> = cdn
        .site_nodes()
        .iter()
        .map(|&n| topo.node(n).coords)
        .collect();

    let mut load = vec![0.0; cdn.num_sites()];
    let mut mapping = HashMap::new();
    let mut unplaced = 0.0;
    for (client, demand) in order {
        let c = topo.node(client).coords;
        let mut prefs: Vec<(f64, usize)> = site_coords
            .iter()
            .enumerate()
            .map(|(i, sc)| (c.distance_km(sc), i))
            .collect();
        prefs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
        let slot = prefs
            .iter()
            .find(|(_, i)| load[*i] + demand <= capacities[*i]);
        match slot {
            Some((_, i)) => {
                load[*i] += demand;
                mapping.insert(client, SiteId(*i as u8));
            }
            None => unplaced += demand,
        }
    }
    Assignment {
        mapping,
        load,
        unplaced,
    }
}

/// The load each site would carry under pure anycast: clients fall where
/// BGP puts them, demands and capacities notwithstanding.
pub fn anycast_load(
    env: &ForwardEnv<'_>,
    cdn: &CdnDeployment,
    model: &LoadModel,
    anycast_addr: Ipv4Net,
) -> Vec<f64> {
    let mut load = vec![0.0; cdn.num_sites()];
    for (client, demand) in &model.demands {
        if let Some(site) = catchment(env, cdn, *client, anycast_addr) {
            load[site.index()] += demand;
        }
    }
    load
}

/// Installs an assignment into the CDN's authoritative DNS: each client's
/// preferred site plus a nearest-first fallback ranking for failures.
pub fn apply_to_dns(
    topo: &Topology,
    cdn: &CdnDeployment,
    assignment: &Assignment,
    auth: &mut Authoritative,
) {
    for (&client, &site) in &assignment.mapping {
        auth.assign(client, site);
        let c = topo.node(client).coords;
        let mut ranking: Vec<(f64, SiteId)> = cdn
            .sites()
            .map(|s| {
                let d = c.distance_km(&topo.node(cdn.node(s)).coords);
                (d, s)
            })
            .collect();
        ranking.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
        auth.set_fallback(client, ranking.into_iter().map(|(_, s)| s).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_event::{SimDuration, SimTime};
    use bobw_net::Prefix;
    use bobw_topology::{generate, GenConfig};

    fn testbed() -> (Topology, CdnDeployment, RngFactory) {
        // Same world a `bobw_core::ExperimentConfig::quick(8)` testbed
        // builds: the small generator under master seed 8.
        let rng = RngFactory::new(8);
        let (topo, cdn) = generate(&GenConfig::small(), &rng);
        (topo, cdn, rng)
    }

    #[test]
    fn demands_deterministic_and_heavy_on_eyeballs() {
        let (topo, _, rng) = testbed();
        let a = LoadModel::sample(&topo, &rng);
        let b = LoadModel::sample(&topo, &rng);
        assert_eq!(a.demands(), b.demands());
        assert_eq!(a.demands().len(), topo.client_nodes().count());
        // Eyeballs dominate total demand.
        let eyeball: f64 = a
            .demands()
            .iter()
            .filter(|(n, _)| topo.node(*n).kind == NodeKind::Eyeball)
            .map(|(_, d)| *d)
            .sum();
        assert!(eyeball > a.total() * 0.5);
    }

    #[test]
    fn uncapped_assignment_places_everyone_nearest() {
        let (topo, cdn, rng) = testbed();
        let model = LoadModel::sample(&topo, &rng);
        let caps = vec![f64::INFINITY; cdn.num_sites()];
        let a = assign_load_aware(&topo, &cdn, &model, &caps);
        assert_eq!(a.mapping.len(), model.demands().len());
        assert_eq!(a.unplaced, 0.0);
        assert!((a.load.iter().sum::<f64>() - model.total()).abs() < 1e-6);
        // Everyone is at their geographically nearest site.
        for (&client, &site) in &a.mapping {
            let c = topo.node(client).coords;
            let assigned = c.distance_km(&topo.node(cdn.node(site)).coords);
            for other in cdn.sites() {
                let d = c.distance_km(&topo.node(cdn.node(other)).coords);
                assert!(assigned <= d + 1e-9, "client {client} not at nearest site");
            }
        }
    }

    #[test]
    fn capacity_forces_spill() {
        let (topo, cdn, rng) = testbed();
        let model = LoadModel::sample(&topo, &rng);
        let fair = model.total() / cdn.num_sites() as f64;
        let caps = vec![fair * 1.2; cdn.num_sites()];
        let a = assign_load_aware(&topo, &cdn, &model, &caps);
        for (i, l) in a.load.iter().enumerate() {
            assert!(
                *l <= caps[i] + 1e-9,
                "site {i} overloaded: {l} > {}",
                caps[i]
            );
        }
        // Capacity 1.2× fair share is enough to place everything.
        assert!(
            a.unplaced < model.total() * 0.05,
            "too much unplaced demand: {}",
            a.unplaced
        );
        // And the balance is tight by construction.
        assert!(a.imbalance() <= 1.25, "imbalance {}", a.imbalance());
    }

    #[test]
    fn failed_site_spills_to_survivors() {
        let (topo, cdn, rng) = testbed();
        let model = LoadModel::sample(&topo, &rng);
        let fair = model.total() / cdn.num_sites() as f64;
        let mut caps = vec![fair * 1.6; cdn.num_sites()];
        let before = assign_load_aware(&topo, &cdn, &model, &caps);
        let ams = cdn.by_name("ams").unwrap();
        caps[ams.index()] = 0.0;
        let after = assign_load_aware(&topo, &cdn, &model, &caps);
        assert_eq!(after.load[ams.index()], 0.0);
        assert!(after.mapping.values().all(|s| *s != ams));
        // The displaced demand lands on the survivors.
        let survivors_before: f64 = before
            .load
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != ams.index())
            .map(|(_, l)| *l)
            .sum();
        let survivors_after: f64 = after
            .load
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != ams.index())
            .map(|(_, l)| *l)
            .sum();
        assert!(survivors_after >= survivors_before);
    }

    #[test]
    fn assignment_feeds_dns() {
        let (topo, cdn, rng) = testbed();
        let model = LoadModel::sample(&topo, &rng);
        let caps = vec![f64::INFINITY; cdn.num_sites()];
        let a = assign_load_aware(&topo, &cdn, &model, &caps);
        let prefixes: Vec<Prefix> = (0..cdn.num_sites())
            .map(|i| format!("10.1.{i}.0/24").parse().unwrap())
            .collect();
        let mut auth = Authoritative::new(prefixes, SimDuration::from_secs(60));
        apply_to_dns(&topo, &cdn, &a, &mut auth);
        let (&client, &site) = a.mapping.iter().next().expect("nonempty");
        let ans = auth
            .resolve(client, SimTime::ZERO)
            .expect("assigned client resolves");
        assert_eq!(ans.site, site);
        // After a failure, resolution falls back to another site.
        auth.mark_failed(site);
        let ans2 = auth.resolve(client, SimTime::ZERO);
        if let Some(ans2) = ans2 {
            assert_ne!(ans2.site, site);
        }
    }

    #[test]
    fn imbalance_of_even_load_is_one() {
        let a = Assignment {
            mapping: HashMap::new(),
            load: vec![5.0, 5.0, 5.0],
            unplaced: 0.0,
        };
        assert!((a.imbalance() - 1.0).abs() < 1e-12);
        let b = Assignment {
            mapping: HashMap::new(),
            load: vec![10.0, 5.0, 0.0],
            unplaced: 0.0,
        };
        assert!(b.imbalance() > 1.3);
    }
}
