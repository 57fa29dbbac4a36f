//! The Appendix A/B studies (Figures 3 and 4): withdrawal convergence and
//! anycast announcement propagation, measured through route collectors with
//! the paper's estimators.
//!
//! The paper compares hypergiant prefixes (from RIS archives) against its
//! own PEERING announcements and finds both distributions similar. Here the
//! two populations are origins attached with the corresponding
//! [`OriginProfile`]s, each instance on an independently generated
//! Internet; the estimation pipeline (burst detection, per-peer
//! convergence/propagation) is identical to the paper's.

use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
use bobw_core::{CellPerf, ExperimentConfig};
use bobw_event::RngFactory;
use bobw_measure::{
    estimate_event_time, per_peer_convergence, per_peer_propagation, pick_collector_peers,
    Collector,
};
use bobw_net::{PathTable, Prefix};
use bobw_topology::{attach_origin, generate, OriginProfile};
use serde::Serialize;

/// Stride used when picking collector peers (all tier-1s + every N-th
/// transit).
const COLLECTOR_STRIDE: usize = 3;

/// One population's convergence/propagation samples.
#[derive(Debug, Clone, Serialize)]
pub struct StudyOutput {
    pub population: String,
    /// Per ⟨collector peer, event⟩ seconds.
    pub samples: Vec<f64>,
    /// |estimated − true| event-time error per instance (validates the
    /// paper's burst estimator; they report ≤10 s at median).
    pub estimator_error_secs: Vec<f64>,
    pub instances: usize,
}

fn study_prefix() -> Prefix {
    "184.164.248.0/24".parse().expect("static")
}

/// Appendix A (Figure 3): unicast withdrawal convergence for one origin
/// profile across `instances` independently generated Internets, fanned
/// over `jobs` runner threads, plus per-instance perf counters. Instances
/// are folded in index order, so the output is identical for any `jobs`
/// value. Each instance interns its AS paths in a [`PathTable::scope`] of
/// its own.
pub fn withdrawal_convergence_instrumented(
    cfg: &ExperimentConfig,
    timing: &BgpTimingConfig,
    profile: OriginProfile,
    instances: usize,
    jobs: usize,
) -> (StudyOutput, Vec<CellPerf>) {
    let prefix = study_prefix();
    let idx: Vec<usize> = (0..instances).collect();
    let per_instance = crate::runner::run_cells(&idx, jobs, |_, &i| {
        PathTable::scope(|| {
            let wall_start = std::time::Instant::now();
            let rng = RngFactory::new(cfg.seed).derive("fig3", i as u64);
            let (mut topo, _cdn) = generate(&cfg.gen, &rng);
            let origin = attach_origin(&mut topo, profile, &rng, i as u64);
            let peers = pick_collector_peers(&topo, COLLECTOR_STRIDE);
            let collector = Collector::new(peers, &rng);

            let mut sim = Standalone::new(&topo, timing.clone(), &rng);
            sim.announce(origin, prefix, OriginConfig::plain());
            sim.run_to_idle(cfg.max_events);
            sim.sim_mut().set_record_history(true);
            let t_withdraw = sim.now();
            sim.withdraw(origin, prefix);
            sim.run_to_idle(cfg.max_events);

            let feed = collector.feed(sim.sim().history(), prefix);
            // The paper estimates the withdrawal instant from the update burst
            // because it lacks ground truth for hypergiants; the simulator has
            // ground truth (as the paper does for its own PEERING events), so
            // convergence is measured from the true instant and the estimator
            // is validated on the side. In our denser-multihomed topologies the
            // burst estimator runs late (withdrawals only surface once path
            // exploration exhausts) — see EXPERIMENTS.md.
            let error = estimate_event_time(&feed, true)
                .map(|est| (est.as_nanos() as f64 - t_withdraw.as_nanos() as f64).abs() / 1e9);
            let samples: Vec<f64> = per_peer_convergence(&feed, t_withdraw)
                .into_iter()
                .map(|(_, d)| d.as_secs_f64())
                .collect();
            let perf = CellPerf {
                events_processed: sim.events_processed(),
                peak_queue_depth: sim.peak_queue_depth(),
                queue_capacity: sim.queue_capacity(),
                wall_micros: wall_start.elapsed().as_micros() as u64,
            };
            (samples, error, perf)
        })
    });

    let mut samples = Vec::new();
    let mut errors = Vec::new();
    let mut perfs = Vec::with_capacity(instances);
    for (s, e, p) in per_instance {
        samples.extend(s);
        errors.extend(e);
        perfs.push(p);
    }
    (
        StudyOutput {
            population: format!("{profile:?}"),
            samples,
            estimator_error_secs: errors,
            instances,
        },
        perfs,
    )
}

/// Appendix B (Figure 4): anycast announcement propagation.
///
/// `origins_per_instance > 1` models the Manycast2-like population (the
/// same prefix announced from several independent origins at once);
/// `origins_per_instance == 1` with [`OriginProfile::PeeringTestbed`]
/// models the paper's own PEERING announcements. The instance loop is
/// fanned over `jobs` runner threads and folded in index order, so the
/// output is identical for any `jobs` value; per-instance perf counters
/// ride along. Each instance interns its AS paths in a
/// [`PathTable::scope`] of its own.
pub fn announcement_propagation_instrumented(
    cfg: &ExperimentConfig,
    timing: &BgpTimingConfig,
    profile: OriginProfile,
    origins_per_instance: usize,
    instances: usize,
    jobs: usize,
) -> (StudyOutput, Vec<CellPerf>) {
    let prefix = study_prefix();
    let idx: Vec<usize> = (0..instances).collect();
    let per_instance = crate::runner::run_cells(&idx, jobs, |_, &i| {
        PathTable::scope(|| {
            let wall_start = std::time::Instant::now();
            let rng = RngFactory::new(cfg.seed).derive("fig4", i as u64);
            let (mut topo, _cdn) = generate(&cfg.gen, &rng);
            let origins: Vec<_> = (0..origins_per_instance)
                .map(|k| attach_origin(&mut topo, profile, &rng, (i * 64 + k) as u64))
                .collect();
            let peers = pick_collector_peers(&topo, COLLECTOR_STRIDE);
            let collector = Collector::new(peers, &rng);

            let mut sim = Standalone::new(&topo, timing.clone(), &rng);
            sim.sim_mut().set_record_history(true);
            let t_announce = sim.now();
            for o in &origins {
                sim.announce(*o, prefix, OriginConfig::plain());
            }
            sim.run_to_idle(cfg.max_events);

            let feed = collector.feed(sim.sim().history(), prefix);
            // Propagation measured from the true announcement instant; the
            // burst estimator (which the paper must rely on) is validated
            // separately — for fresh announcements it is accurate, because the
            // first updates cluster tightly.
            let error = estimate_event_time(&feed, false)
                .map(|est| (est.as_nanos() as f64 - t_announce.as_nanos() as f64).abs() / 1e9);
            let samples: Vec<f64> = per_peer_propagation(&feed, t_announce)
                .into_iter()
                .map(|(_, d)| d.as_secs_f64())
                .collect();
            let perf = CellPerf {
                events_processed: sim.events_processed(),
                peak_queue_depth: sim.peak_queue_depth(),
                queue_capacity: sim.queue_capacity(),
                wall_micros: wall_start.elapsed().as_micros() as u64,
            };
            (samples, error, perf)
        })
    });

    let mut samples = Vec::new();
    let mut errors = Vec::new();
    let mut perfs = Vec::with_capacity(instances);
    for (s, e, p) in per_instance {
        samples.extend(s);
        errors.extend(e);
        perfs.push(p);
    }
    (
        StudyOutput {
            population: format!("{profile:?}x{origins_per_instance}"),
            samples,
            estimator_error_secs: errors,
            instances,
        },
        perfs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_measure::Cdf;

    fn quick_cfg() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(5);
        cfg.gen = bobw_topology::GenConfig::tiny();
        cfg
    }

    #[test]
    fn withdrawal_study_produces_samples() {
        let cfg = quick_cfg();
        let (out, _) =
            withdrawal_convergence_instrumented(&cfg, &cfg.timing, OriginProfile::Hypergiant, 2, 1);
        assert!(!out.samples.is_empty());
        assert!(out.samples.iter().all(|s| *s >= 0.0));
        // Samples measured from the true instant are positive and bounded
        // by the convergence window.
        for s in &out.samples {
            assert!(*s <= 1000.0);
        }
    }

    #[test]
    fn propagation_study_is_fast_scale() {
        let cfg = quick_cfg();
        let (out, _) = announcement_propagation_instrumented(
            &cfg,
            &cfg.timing,
            OriginProfile::PeeringTestbed,
            1,
            2,
            1,
        );
        assert!(!out.samples.is_empty());
        let cdf = Cdf::new(out.samples.clone());
        // Propagation is on the seconds scale, far below convergence.
        assert!(cdf.median().unwrap() < 60.0);
    }

    #[test]
    fn withdrawal_slower_than_propagation() {
        // The core Appendix A-vs-B relation, at tiny scale.
        let cfg = quick_cfg();
        let profile = OriginProfile::PeeringTestbed;
        let (wd, _) = withdrawal_convergence_instrumented(&cfg, &cfg.timing, profile, 2, 1);
        let (pr, _) = announcement_propagation_instrumented(&cfg, &cfg.timing, profile, 1, 2, 1);
        let wd_med = Cdf::new(wd.samples).median().unwrap();
        let pr_med = Cdf::new(pr.samples).median().unwrap();
        assert!(
            wd_med > 2.0 * pr_med,
            "withdrawal ({wd_med}s) should converge much slower than announcements \
             propagate ({pr_med}s)"
        );
    }
}
