//! The failover experiment harness (§5.2) — the machinery behind Figures 2
//! and 5.
//!
//! For one ⟨technique, failed site⟩ pair:
//!
//! 1. advertise the technique's before-failure announcements plus the two
//!    measurement prefixes, and run BGP to convergence (the paper waits an
//!    hour; in a discrete-event world, "run to idle");
//! 2. select targets (§5.1) and run the reachability test, keeping the
//!    targets the technique routes to the failed site (its *controllable*
//!    set);
//! 3. fail the site: mark it down on the data plane and withdraw all its
//!    announcements; after the CDN's detection delay, apply the
//!    technique's reactions (reactive-anycast's new announcements);
//! 4. probe every controllable target every ~1.5 s for ~600 s via
//!    Verfploeter-style pings sourced at a surviving site;
//! 5. extract per-target reconnection and failover times.

use bobw_bgp::{BgpEvent, BgpSim, BgpTimingConfig};
use bobw_dataplane::{walk, ForwardEnv, ProbeConfig};
use bobw_dns::{Authoritative, OVERSHOOT_MEDIAN_S, OVERSHOOT_SIGMA};
use bobw_event::rng::lognormal;
use bobw_event::{Engine, Handler, RngFactory, Scheduler, SimDuration, SimTime};
use bobw_net::{NodeId, PathTable};
use bobw_scenario::{FaultOp, Scenario};
use bobw_topology::{generate, CdnDeployment, GenConfig, SiteId, Topology};
use bobw_traffic::{Steering, Surge, TrafficConfig, TrafficSim, TrafficSummary};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::metrics::TargetOutcome;
use crate::plan::AddressPlan;
use crate::probing::{ProbeCounts, ProbePlane};
use crate::targets::select_targets_counted;
use crate::technique::{Action, Technique};

/// Which BGP session model the simulator runs.
///
/// `Abstract` is the legacy adjacency model: sessions are booleans, faults
/// flip them, and no session-management traffic exists. It is the default
/// everywhere and reproduces every checked-in `results/*.json`
/// byte-identically — selecting it draws no extra RNG values and schedules
/// no extra events. `MessageLevel` runs the `bobw-session` subsystem: every
/// adjacency is a pair of RFC 4271 finite-state machines exchanging
/// OPEN/KEEPALIVE/NOTIFICATION messages through the wire codec, link faults
/// become TCP failures discovered by hold timers, and the session-fault
/// scenario actions (`HalfOpen`, `GracefulRestart`, `NotifyReset`,
/// `HijackAnnounce`) gain their full FSM semantics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionModel {
    /// Boolean adjacencies (legacy, byte-identical to pre-session results).
    #[default]
    Abstract,
    /// Per-peer FSMs + wire codec (`bobw-session`).
    MessageLevel,
}

/// Experiment parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    pub gen: GenConfig,
    pub timing: BgpTimingConfig,
    pub probe: ProbeConfig,
    pub plan: AddressPlan,
    /// Target-count cap per site (paper: 50k; scaled to the topology).
    pub targets_per_site: usize,
    /// Site-proximity criterion in milliseconds RTT (paper: 50 ms).
    pub proximity_ms: f64,
    /// Delay between the failure and the CDN's reactive reconfiguration
    /// (outage detection + control-system actuation).
    pub detection_delay: SimDuration,
    /// Number of withdraw/re-announce cycles the site goes through before
    /// the final failure (maintenance churn / partial outages). With
    /// route-flap damping enabled, these pre-failure flaps push the
    /// prefix's penalty toward suppression — the damping ablation's
    /// scenario.
    pub pre_failure_flaps: u32,
    /// The fault script to run, and the only place a failure is
    /// described. `None` runs the paper's baseline — the measured site
    /// withdraws gracefully at t=10 s (after `pre_failure_flaps`
    /// withdraw/re-announce cycles) and the technique reacts
    /// `detection_delay` later — which is exactly
    /// [`Scenario::site_failure`]. Any other scenario injects its scripted
    /// events instead (a silent crash is [`Scenario::crashed`], a botched
    /// reaction a `React` with `skip` or `wrong_prefix`); the measured
    /// site, target selection, and probing protocol stay the same.
    pub scenario: Option<Scenario>,
    /// The demand-driven data plane (site capacity, overload, load-aware
    /// DNS shedding). `None` — the default everywhere — runs the
    /// experiment exactly as before the traffic layer existed: the layer
    /// is strictly observational, so enabling it changes no probe
    /// outcome, but `None` skips even the observation so legacy results
    /// stay byte-identical.
    pub traffic: Option<TrafficConfig>,
    /// Which session model runs (see [`SessionModel`]). `Abstract` — the
    /// default — is byte-identical to the pre-session simulator.
    pub session_model: SessionModel,
    pub seed: u64,
    /// Event budget per engine phase (runaway protection).
    pub max_events: u64,
}

impl ExperimentConfig {
    /// Small topology, shortened probing window — integration tests and
    /// quick benches.
    pub fn quick(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            gen: GenConfig::small(),
            timing: BgpTimingConfig::default(),
            probe: ProbeConfig::quick(),
            plan: AddressPlan::default(),
            targets_per_site: 150,
            proximity_ms: 50.0,
            detection_delay: SimDuration::from_secs(2),
            pre_failure_flaps: 0,
            scenario: None,
            traffic: None,
            session_model: SessionModel::Abstract,
            seed,
            max_events: 50_000_000,
        }
    }

    /// The full reproduction scale.
    pub fn eval(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            gen: GenConfig::eval(),
            timing: BgpTimingConfig::default(),
            probe: ProbeConfig::default(),
            plan: AddressPlan::default(),
            targets_per_site: 400,
            proximity_ms: 50.0,
            detection_delay: SimDuration::from_secs(2),
            pre_failure_flaps: 0,
            scenario: None,
            traffic: None,
            session_model: SessionModel::Abstract,
            seed,
            max_events: 200_000_000,
        }
    }

    /// The fault script a cell runs: `scenario`, or else the built-in
    /// baseline [`Scenario::site_failure`] at this config's detection
    /// delay and pre-failure flaps (which compiles to exactly the schedule
    /// the loop used to hard-code).
    pub fn fault_script(&self) -> Scenario {
        self.scenario.clone().unwrap_or_else(|| {
            Scenario::site_failure(self.detection_delay.as_secs_f64(), self.pre_failure_flaps)
        })
    }

    /// This config running `scenario`, with the catalog's convention that
    /// a `damping-*` scenario studies route-flap damping, which it turns
    /// on.
    pub fn with_scenario(mut self, scenario: Scenario) -> ExperimentConfig {
        if scenario.wants_damping() && self.timing.flap_damping.is_none() {
            self.timing.flap_damping = Some(bobw_bgp::DampingConfig::default());
        }
        self.scenario = Some(scenario);
        self
    }
}

/// A generated topology + CDN deployment shared by all runs of a config
/// (the paper reuses the same PEERING deployment across techniques).
pub struct Testbed {
    pub cfg: ExperimentConfig,
    pub topo: Topology,
    pub cdn: CdnDeployment,
    pub rng: RngFactory,
    /// High-water mark of event-queue depth over every cell run on this
    /// testbed so far; later cells preallocate their queues to this depth.
    /// Purely an allocation hint — results never depend on it (cells on the
    /// same testbed are statistically alike, so one cell's peak is a good
    /// starting capacity for the next).
    queue_hint: AtomicUsize,
    /// Per-session MRAI values and per-node RNG streams, sampled once; each
    /// cell stamps its simulator out of this instead of re-deriving ~two
    /// RNG streams per session (`BgpSim::from_seed` is byte-identical to
    /// `BgpSim::new` over the same factory).
    pub(crate) bgp_seed: bobw_bgp::SimSeed,
}

impl Testbed {
    pub fn new(cfg: ExperimentConfig) -> Testbed {
        let rng = RngFactory::new(cfg.seed);
        let (topo, cdn) = generate(&cfg.gen, &rng);
        let bgp_seed = bobw_bgp::SimSeed::new(&topo, &cfg.timing, &rng);
        Testbed {
            cfg,
            topo,
            cdn,
            rng,
            queue_hint: AtomicUsize::new(0),
            bgp_seed,
        }
    }

    /// Starting capacity for the next cell's event queue (0 until a cell
    /// has completed).
    pub fn queue_capacity_hint(&self) -> usize {
        self.queue_hint.load(Ordering::Relaxed)
    }

    /// Folds a finished cell's [`Engine::peak_pending`] into the hint.
    /// Relaxed atomics: the hint is monotone and approximate by design —
    /// racing cells at worst preallocate a little less.
    ///
    /// [`Engine::peak_pending`]: bobw_event::Engine::peak_pending
    pub(crate) fn note_peak_queue_depth(&self, depth: usize) {
        self.queue_hint.fetch_max(depth, Ordering::Relaxed);
    }

    /// Site id by paper name (`"sea1"`), panicking on typos.
    pub fn site(&self, name: &str) -> SiteId {
        self.cdn
            .by_name(name)
            .unwrap_or_else(|| panic!("unknown site {name}"))
    }
}

/// The result of one ⟨technique, failed site⟩ failover run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailoverResult {
    pub technique: String,
    pub site_name: String,
    pub failed_site: SiteId,
    /// Targets meeting the §5.1 criteria (before the per-site cap).
    pub num_candidates: usize,
    /// Targets probed for control (after the cap).
    pub num_selected: usize,
    /// Targets the technique routed to the site before failure — the set
    /// that is then probed through the failure.
    pub num_controllable: usize,
    /// Per-controllable-target outcomes (same order as `controllable`).
    pub outcomes: Vec<TargetOutcome>,
    pub t_fail: SimTime,
    /// The traffic layer's observation of the run (peak utilization, shed
    /// volume, demand weights). `None` when the experiment ran without
    /// the traffic layer.
    pub traffic: Option<TrafficSummary>,
}

impl FailoverResult {
    /// Fraction of selected targets the technique could steer to the site.
    pub fn control_fraction(&self) -> f64 {
        if self.num_selected == 0 {
            0.0
        } else {
            self.num_controllable as f64 / self.num_selected as f64
        }
    }

    /// Reconnection times in seconds (reconnected targets only).
    pub fn reconnection_secs(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| o.reconnection)
            .map(|d| d.as_secs_f64())
            .collect()
    }

    /// Failover times in seconds (stabilized targets only).
    pub fn failover_secs(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter_map(|o| o.failover)
            .map(|d| d.as_secs_f64())
            .collect()
    }

    /// Fraction of controllable targets that never reconnected.
    pub fn never_reconnected_fraction(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .filter(|o| o.reconnection.is_none())
            .count() as f64
            / self.outcomes.len() as f64
    }
}

/// Composite simulation events: BGP plus the scenario's injected faults
/// and the measurement schedule.
enum SimEvent {
    Bgp(BgpEvent),
    /// One compiled scenario op (withdrawal, crash, link cut, drain, …).
    Fault(FaultOp),
    ProbeRound,
    /// One traffic-layer demand tick (only scheduled when the config
    /// enables the traffic layer).
    TrafficTick,
}

/// DNS de-steering state for drain scenarios (maintenance drains, the
/// unicast DNS failover): the CDN's authoritative resolver plus, per
/// target, the instant it re-resolves (its cached record's expiry, drawn
/// uniformly within the drain TTL, plus a violator's overshoot). Until
/// then the target keeps connecting to the technique's probe address;
/// after, it connects to whatever the authoritative answers.
struct DrainState {
    auth: Authoritative,
    resolve_at: Vec<Option<SimTime>>,
}

struct Run<'a> {
    topo: &'a Topology,
    cdn: &'a CdnDeployment,
    plan: &'a AddressPlan,
    bgp: BgpSim,
    /// The controllable targets, the data-plane down set, and the probing
    /// through the failure (see [`ProbePlane`]).
    probes: ProbePlane,
    reactions: Vec<Action>,
    /// Every phase-1 advertisement; `Announce`/`SiteRestore` ops replay a
    /// node's subset of these.
    initial_actions: Vec<Action>,
    /// Present only when the scenario contains a `Drain` op.
    drain: Option<DrainState>,
    /// Present only when the config enables the traffic layer.
    traffic: Option<TrafficSim>,
    /// The measurement anchor (traffic splits peak utilization around it).
    t_fail: SimTime,
    rng: &'a RngFactory,
    scratch: Vec<(SimDuration, BgpEvent)>,
    /// Fault ops an op application wants scheduled later (staged React
    /// rollouts); drained onto the event queue by the handler.
    pending_faults: Vec<(SimDuration, FaultOp)>,
}

impl Run<'_> {
    fn drain_bgp(&mut self, sched: &mut Scheduler<'_, SimEvent>) {
        for (d, e) in self.scratch.drain(..) {
            sched.after(d, SimEvent::Bgp(e));
        }
    }

    fn withdraw_all(&mut self, now: SimTime, node: NodeId) {
        for prefix in self.bgp.node(node).originated_prefixes() {
            self.bgp.withdraw(now, node, prefix, &mut self.scratch);
        }
    }

    fn replay_initial(&mut self, now: SimTime, node: NodeId) {
        let actions: Vec<Action> = self
            .initial_actions
            .iter()
            .filter(|a| a.node == node)
            .cloned()
            .collect();
        for a in &actions {
            self.bgp
                .announce(now, a.node, a.prefix, a.cfg.clone(), &mut self.scratch);
        }
    }

    /// Tells the drain authoritative and the traffic layer (when present)
    /// that a site's status changed.
    fn mark_site(&mut self, node: NodeId, failed: bool) {
        let Some(site) = self.cdn.site_at(node) else {
            return;
        };
        if let Some(d) = &mut self.drain {
            if failed {
                d.auth.mark_failed(site);
            } else {
                d.auth.mark_recovered(site);
            }
        }
        if let Some(tr) = &mut self.traffic {
            if failed {
                tr.site_down(site);
            } else {
                tr.site_up(site);
            }
        }
    }

    /// Applies one compiled scenario op. BGP fallout lands in `scratch`;
    /// the caller drains it onto the event queue.
    fn apply(&mut self, now: SimTime, op: FaultOp) {
        match op {
            FaultOp::Withdraw { node } => self.withdraw_all(now, node),
            FaultOp::Announce { node } => self.replay_initial(now, node),
            FaultOp::SiteFail { node, graceful } => {
                // The site dies: data plane drops everything arriving there.
                self.probes.mark_down(node);
                if graceful {
                    // Its router withdraws all announcements (§4).
                    self.withdraw_all(now, node);
                } else {
                    // Every link drops with no goodbye; the neighbors'
                    // hold timers do the discovering.
                    let peers: Vec<NodeId> =
                        self.topo.neighbors(node).iter().map(|a| a.peer).collect();
                    self.bgp
                        .fail_node_links(now, node, &peers, &mut self.scratch);
                }
                self.mark_site(node, true);
            }
            FaultOp::SiteRestore { node } => {
                self.probes.mark_up(node);
                let peers: Vec<NodeId> = self.topo.neighbors(node).iter().map(|a| a.peer).collect();
                for peer in peers {
                    self.bgp.restore_link(now, node, peer, &mut self.scratch);
                }
                self.replay_initial(now, node);
                self.mark_site(node, false);
            }
            FaultOp::CutLinks { pairs } => {
                for (a, b) in pairs {
                    self.bgp.fail_link(now, a, b, &mut self.scratch);
                }
            }
            FaultOp::RestoreLinks { pairs } => {
                for (a, b) in pairs {
                    self.bgp.restore_link(now, a, b, &mut self.scratch);
                }
            }
            FaultOp::SessionReset { node, peer } => {
                self.bgp.reset_link(now, node, peer, &mut self.scratch);
            }
            FaultOp::HalfOpen { node, peer } => {
                self.bgp.half_open(now, node, peer, &mut self.scratch);
            }
            FaultOp::GracefulRestart { node, restart } => {
                self.bgp
                    .graceful_restart(now, node, restart, &mut self.scratch);
            }
            FaultOp::NotifyReset { node, peer, code } => {
                self.bgp
                    .notify_reset(now, node, peer, code, &mut self.scratch);
            }
            FaultOp::Hijack { node, victim } => {
                // The hijacker originates the victim's prefixes as its own
                // (a plain origin hijack — same route-level semantics under
                // both session models).
                for prefix in self.bgp.node(victim).originated_prefixes() {
                    self.bgp.announce(
                        now,
                        node,
                        prefix,
                        bobw_bgp::OriginConfig::plain(),
                        &mut self.scratch,
                    );
                }
            }
            FaultOp::Drain {
                node,
                site,
                ttl,
                violators,
            } => {
                // Withdraw the routes, de-steer the clients. Each target's
                // cached record expires at an independent uniform point in
                // the TTL window (the paper's §2 DNS-failover model); a
                // violator keeps using it for a lognormal overshoot past
                // expiry (Allman '20).
                self.withdraw_all(now, node);
                // The traffic controller steers demand off the draining
                // site the same way DNS steers the probed targets.
                if let Some(tr) = &mut self.traffic {
                    tr.site_down(site);
                }
                if let Some(d) = &mut self.drain {
                    d.auth.mark_failed(site);
                    let ttl_s = ttl.as_secs_f64();
                    for i in 0..d.resolve_at.len() {
                        if d.resolve_at[i].is_none() {
                            let mut r = self.rng.stream("scenario-desteer", i as u64);
                            let mut wait = if ttl_s > 0.0 {
                                r.gen_range(0.0..ttl_s)
                            } else {
                                0.0
                            };
                            if violators > 0.0 && r.gen_bool(violators) {
                                wait += lognormal(&mut r, OVERSHOOT_MEDIAN_S, OVERSHOOT_SIGMA);
                            }
                            d.resolve_at[i] = Some(now + SimDuration::from_secs_f64(wait));
                        }
                    }
                }
            }
            FaultOp::SiteDark { node } => {
                // Machines power off at the end of a drain: data plane
                // down, nothing left to withdraw.
                self.probes.mark_down(node);
                self.mark_site(node, true);
            }
            FaultOp::React {
                skip,
                stagger,
                wrong_prefix,
            } => {
                let mut reactions = std::mem::take(&mut self.reactions);
                reactions.drain(..skip.min(reactions.len()));
                if wrong_prefix {
                    // The config typo: every site announces the covering
                    // prefix, which longest-prefix match keeps losing to
                    // the dead specific route until it is withdrawn.
                    for a in &mut reactions {
                        a.prefix = self.plan.covering;
                    }
                }
                match stagger {
                    None => {
                        // Legacy path: the whole reconfiguration lands at
                        // once.
                        for a in &reactions {
                            self.bgp.announce(
                                now,
                                a.node,
                                a.prefix,
                                a.cfg.clone(),
                                &mut self.scratch,
                            );
                        }
                    }
                    Some(stagger) => {
                        // Staged rollout: one site's action fires now, the
                        // rest keep rolling out one per `stagger`.
                        if reactions.is_empty() {
                            return;
                        }
                        let a = reactions.remove(0);
                        self.bgp
                            .announce(now, a.node, a.prefix, a.cfg.clone(), &mut self.scratch);
                        if !reactions.is_empty() {
                            self.reactions = reactions;
                            self.pending_faults.push((
                                stagger,
                                FaultOp::React {
                                    skip: 0,
                                    stagger: Some(stagger),
                                    wrong_prefix: false,
                                },
                            ));
                        }
                    }
                }
            }
            FaultOp::Surge {
                region,
                factor,
                ramp,
                duration,
            } => {
                if let Some(tr) = &mut self.traffic {
                    tr.add_surge(Surge {
                        region,
                        factor,
                        start_s: now.as_secs_f64(),
                        ramp_s: ramp.as_secs_f64(),
                        duration_s: duration.as_secs_f64(),
                    });
                }
            }
            FaultOp::DemandShift { region, factor } => {
                if let Some(tr) = &mut self.traffic {
                    tr.shift_region(region, factor);
                }
            }
            FaultOp::CapacityChange { site, factor } => {
                if let Some(tr) = &mut self.traffic {
                    tr.change_capacity(site, factor);
                }
            }
            FaultOp::Scrub {
                capacity_factor,
                duration,
            } => {
                if let Some(tr) = &mut self.traffic {
                    tr.activate_scrub(capacity_factor, now + duration);
                }
            }
        }
    }
}

impl Handler<SimEvent> for Run<'_> {
    fn handle(&mut self, now: SimTime, event: SimEvent, sched: &mut Scheduler<'_, SimEvent>) {
        match event {
            SimEvent::Bgp(e) => {
                self.bgp.handle(now, e, &mut self.scratch);
                self.drain_bgp(sched);
            }
            SimEvent::Fault(op) => {
                self.apply(now, op);
                self.drain_bgp(sched);
                for (after, op) in self.pending_faults.drain(..) {
                    sched.after(after, SimEvent::Fault(op));
                }
            }
            SimEvent::ProbeRound => {
                let Run {
                    probes,
                    topo,
                    bgp,
                    cdn,
                    plan,
                    drain,
                    ..
                } = self;
                probes.round(topo, bgp, cdn, now, |i, target| match drain {
                    // A de-steered target connects to the address its fresh
                    // DNS answer names (none when every candidate site is
                    // failed); everyone else to the technique's probe
                    // address.
                    Some(d) if d.resolve_at[i].is_some_and(|t| now >= t) => {
                        d.auth.resolve(target, now).map(|answer| answer.addr)
                    }
                    _ => Some(plan.probe_addr()),
                });
            }
            SimEvent::TrafficTick => {
                // Strictly observational: reads the FIBs through the same
                // ForwardEnv the prober uses, mutates only traffic state.
                let Run {
                    traffic,
                    topo,
                    bgp,
                    probes,
                    cdn,
                    plan,
                    rng,
                    t_fail,
                    ..
                } = self;
                if let Some(tr) = traffic {
                    let env = ForwardEnv {
                        topo,
                        bgp,
                        down: probes.down(),
                    };
                    tr.on_tick(now, *t_fail, rng, |client| {
                        walk(&env, client, plan.probe_addr())
                            .delivered_to()
                            .and_then(|n| cdn.site_at(n))
                    });
                }
            }
        }
    }
}

/// Per-cell performance counters captured alongside a failover experiment.
///
/// Kept OUT of [`FailoverResult`] on purpose: wall-clock time is
/// host-dependent, and `results/*.json` must stay byte-identical across
/// `--jobs` settings and machines. Perf data flows to `results/SUMMARY.md`
/// instead.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CellPerf {
    /// Simulator events processed by the cell's engine.
    pub events_processed: u64,
    /// High-water mark of the cell's event queue.
    pub peak_queue_depth: usize,
    /// Final capacity of the queue's hot lane — shows whether the
    /// high-water-mark preallocation actually avoided regrowth (capacity
    /// at or near the hint means no reallocation happened).
    pub queue_capacity: usize,
    /// Host wall-clock time for the whole cell, in microseconds.
    pub wall_micros: u64,
}

impl CellPerf {
    pub const ZERO: CellPerf = CellPerf {
        events_processed: 0,
        peak_queue_depth: 0,
        queue_capacity: 0,
        wall_micros: 0,
    };

    /// Fold another cell's counters into an aggregate: events add up, queue
    /// depth and capacity take the max, wall time adds up (total CPU-side
    /// work).
    pub fn absorb(&mut self, other: &CellPerf) {
        self.events_processed += other.events_processed;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.queue_capacity = self.queue_capacity.max(other.queue_capacity);
        self.wall_micros += other.wall_micros;
    }
}

/// Runs one failover experiment (see the module docs for the protocol) and
/// returns its result with the cell's perf counters (event count, peak
/// queue depth, wall time). A scenario that does not compile against the
/// testbed is an error, not a panic. The cell interns its AS paths in a
/// [`PathTable::scope`] of its own.
pub fn run_failover(
    testbed: &Testbed,
    technique: &Technique,
    failed: SiteId,
) -> Result<(FailoverResult, CellPerf), String> {
    PathTable::scope(|| run_cell(testbed, technique, failed))
        .map(|(result, perf, _)| (result, perf))
}

/// The cell itself, plus the probe plane's work counts (deterministic, but
/// kept off [`CellPerf`] and the wire: tests pin the probe memo with them).
fn run_cell(
    testbed: &Testbed,
    technique: &Technique,
    failed: SiteId,
) -> Result<(FailoverResult, CellPerf, ProbeCounts), String> {
    let wall_start = std::time::Instant::now();
    let cfg = &testbed.cfg;
    cfg.plan
        .validate(testbed.cdn.num_sites())
        .map_err(|e| format!("address plan: {e}"))?;
    let topo = &testbed.topo;
    let cdn = &testbed.cdn;
    let plan = &cfg.plan;
    let failed_node = cdn.node(failed);

    let scenario = cfg.fault_script();
    let compiled = scenario
        .compile(topo, cdn, &testbed.rng, failed)
        .map_err(|e| format!("scenario {:?}: {e}", scenario.name))?;

    let mut engine: Engine<SimEvent> = Engine::with_capacity(testbed.queue_capacity_hint());
    let mut run = Run {
        topo,
        cdn,
        plan,
        bgp: BgpSim::from_seed(topo, cfg.timing.clone(), &testbed.bgp_seed),
        probes: ProbePlane::default(), // targets set after selection
        reactions: technique.after(plan, topo, cdn, failed),
        initial_actions: Vec::new(),
        drain: None,
        traffic: None,
        t_fail: SimTime::ZERO,
        rng: &testbed.rng,
        scratch: Vec::with_capacity(64),
        pending_faults: Vec::new(),
    };

    // --- Phase 1: announce and converge. ---
    // Message-level model: every adjacency handshakes (OPEN/KEEPALIVE
    // through the wire codec) before — and interleaved with, FIFO ties —
    // the initial announcements, exactly like routers booting up.
    if matches!(cfg.session_model, SessionModel::MessageLevel) {
        run.bgp.enable_message_level(engine.now(), &mut run.scratch);
    }
    let mut initial: Vec<Action> = technique.before(plan, topo, cdn, failed);
    // Measurement prefixes: RTT probe unicast from the site under test,
    // anycast probe from every site.
    initial.push(Action {
        node: failed_node,
        prefix: plan.rtt_probe,
        cfg: bobw_bgp::OriginConfig::plain(),
    });
    for site in cdn.sites() {
        initial.push(Action {
            node: cdn.node(site),
            prefix: plan.anycast_probe,
            cfg: bobw_bgp::OriginConfig::plain(),
        });
    }
    // Drain scenarios steer clients onto per-site unicast service
    // prefixes; those must be routable before the drain begins.
    if compiled.has_drain() {
        for (i, site) in cdn.sites().enumerate() {
            initial.push(Action {
                node: cdn.node(site),
                prefix: plan.site_prefix(i),
                cfg: bobw_bgp::OriginConfig::plain(),
            });
        }
    }
    for a in &initial {
        run.bgp.announce(
            engine.now(),
            a.node,
            a.prefix,
            a.cfg.clone(),
            &mut run.scratch,
        );
    }
    let pending: Vec<(SimDuration, BgpEvent)> = run.scratch.drain(..).collect();
    for (d, e) in pending {
        engine.schedule_after(d, SimEvent::Bgp(e));
    }
    engine.run_to_idle(&mut run, cfg.max_events);

    // --- Phase 2: target selection + reachability (control) test. ---
    let require_not_anycast = !matches!(technique, Technique::Anycast);
    let (selected, num_candidates) = select_targets_counted(
        topo,
        cdn,
        &run.bgp,
        plan,
        failed,
        cfg.proximity_ms,
        require_not_anycast,
        cfg.targets_per_site,
        &testbed.rng,
    );
    let num_selected = selected.len();
    let controllable: Vec<NodeId> = {
        let env = ForwardEnv {
            topo,
            bgp: &run.bgp,
            down: run.probes.down(),
        };
        selected
            .into_iter()
            .filter(|t| {
                walk(&env, *t, plan.probe_addr())
                    .delivered_to()
                    .and_then(|n| cdn.site_at(n))
                    == Some(failed)
            })
            .collect()
    };
    // Probe from the first surviving site (the paper probes "from a
    // Peering site other than the failed one").
    let prober = cdn
        .other_sites(failed)
        .map(|s| cdn.node(s))
        .next()
        .expect("at least two sites");
    run.probes = ProbePlane::pings(topo, prober, controllable);

    // The original advertisements (replayed by Announce/SiteRestore ops).
    run.initial_actions = initial;

    // DNS de-steering state, only when the scenario drains a site.
    run.drain = if compiled.has_drain() {
        let ttl = compiled
            .events
            .iter()
            .find_map(|e| match &e.op {
                FaultOp::Drain { ttl, .. } => Some(*ttl),
                _ => None,
            })
            .expect("has_drain");
        let mut auth = Authoritative::new(
            (0..cdn.num_sites()).map(|i| plan.site_prefix(i)).collect(),
            ttl,
        );
        // Every target is mapped to the measured site; on failure the
        // authoritative walks the remaining sites in deployment order.
        let ranking: Vec<SiteId> = cdn.sites().collect();
        for &t in run.probes.targets() {
            auth.assign(t, failed);
            auth.set_fallback(t, ranking.clone());
        }
        Some(DrainState {
            auth,
            resolve_at: vec![None; run.probes.targets().len()],
        })
    } else {
        None
    };

    // --- Phase 3: run the fault script, probing through it. ---
    // Ops are scheduled in compiled order; the engine breaks timestamp
    // ties FIFO, so the script author controls same-instant ordering.
    let t0 = engine.now();
    let t_fail = t0 + compiled.t_fail_offset;
    run.t_fail = t_fail;
    // The traffic layer (when enabled): pure anycast follows the
    // catchment — nothing can shed its load — while every DNS-controlled
    // technique gets the load-aware controller.
    run.traffic = cfg.traffic.as_ref().map(|tc| {
        let steering = if matches!(technique, Technique::Anycast) {
            Steering::Catchment
        } else {
            Steering::Dns
        };
        TrafficSim::new(tc, topo, cdn, &testbed.rng, steering)
    });
    for ev in &compiled.events {
        // A technique with no reaction has nothing for React to fire.
        if matches!(ev.op, FaultOp::React { .. }) && run.reactions.is_empty() {
            continue;
        }
        engine.schedule_at(t0 + ev.at, SimEvent::Fault(ev.op.clone()));
    }
    let rounds = cfg.probe.probes_per_target();
    for k in 0..rounds {
        engine.schedule_at(
            t_fail + cfg.probe.interval.saturating_mul(k as u64),
            SimEvent::ProbeRound,
        );
    }
    // Demand ticks span the whole run — pre-failure baseline included —
    // and are scheduled after the fault ops so same-instant faults apply
    // first (FIFO ties): a tick always observes the post-fault world.
    if let Some(tr) = &run.traffic {
        let interval = tr.tick_interval();
        let end = t_fail + cfg.probe.duration;
        let mut k = 0u32;
        loop {
            let at = t0 + interval.saturating_mul(k as u64);
            if at > end {
                break;
            }
            engine.schedule_at(at, SimEvent::TrafficTick);
            k += 1;
        }
    }
    engine.run_until(&mut run, t_fail + cfg.probe.duration, cfg.max_events);

    // --- Phase 4: metrics. ---
    let outcomes: Vec<TargetOutcome> = run.probes.outcomes(t_fail);

    let result = FailoverResult {
        technique: technique.name(),
        site_name: cdn.name(failed).to_string(),
        failed_site: failed,
        num_candidates,
        num_selected,
        num_controllable: run.probes.targets().len(),
        outcomes,
        t_fail,
        traffic: run
            .traffic
            .as_ref()
            .map(|t| t.summary(run.probes.targets())),
    };
    testbed.note_peak_queue_depth(engine.peak_pending());
    let perf = CellPerf {
        events_processed: engine.processed(),
        peak_queue_depth: engine.peak_pending(),
        queue_capacity: engine.queue_capacity(),
        wall_micros: wall_start.elapsed().as_micros() as u64,
    };
    Ok((result, perf, run.probes.counts()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_testbed() -> Testbed {
        let mut cfg = ExperimentConfig::quick(7);
        cfg.targets_per_site = 40;
        Testbed::new(cfg)
    }

    #[test]
    fn reactive_anycast_full_control_and_recovery() {
        let tb = quick_testbed();
        let site = tb.site("bos");
        let (r, _) = run_failover(&tb, &Technique::ReactiveAnycast, site).expect("cell runs");
        assert!(r.num_selected > 0, "no targets selected");
        // Unicast-prefix techniques control every target.
        assert!(
            r.control_fraction() > 0.99,
            "reactive-anycast should control all targets: {}",
            r.control_fraction()
        );
        // The vast majority of targets reconnect within the window.
        assert!(
            r.never_reconnected_fraction() < 0.1,
            "too many targets never reconnected: {}",
            r.never_reconnected_fraction()
        );
        // Reconnection times are positive and bounded by the window.
        for s in r.reconnection_secs() {
            assert!((0.0..=130.0).contains(&s), "{s}");
        }
        // Final sites are never the failed one.
        for o in &r.outcomes {
            assert_ne!(o.final_site, Some(site));
        }
    }

    #[test]
    fn anycast_controllable_set_is_its_catchment() {
        let tb = quick_testbed();
        let site = tb.site("ams");
        let (r, _) = run_failover(&tb, &Technique::Anycast, site).expect("cell runs");
        // ams is well connected: its anycast catchment includes nearby
        // clients, so some targets must be controllable...
        assert!(r.num_controllable > 0);
        // ...but anycast cannot steer everyone (that is the whole point).
        assert!(
            r.control_fraction() < 1.0,
            "anycast controlling everything is wrong: {}",
            r.control_fraction()
        );
    }

    #[test]
    fn prepending_loses_some_control() {
        let tb = quick_testbed();
        let site = tb.site("sea1");
        let t = Technique::ProactivePrepending {
            prepends: 3,
            selective: false,
        };
        let (r, _) = run_failover(&tb, &t, site).expect("cell runs");
        assert!(r.num_selected > 0);
        // sea1's profile (mostly peers at a commercial IX, with R&E-backed
        // sea2 nearby) must lose a meaningful share of targets.
        assert!(
            r.control_fraction() < 0.9,
            "sea1 prepending control suspiciously high: {}",
            r.control_fraction()
        );
    }

    #[test]
    fn probe_rounds_walk_only_what_changed() {
        // Quick scale as the benches run it. Superprefix failover is the
        // slowest to converge, so it is the cell with the most route churn
        // during probing — and still most probes find every node on their
        // path untouched since the previous round.
        let tb = Testbed::new(ExperimentConfig::quick(42));
        let site = tb.site("bos");
        let t = Technique::ProactiveSuperprefix;
        let (r, _, counts) = run_cell(&tb, &t, site).unwrap();
        assert!(r.num_controllable > 0);
        let rounds = u64::from(tb.cfg.probe.probes_per_target());
        assert_eq!(counts.probes, r.num_controllable as u64 * rounds);
        // At least one walk per target, far fewer than one per probe.
        assert!(counts.walks >= r.num_controllable as u64, "{counts:?}");
        assert!(counts.walks * 4 < counts.probes, "{counts:?}");
        // The count is a property of the cell, not of the host or the run.
        let (_, _, again) = run_cell(&tb, &t, site).unwrap();
        assert_eq!(counts, again);
    }

    #[test]
    fn bad_address_plan_is_an_error_not_a_panic() {
        let mut cfg = ExperimentConfig::quick(7);
        cfg.plan.covering = "10.0.0.0/23".parse().unwrap();
        let tb = Testbed::new(cfg);
        let err = run_failover(&tb, &Technique::Anycast, tb.site("bos")).unwrap_err();
        assert!(err.contains("covering prefix must cover"), "{err}");

        // A site block without one /24 per site: a /22 holds four of the
        // eight, a /25 none. The drain cell carves per-site prefixes from
        // it and used to panic ("does not fit", a shift underflow).
        for block in ["184.164.232.0/22", "184.164.232.0/25"] {
            let mut cfg = ExperimentConfig::quick(7);
            cfg.plan.site_block = block.parse().unwrap();
            cfg.scenario = Some(Scenario::dns_failover(2.0));
            let tb = Testbed::new(cfg);
            let err = run_failover(&tb, &Technique::Unicast, tb.site("bos")).unwrap_err();
            assert!(
                err.contains("one /24 for each of the 8 sites"),
                "{block}: {err}"
            );
        }
    }

    #[test]
    fn results_are_deterministic() {
        let tb = quick_testbed();
        let site = tb.site("bos");
        let (a, _) = run_failover(&tb, &Technique::Anycast, site).expect("cell runs");
        let (b, _) = run_failover(&tb, &Technique::Anycast, site).expect("cell runs");
        assert_eq!(a.num_controllable, b.num_controllable);
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn explicit_baseline_scenario_reproduces_the_legacy_default() {
        // `scenario: None` and an explicit `Scenario::site_failure` must be
        // the same experiment down to the event count — the scenario path
        // IS the legacy path, not an approximation of it.
        let legacy = quick_testbed();
        let mut cfg = ExperimentConfig::quick(7);
        cfg.targets_per_site = 40;
        cfg.pre_failure_flaps = 1;
        cfg.scenario = None;
        let mut scripted_cfg = cfg.clone();
        scripted_cfg.scenario = Some(Scenario::site_failure(
            cfg.detection_delay.as_secs_f64(),
            cfg.pre_failure_flaps,
        ));
        let mut legacy_cfg = legacy.cfg.clone();
        legacy_cfg.pre_failure_flaps = 1;
        let legacy = Testbed::new(legacy_cfg);
        let scripted = Testbed::new(scripted_cfg);
        let site = legacy.site("bos");
        for t in [&Technique::ReactiveAnycast, &Technique::Anycast] {
            let (a, pa) = run_failover(&legacy, t, site).expect("cell runs");
            let (b, pb) = run_failover(&scripted, t, site).expect("cell runs");
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(pa.events_processed, pb.events_processed);
        }
    }

    /// Eval-scale variant of the parity check above, driven by the actual
    /// checked-in catalog file: `scenarios/site-failure.json` must
    /// reproduce the hard-coded failure path byte-for-byte (it is the
    /// acceptance gate for replacing the hard-coded failure with the
    /// scenario engine). Several minutes; run explicitly:
    /// `cargo test --release -p bobw-core -- --ignored eval_scale`.
    #[test]
    #[ignore = "eval scale; run explicitly with -- --ignored"]
    fn eval_scale_catalog_baseline_matches_legacy() {
        let file = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../scenarios/site-failure.json");
        let scenario = bobw_scenario::load_file(&file).expect("catalog file loads");
        let cfg = ExperimentConfig::eval(42);
        let mut scripted_cfg = cfg.clone();
        scripted_cfg.scenario = Some(scenario);
        let legacy = Testbed::new(cfg);
        let scripted = Testbed::new(scripted_cfg);
        let site = legacy.site("bos");
        let t = Technique::ReactiveAnycast;
        let (a, pa) = run_failover(&legacy, &t, site).expect("cell runs");
        let (b, pb) = run_failover(&scripted, &t, site).expect("cell runs");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "results/*.json rendering differs between catalog file and legacy path"
        );
        assert_eq!(pa.events_processed, pb.events_processed);
    }

    #[test]
    fn maintenance_drain_resteers_clients_via_dns() {
        use bobw_scenario::{ScenarioAction, ScenarioEvent};
        let mut cfg = ExperimentConfig::quick(7);
        cfg.targets_per_site = 40;
        cfg.scenario = Some(Scenario {
            name: "drain".into(),
            description: String::new(),
            site: "$site".into(),
            measure_from_s: None,
            events: vec![ScenarioEvent {
                at_s: 10.0,
                action: ScenarioAction::Drain {
                    site: "$site".into(),
                    ttl_s: 30.0,
                    shutdown_after_s: 60.0,
                    violators: None,
                },
            }],
        });
        let tb = Testbed::new(cfg);
        let site = tb.site("bos");
        // ReactiveAnycast with no React event: after the drain withdraws
        // the site's unicast prefix, DNS re-resolution is the only way
        // back — every reconnection observed is the drain machinery.
        let (r, _) = run_failover(&tb, &Technique::ReactiveAnycast, site).expect("cell runs");
        assert!(r.num_controllable > 0);
        assert_eq!(
            r.never_reconnected_fraction(),
            0.0,
            "drained clients must all re-steer within the TTL"
        );
        for s in r.reconnection_secs() {
            // TTL 30 s plus probe quantization and path RTT.
            assert!((0.0..=35.0).contains(&s), "reconnection took {s}s");
        }
        for o in &r.outcomes {
            assert_ne!(o.final_site, Some(site), "still on the drained site");
        }
    }

    #[test]
    fn traffic_layer_is_strictly_observational() {
        // Enabling traffic must change NOTHING the probing experiment
        // measures: same outcomes, same t_fail, same control counts. The
        // only difference is the attached summary.
        let mut with_cfg = ExperimentConfig::quick(7);
        with_cfg.targets_per_site = 40;
        with_cfg.traffic = Some(TrafficConfig::default());
        let without = quick_testbed();
        let with = Testbed::new(with_cfg);
        let site = without.site("bos");
        for t in [&Technique::Anycast, &Technique::ReactiveAnycast] {
            let (a, _) = run_failover(&without, t, site).expect("cell runs");
            let (b, _) = run_failover(&with, t, site).expect("cell runs");
            assert!(a.traffic.is_none());
            let summary = b.traffic.as_ref().expect("traffic enabled");
            assert!(summary.ticks > 0);
            assert_eq!(summary.target_weights.len(), b.outcomes.len());
            assert_eq!(a.outcomes, b.outcomes);
            assert_eq!(a.t_fail, b.t_fail);
            assert_eq!(a.num_candidates, b.num_candidates);
            assert_eq!(a.num_selected, b.num_selected);
            assert_eq!(a.num_controllable, b.num_controllable);
        }
    }

    #[test]
    fn overload_cascade_anycast_overloads_weighted_dns_stabilizes() {
        // The Sinha et al. qualitative result. Calibration pass: measure
        // the pre-failure anycast catchment's peak load (as a multiple of
        // the fair share) with absurd headroom, so `peak × headroom` gives
        // the raw load ratio.
        let calibration_headroom = 1000.0;
        let mut cfg = ExperimentConfig::quick(7);
        cfg.targets_per_site = 40;
        let mut tc = TrafficConfig {
            diurnal_amplitude: 0.0,
            capacity_headroom: calibration_headroom,
            ..Default::default()
        };
        cfg.traffic = Some(tc.clone());
        // atl's catchment lands almost wholly on ams when it dies, and ams
        // already carries the second-heaviest catchment — the absorber.
        let site = Testbed::new(cfg.clone()).site("atl");
        let calib = run_failover(&Testbed::new(cfg.clone()), &Technique::Anycast, site)
            .expect("cell runs")
            .0
            .traffic
            .unwrap();
        let ratio_before = calib.peak_before() * calibration_headroom;
        let ratio_after = calib.peak_after() * calibration_headroom;
        assert!(
            ratio_after > ratio_before,
            "failing atl must push the absorber past the old peak: {ratio_before} -> {ratio_after}"
        );

        // Provision every site just above the pre-failure anycast peak
        // (utilization ≈ 0.95 at the hottest site) — Sinha's setting.
        tc.capacity_headroom = ratio_before * 1.05;
        cfg.traffic = Some(tc.clone());

        // Pure anycast: BGP dumps the dead site's catchment onto
        // neighbors and nothing can shed it — somewhere goes over 1.0.
        let anycast = run_failover(&Testbed::new(cfg.clone()), &Technique::Anycast, site)
            .expect("cell runs")
            .0
            .traffic
            .unwrap();
        assert!(
            anycast.peak_before() < 1.0,
            "mis-calibrated: overloaded before the failure ({})",
            anycast.peak_before()
        );
        assert!(
            anycast.peak_after() > 1.0,
            "anycast failover must overload a surviving site, peak {}",
            anycast.peak_after()
        );
        assert!(anycast.shed > 0.0, "overload must shed demand");

        // The DNS-weight controller re-packs the displaced demand within
        // every site's ceiling instead.
        let dns = run_failover(&Testbed::new(cfg), &Technique::ReactiveAnycast, site)
            .expect("cell runs")
            .0
            .traffic
            .unwrap();
        assert!(
            dns.peak_after() <= tc.utilization_ceiling + 1e-9,
            "weighted DNS must keep every site under its ceiling, peak {}",
            dns.peak_after()
        );
        assert_eq!(dns.shed, 0.0, "nothing sheds under the ceiling");
        assert!(dns.resteers > 0, "the controller must have re-steered");
    }

    #[test]
    fn scrub_mitigation_diverts_surge_overload_from_shedding() {
        use bobw_scenario::{ScenarioAction, ScenarioEvent};
        // A global 6× surge against default 1.6× headroom overloads every
        // anycast catchment. Running the same attack with and without
        // scrubbing online: the scrubbers turn shed demand into scrubbed
        // demand, and the traffic ledger stays conserved.
        let attack = |scrub: bool| {
            let mut events = vec![ScenarioEvent {
                at_s: 10.0,
                action: ScenarioAction::Surge {
                    region: None,
                    factor: 6.0,
                    ramp_s: 5.0,
                    duration_s: 400.0,
                },
            }];
            if scrub {
                events.push(ScenarioEvent {
                    at_s: 20.0,
                    action: ScenarioAction::Scrub {
                        capacity_factor: 100.0,
                        duration_s: 400.0,
                    },
                });
            }
            let mut cfg = ExperimentConfig::quick(7);
            cfg.targets_per_site = 40;
            cfg.traffic = Some(TrafficConfig {
                diurnal_amplitude: 0.0,
                ..Default::default()
            });
            cfg.scenario = Some(Scenario {
                name: "ddos".into(),
                description: String::new(),
                site: "$site".into(),
                measure_from_s: Some(10.0),
                events,
            });
            let tb = Testbed::new(cfg);
            let site = tb.site("bos");
            run_failover(&tb, &Technique::Anycast, site)
                .expect("cell runs")
                .0
                .traffic
                .unwrap()
        };
        let raw = attack(false);
        assert!(raw.shed > 0.0, "6x surge must overload and shed");
        assert_eq!(raw.scrubbed, 0.0, "no scrubbers online");
        let mitigated = attack(true);
        assert!(mitigated.scrubbed > 0.0, "scrubbers must divert overload");
        assert!(
            mitigated.shed < raw.shed,
            "scrubbing must reduce shedding: {} !< {}",
            mitigated.shed,
            raw.shed
        );
        assert!(mitigated.scrubbed_fraction() > 0.0);
        for s in [&raw, &mitigated] {
            let total = s.served + s.shed + s.scrubbed + s.unserved;
            assert!(
                (s.offered - total).abs() < 1e-6 * s.offered.max(1.0),
                "ledger must conserve: offered {} vs accounted {total}",
                s.offered
            );
        }
        // The mitigation is observational: probe outcomes are untouched.
        // (Covered structurally — scrub only touches the traffic sim.)
    }

    #[test]
    fn staged_react_rolls_out_and_still_recovers() {
        use bobw_scenario::{ScenarioAction, ScenarioEvent};
        let scripted = |stagger_s: Option<f64>| {
            let mut cfg = ExperimentConfig::quick(7);
            cfg.targets_per_site = 40;
            cfg.scenario = Some(Scenario {
                name: "staged".into(),
                description: String::new(),
                site: "$site".into(),
                measure_from_s: Some(10.0),
                events: vec![
                    ScenarioEvent {
                        at_s: 10.0,
                        action: ScenarioAction::SiteFail {
                            site: "$site".into(),
                            graceful: None,
                        },
                    },
                    ScenarioEvent {
                        at_s: 12.0,
                        action: ScenarioAction::React {
                            skip: 0,
                            stagger_s,
                            wrong_prefix: None,
                        },
                    },
                ],
            });
            let tb = Testbed::new(cfg);
            let site = tb.site("bos");
            run_failover(&tb, &Technique::ReactiveAnycast, site).expect("cell runs")
        };
        let (all_at_once, pa) = scripted(None);
        let (staged, pb) = scripted(Some(5.0));
        // The staged rollout schedules one React event per remaining
        // site, so it strictly processes more events...
        assert!(pb.events_processed > pa.events_processed);
        // ...recovery still completes within the window...
        assert!(
            staged.never_reconnected_fraction() < 0.1,
            "staged rollout must still recover: {}",
            staged.never_reconnected_fraction()
        );
        // ...but no faster than the instantaneous reconfiguration.
        let max_rec = |r: &FailoverResult| {
            r.reconnection_secs()
                .into_iter()
                .fold(0.0f64, |a, b| a.max(b))
        };
        assert!(max_rec(&staged) >= max_rec(&all_at_once));
    }

    #[test]
    fn queue_preallocation_hint_does_not_change_results() {
        // A cold testbed (hint 0) and a warm one (hint fed by a previous
        // cell) must produce byte-identical results — the hint is a pure
        // allocation optimization.
        let cold = quick_testbed();
        let warm = quick_testbed();
        let site = warm.site("bos");
        assert_eq!(warm.queue_capacity_hint(), 0);
        let (first, perf) = run_failover(&warm, &Technique::Anycast, site).expect("cell runs");
        assert_eq!(
            warm.queue_capacity_hint(),
            perf.peak_queue_depth,
            "the finished cell's peak must become the hint"
        );
        // Second run on the warm testbed starts with a preallocated queue.
        let (second, _) = run_failover(&warm, &Technique::Anycast, site).expect("cell runs");
        let (reference, _) = run_failover(&cold, &Technique::Anycast, site).expect("cell runs");
        let dump = |r: &FailoverResult| format!("{r:?}");
        assert_eq!(dump(&second), dump(&first));
        assert_eq!(dump(&second), dump(&reference));
    }

    #[test]
    fn abstract_session_model_is_byte_identical_to_legacy() {
        // `session_model: Abstract` IS the legacy simulator — selecting it
        // explicitly must change nothing, down to the engine event count
        // (the session layer stays `None`, so no extra events, no extra
        // RNG draws, no code-path divergence).
        let legacy = quick_testbed();
        let mut cfg = ExperimentConfig::quick(7);
        cfg.targets_per_site = 40;
        cfg.session_model = SessionModel::Abstract;
        let explicit = Testbed::new(cfg);
        let site = legacy.site("bos");
        for technique in [Technique::Anycast, Technique::ReactiveAnycast] {
            let (a, pa) = run_failover(&legacy, &technique, site).expect("cell runs");
            let (b, pb) = run_failover(&explicit, &technique, site).expect("cell runs");
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert_eq!(pa.events_processed, pb.events_processed);
        }
    }

    #[test]
    fn message_level_baseline_runs_all_techniques() {
        // The paper baseline completes under the message-level session
        // model for every figure-2 technique: phase 1 handshakes every
        // adjacency through the wire codec and still converges, the site
        // failure and reaction play out through the FSMs, and the headline
        // result survives — reactive-anycast keeps full control and
        // recovers nearly everyone.
        let mut cfg = ExperimentConfig::quick(7);
        cfg.targets_per_site = 40;
        cfg.session_model = SessionModel::MessageLevel;
        let tb = Testbed::new(cfg);
        let site = tb.site("bos");
        let mut techniques = Technique::figure2_set();
        techniques.push(Technique::Combined);
        for technique in &techniques {
            let (r, _) = run_failover(&tb, technique, site).expect("cell runs");
            assert!(
                r.num_selected > 0,
                "{}: no targets selected under message-level",
                r.technique
            );
        }
        let (r, _) = run_failover(&tb, &Technique::ReactiveAnycast, site).expect("cell runs");
        assert!(
            r.control_fraction() > 0.99,
            "reactive-anycast control under message-level: {}",
            r.control_fraction()
        );
        assert!(
            r.never_reconnected_fraction() < 0.1,
            "message-level reconnection regressed: {}",
            r.never_reconnected_fraction()
        );
    }

    #[test]
    fn message_level_results_are_deterministic() {
        let mk = || {
            let mut cfg = ExperimentConfig::quick(11);
            cfg.targets_per_site = 40;
            cfg.session_model = SessionModel::MessageLevel;
            Testbed::new(cfg)
        };
        let (ta, tb) = (mk(), mk());
        let site = ta.site("ams");
        let (a, pa) = run_failover(&ta, &Technique::ReactiveAnycast, site).expect("cell runs");
        let (b, pb) = run_failover(&tb, &Technique::ReactiveAnycast, site).expect("cell runs");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(pa.events_processed, pb.events_processed);
    }

    #[test]
    fn session_fault_scenario_differs_between_models() {
        // The graceful-restart scenario is where the models genuinely
        // diverge: message-level retains the restarting site's routes as
        // stale (clients never see a withdrawal), while the abstract
        // approximation bounces every session. Both must complete; the
        // message-level run must lose no more targets than the abstract.
        let scenario = Scenario {
            name: "gr".into(),
            description: String::new(),
            site: "$site".into(),
            measure_from_s: Some(10.0),
            events: vec![bobw_scenario::ScenarioEvent {
                at_s: 10.0,
                action: bobw_scenario::ScenarioAction::GracefulRestart {
                    site: "$site".into(),
                    restart_s: 120.0,
                },
            }],
        };
        assert!(scenario.uses_session_actions());
        let run_with = |model: SessionModel| {
            let mut cfg = ExperimentConfig::quick(7);
            cfg.targets_per_site = 40;
            cfg.scenario = Some(scenario.clone());
            cfg.session_model = model;
            let tb = Testbed::new(cfg);
            let site = tb.site("bos");
            run_failover(&tb, &Technique::Unicast, site)
                .expect("cell runs")
                .0
        };
        let ml = run_with(SessionModel::MessageLevel);
        let ab = run_with(SessionModel::Abstract);
        assert!(ml.num_controllable > 0 && ab.num_controllable > 0);
        assert!(
            ml.never_reconnected_fraction() <= ab.never_reconnected_fraction(),
            "graceful-restart retention must not lose more targets than the bounce \
             approximation: ml {} vs abstract {}",
            ml.never_reconnected_fraction(),
            ab.never_reconnected_fraction()
        );
    }

    #[test]
    fn half_open_and_hijack_scenarios_complete_under_both_models() {
        let mk_scenario = |action: bobw_scenario::ScenarioAction| Scenario {
            name: "s".into(),
            description: String::new(),
            site: "$site".into(),
            measure_from_s: Some(10.0),
            events: vec![bobw_scenario::ScenarioEvent { at_s: 10.0, action }],
        };
        let actions = [
            bobw_scenario::ScenarioAction::HalfOpen {
                site: "$site".into(),
                link: 0,
            },
            bobw_scenario::ScenarioAction::NotifyReset {
                site: "$site".into(),
                link: 0,
                code: 6,
            },
            bobw_scenario::ScenarioAction::HijackAnnounce {
                site: "$site".into(),
                link: 0,
            },
        ];
        for action in actions {
            let scenario = mk_scenario(action.clone());
            for model in [SessionModel::Abstract, SessionModel::MessageLevel] {
                let mut cfg = ExperimentConfig::quick(7);
                cfg.targets_per_site = 40;
                cfg.scenario = Some(scenario.clone());
                cfg.session_model = model;
                let tb = Testbed::new(cfg);
                let site = tb.site("bos");
                let (r, _) = run_failover(&tb, &Technique::Unicast, site).expect("cell runs");
                assert!(
                    r.num_selected > 0,
                    "{action:?} under {model:?}: no targets selected"
                );
            }
        }
    }
}
