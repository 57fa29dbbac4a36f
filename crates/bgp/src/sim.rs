//! The network-wide BGP simulation: all nodes, message dispatch, the
//! route-change history (collector feed), and a standalone driver for
//! pure-control-plane experiments.

use bobw_event::{Engine, Handler, RngFactory, Scheduler, SimDuration, SimTime, StepOutcome};
use bobw_net::{NodeId, Prefix};
use bobw_session::CEASE;
use bobw_topology::Topology;
use rand::rngs::SmallRng;

use crate::node::BgpNode;
use crate::policy::OriginConfig;
use crate::route::{BgpEvent, Emitted, NextHop, RouteChange, Selected};
use crate::sessions::FsmSessions;
use crate::timing::BgpTimingConfig;

/// Aggregate counters, exposed for the engine benchmarks and for sanity
/// checks in experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// BGP messages delivered to nodes.
    pub messages: u64,
    /// Best-route changes across all nodes.
    pub best_changes: u64,
    /// Session-management messages (OPEN/KEEPALIVE/NOTIFICATION) delivered;
    /// always zero in the abstract session model.
    pub session_msgs: u64,
}

/// The whole-network BGP state: one [`BgpNode`] per topology node.
///
/// `BgpSim` is deliberately engine-agnostic: [`BgpSim::handle`] consumes an
/// event and pushes follow-ups (as `(delay, event)` pairs) into a caller
/// buffer. `bobw-core` embeds it in a composite simulation next to the data
/// plane and DNS; [`Standalone`] wraps it for control-plane-only runs.
pub struct BgpSim {
    net: Routing,
    /// Message-level session layer (per-peer FSMs + wire codec on every
    /// message). `None` = the abstract model: adjacencies are booleans and
    /// session management is implicit. Strictly opt-in via
    /// [`BgpSim::enable_message_level`]; when `None`, no code path below
    /// touches it, keeping abstract runs byte-identical to before.
    fsm: Option<FsmSessions>,
}

/// The routing half of [`BgpSim`]: per-node BGP state plus the bookkeeping
/// both session models share. [`FsmSessions`] borrows it by `&mut` beside
/// itself, so neither half moves out of the simulator to call the other.
pub(crate) struct Routing {
    pub(crate) timing: BgpTimingConfig,
    pub(crate) nodes: Vec<BgpNode>,
    pub(crate) proc_rngs: Vec<SmallRng>,
    history: Vec<RouteChange>,
    record_history: bool,
    pub(crate) stats: SimStats,
}

impl Routing {
    /// `node`'s state, the timing config and `node`'s processing-delay RNG:
    /// the triple every node operation takes, borrowed together.
    pub(crate) fn node_mut(
        &mut self,
        node: NodeId,
    ) -> (&mut BgpNode, &BgpTimingConfig, &mut SmallRng) {
        let idx = node.index();
        (&mut self.nodes[idx], &self.timing, &mut self.proc_rngs[idx])
    }

    /// Counts and records best-route changes at `node`.
    pub(crate) fn best_changed(
        &mut self,
        now: SimTime,
        node: NodeId,
        prefixes: impl IntoIterator<Item = Prefix>,
    ) {
        for prefix in prefixes {
            self.stats.best_changes += 1;
            self.record_change(now, node, prefix);
        }
    }

    fn record_change(&mut self, now: SimTime, node: NodeId, prefix: Prefix) {
        if !self.record_history {
            return;
        }
        self.history.push(RouteChange {
            time: now,
            node,
            prefix,
            new: self.nodes[node.index()].best(&prefix).cloned(),
        });
    }

    /// Purge everything learned from `neighbor` at `node` right now (the
    /// session must already be marked down), with stats/history
    /// bookkeeping.
    fn expire_now(&mut self, now: SimTime, node: NodeId, neighbor: NodeId, out: &mut Emitted) {
        let (n, timing, rng) = self.node_mut(node);
        let changed = n.expire_session(now, neighbor, timing, rng, out);
        self.best_changed(now, node, changed);
    }

    /// Control-plane teardown with purge: the session drops (forwarding
    /// preserved — physical cuts go through `fail_session` separately) and
    /// every route learned from the peer is removed.
    pub(crate) fn teardown_purge(
        &mut self,
        now: SimTime,
        node: NodeId,
        peer: NodeId,
        out: &mut Emitted,
    ) {
        self.nodes[node.index()].fail_session_control(peer);
        self.expire_now(now, node, peer, out);
    }

    /// Abstract hold timer: `node` purges `neighbor`'s routes one hold time
    /// from now, unless the session is back up by then or went down again
    /// (a later outage bumps the generation and arms its own timer).
    fn arm_hold(&self, node: NodeId, neighbor: NodeId, out: &mut Emitted) {
        let gen = self.nodes[node.index()].hold_gen(neighbor);
        let ev = BgpEvent::HoldExpire {
            node,
            neighbor,
            gen,
        };
        out.push((self.timing.hold_time(), ev));
    }

    /// Brings `node`'s session to `peer` up and re-exports its full table.
    pub(crate) fn restore(&mut self, now: SimTime, node: NodeId, peer: NodeId, out: &mut Emitted) {
        let (n, timing, rng) = self.node_mut(node);
        n.restore_session(now, peer, timing, rng, out);
    }

    /// [`Routing::restore`] in both directions of the `a`–`b` link.
    pub(crate) fn restore_pair(&mut self, now: SimTime, a: NodeId, b: NodeId, out: &mut Emitted) {
        self.restore(now, a, b, out);
        self.restore(now, b, a, out);
    }
}

/// Precomputed stochastic per-session state for one `(topology, timing,
/// seed)` triple: every session's MRAI value and every node's
/// processing-delay RNG stream in its initial state.
///
/// [`BgpSim::new`] derives roughly two RNG streams per directed session and
/// one per node. A harness that builds one simulator per experiment cell
/// over a shared testbed re-derives all of them for identical values; with
/// a seed built once per testbed, [`BgpSim::from_seed`] turns per-cell
/// construction into plain clones. The seed is `Send + Sync`, so one
/// instance serves a cell-parallel thread pool.
pub struct SimSeed {
    mrai: Vec<Box<[SimDuration]>>,
    proc: Vec<SmallRng>,
}

impl SimSeed {
    /// Samples the per-session MRAI values and per-node processing streams
    /// exactly as [`BgpSim::new`] would with the same arguments.
    pub fn new(topo: &Topology, timing: &BgpTimingConfig, rng: &RngFactory) -> SimSeed {
        let mrai = topo
            .nodes()
            .map(|node| {
                topo.neighbors(node.id)
                    .iter()
                    .map(|adj| {
                        let session_key = (node.id.index() as u64) << 32 | adj.peer.index() as u64;
                        timing.sample_session_mrai(rng, session_key)
                    })
                    .collect()
            })
            .collect();
        let proc = topo
            .nodes()
            .map(|node| rng.stream("bgp-proc", node.id.index() as u64))
            .collect();
        SimSeed { mrai, proc }
    }
}

impl BgpSim {
    /// Builds per-node BGP state over `topo`. MRAI values are sampled per
    /// directed session from the factory's `"mrai-session"` stream.
    pub fn new(topo: &Topology, timing: BgpTimingConfig, rng: &RngFactory) -> BgpSim {
        let seed = SimSeed::new(topo, &timing, rng);
        BgpSim::from_seed(topo, timing, &seed)
    }

    /// [`BgpSim::new`] against a prebuilt [`SimSeed`] — byte-identical
    /// state, but all RNG stream derivation replaced by clones.
    pub fn from_seed(topo: &Topology, timing: BgpTimingConfig, seed: &SimSeed) -> BgpSim {
        let n = topo.len();
        let mut nodes = Vec::with_capacity(n);
        for node in topo.nodes() {
            let neighbors = topo
                .neighbors(node.id)
                .iter()
                .zip(seed.mrai[node.id.index()].iter())
                .map(|(adj, &session_mrai)| {
                    BgpNode::neighbor_state(
                        adj.peer,
                        topo.node(adj.peer).asn,
                        adj.rel,
                        adj.delay,
                        session_mrai,
                    )
                })
                .collect();
            nodes.push(BgpNode::new(node.id, node.asn, neighbors));
        }
        let net = Routing {
            timing,
            nodes,
            proc_rngs: seed.proc.clone(),
            history: Vec::new(),
            record_history: false,
            stats: SimStats::default(),
        };
        BgpSim { net, fsm: None }
    }

    /// Switches to the message-level session model — one [`PeerFsm`] per
    /// directed session, wire-codec round-trips on every message, and
    /// session-fault realism (half-open, NOTIFICATION resets, graceful
    /// restart) — and starts every session. Call it *before* announcing
    /// anything, so the initial table exchange happens through real
    /// session establishment. A second call is a no-op.
    ///
    /// [`PeerFsm`]: bobw_session::PeerFsm
    pub fn enable_message_level(&mut self, now: SimTime, out: &mut Emitted) {
        if self.fsm.is_none() {
            self.fsm = Some(FsmSessions::start(&mut self.net, now, out));
        }
    }

    /// `node`'s forwarding version (see [`BgpNode::forwarding_version`]):
    /// it moves only when a [`fib_lookup`](BgpSim::fib_lookup) answer at
    /// `node` or `node`'s half of a [`link_is_up`](BgpSim::link_is_up)
    /// answer really changes, so data-plane consumers can memoize a walk
    /// against the versions of exactly the nodes it read.
    pub fn forwarding_version(&self, node: NodeId) -> u64 {
        self.net.nodes[node.index()].forwarding_version()
    }

    /// Enables/disables the route-change history (collector feed). Off by
    /// default: failover experiments only need current state, and the
    /// history grows with path-exploration churn.
    pub fn set_record_history(&mut self, on: bool) {
        self.net.record_history = on;
    }

    /// The recorded route changes, in time order.
    pub fn history(&self) -> &[RouteChange] {
        &self.net.history
    }

    /// Takes ownership of the recorded history, clearing the buffer.
    pub fn take_history(&mut self) -> Vec<RouteChange> {
        std::mem::take(&mut self.net.history)
    }

    pub fn stats(&self) -> SimStats {
        self.net.stats
    }

    pub fn num_nodes(&self) -> usize {
        self.net.nodes.len()
    }

    /// Current best route of `node` for `prefix`.
    pub fn best(&self, node: NodeId, prefix: &Prefix) -> Option<&Selected> {
        self.net.nodes[node.index()].best(prefix)
    }

    /// Longest-prefix-match lookup in `node`'s FIB.
    pub fn fib_lookup(&self, node: NodeId, addr: u32) -> Option<(Prefix, NextHop)> {
        self.net.nodes[node.index()].fib_lookup(addr)
    }

    /// Does `node` currently originate `prefix`?
    pub fn originates(&self, node: NodeId, prefix: &Prefix) -> bool {
        self.net.nodes[node.index()].originates(prefix)
    }

    /// Direct node access (read-only), for diagnostics and tests.
    pub fn node(&self, id: NodeId) -> &BgpNode {
        &self.net.nodes[id.index()]
    }

    /// Starts originating `prefix` at `node`.
    pub fn announce(
        &mut self,
        now: SimTime,
        node: NodeId,
        prefix: Prefix,
        cfg: OriginConfig,
        out: &mut Emitted,
    ) {
        let (n, timing, rng) = self.net.node_mut(node);
        if n.originate(now, prefix, cfg, timing, rng, out) {
            self.net.record_change(now, node, prefix);
        }
    }

    /// Stops originating `prefix` at `node`.
    pub fn withdraw(&mut self, now: SimTime, node: NodeId, prefix: Prefix, out: &mut Emitted) {
        let (n, timing, rng) = self.net.node_mut(node);
        if n.withdraw_origin(now, prefix, timing, rng, out) {
            self.net.record_change(now, node, prefix);
        }
    }

    /// Processes one event, pushing follow-ups into `out`.
    pub fn handle(&mut self, now: SimTime, ev: BgpEvent, out: &mut Emitted) {
        let net = &mut self.net;
        match ev {
            BgpEvent::Deliver { to, from, msg } => {
                net.stats.messages += 1;
                let msg = match &mut self.fsm {
                    Some(fsm) => fsm.deliver(net, to, from, msg),
                    None => msg,
                };
                let prefix = msg.prefix();
                let (n, timing, rng) = net.node_mut(to);
                let changed = n.receive(now, from, msg, timing, rng, out);
                net.best_changed(now, to, changed.then_some(prefix));
            }
            BgpEvent::Fire {
                node,
                neighbor,
                prefix,
                gen,
            } => {
                net.nodes[node.index()].fire(now, neighbor, prefix, gen, &net.timing, out);
            }
            BgpEvent::DampingReuse {
                node,
                neighbor,
                prefix,
            } => {
                let (n, timing, rng) = net.node_mut(node);
                let changed = n.damping_reuse(now, neighbor, prefix, timing, rng, out);
                net.best_changed(now, node, changed.then_some(prefix));
            }
            BgpEvent::HoldExpire {
                node,
                neighbor,
                gen,
            } => {
                // Stale if the session went down again after this timer was
                // armed: that outage's own timer does the purging.
                if net.nodes[node.index()].hold_gen(neighbor) == gen {
                    net.expire_now(now, node, neighbor, out);
                }
            }
            // Message-level events; the abstract model never schedules them.
            BgpEvent::SessionMsg { to, from, payload } => {
                if let Some(fsm) = &mut self.fsm {
                    fsm.session_msg(net, now, to, from, payload, out);
                }
            }
            BgpEvent::SessionTimer {
                node,
                neighbor,
                kind,
                gen,
            } => {
                if let Some(fsm) = &mut self.fsm {
                    fsm.timer(net, now, node, neighbor, kind, gen, out);
                }
            }
        }
    }

    /// Fails the link between `a` and `b` silently: no withdrawals are
    /// sent; each side discovers the failure when its hold timer expires
    /// (or via the operator's monitoring at a higher layer). In-flight and
    /// future messages on the link are lost.
    pub fn fail_link(&mut self, _now: SimTime, a: NodeId, b: NodeId, out: &mut Emitted) {
        match &mut self.fsm {
            Some(fsm) => fsm.fail_link(&mut self.net, a, b, out),
            None => {
                for (x, y) in [(a, b), (b, a)] {
                    // Only a real up→down transition arms a hold timer:
                    // failing an already-failed link (a SilentCrash after a
                    // drill, overlapping whole-site failures) must not
                    // schedule a duplicate HoldExpire, which would rerun
                    // the purge and inflate best_changes/history.
                    if self.net.nodes[x.index()].fail_session(y) {
                        self.net.arm_hold(x, y, out);
                    }
                }
            }
        }
    }

    /// Restores a failed link; both ends re-establish and exchange full
    /// tables.
    pub fn restore_link(&mut self, now: SimTime, a: NodeId, b: NodeId, out: &mut Emitted) {
        match &mut self.fsm {
            Some(fsm) => fsm.restore_link(&mut self.net, now, a, b, out),
            None => self.net.restore_pair(now, a, b, out),
        }
    }

    /// Bounces the BGP session on a link (an RFC 4271 session reset /
    /// operator `clear bgp`).
    ///
    /// Abstract model: down and immediately back up — the hold timers armed
    /// by the teardown find the session up again when they fire and never
    /// purge; the observable effect is a burst of duplicate UPDATEs and any
    /// route-flap-damping penalty they earn.
    ///
    /// Message-level model: `a` sends an administrative Cease NOTIFICATION
    /// (see [`BgpSim::notify_reset`]): both ends purge, then re-establish
    /// after a jittered connect-retry — duplicate updates *plus* a real
    /// withdraw/re-announce flap, which is what damping actually penalizes.
    pub fn reset_link(&mut self, now: SimTime, a: NodeId, b: NodeId, out: &mut Emitted) {
        match &mut self.fsm {
            Some(fsm) => fsm.notify_reset(&mut self.net, now, a, b, CEASE, out),
            None => {
                self.fail_link(now, a, b, out);
                self.net.restore_pair(now, a, b, out);
            }
        }
    }

    /// `a` resets its session to `b` with a NOTIFICATION carrying `code`:
    /// `a` purges immediately and reconnects after a jittered retry; `b`
    /// purges when the NOTIFICATION arrives and then listens passively.
    ///
    /// Abstract approximation: both ends purge and immediately re-establish
    /// (a noticed reset, unlike [`BgpSim::fail_link`]'s silent loss).
    pub fn notify_reset(
        &mut self,
        now: SimTime,
        a: NodeId,
        b: NodeId,
        code: u8,
        out: &mut Emitted,
    ) {
        match &mut self.fsm {
            Some(fsm) => fsm.notify_reset(&mut self.net, now, a, b, code, out),
            None => {
                for (x, y) in [(a, b), (b, a)] {
                    self.net.nodes[x.index()].fail_session(y);
                    self.net.expire_now(now, x, y, out);
                }
                self.net.restore_pair(now, a, b, out);
            }
        }
    }

    /// Half-open session: `peer`'s side of the session to `site` silently
    /// loses its state (state-table corruption, one-sided TCP teardown).
    /// The peer purges instantly; `site` keeps advertising into the void
    /// until its hold timer expires — the §5 pathology where a site keeps
    /// attracting traffic it can no longer coordinate with its neighbor.
    ///
    /// Message-level: the peer FSM stops silently and then listens; the
    /// site's hold expiry notifies, purges, and reconnects (full recovery).
    /// Abstract approximation: same two-phase purge via [`BgpEvent::HoldExpire`],
    /// but no re-establishment (the abstract model has no reconnect logic).
    /// Forwarding stays up in both models: the wire is fine.
    pub fn half_open(&mut self, now: SimTime, site: NodeId, peer: NodeId, out: &mut Emitted) {
        match &mut self.fsm {
            Some(fsm) => fsm.half_open(&mut self.net, now, site, peer, out),
            None => {
                self.net.teardown_purge(now, peer, site, out);
                if self.net.nodes[site.index()].fail_session_control(peer) {
                    self.net.arm_hold(site, peer, out);
                }
            }
        }
    }

    /// Graceful restart (RFC 4724) of `node`'s BGP process: every neighbor
    /// that negotiated the capability keeps forwarding *and* keeps the
    /// routes learned from `node` (marked stale) while the process is down.
    /// After `restart`, `node` reconnects with per-session jitter; routes
    /// the peers never see re-advertised are purged when the advertised
    /// stale window closes.
    ///
    /// Abstract approximation: a restart without helper-mode support — every
    /// session bounces ([`BgpSim::reset_link`] per neighbor), producing the
    /// duplicate-update burst but no retention.
    pub fn graceful_restart(
        &mut self,
        now: SimTime,
        node: NodeId,
        restart: SimDuration,
        out: &mut Emitted,
    ) {
        match &mut self.fsm {
            Some(fsm) => fsm.graceful_restart(&mut self.net, now, node, restart, out),
            None => {
                let peers: Vec<NodeId> = self.net.nodes[node.index()]
                    .neighbors()
                    .iter()
                    .map(|n| n.peer)
                    .collect();
                for peer in peers {
                    self.reset_link(now, node, peer, out);
                }
            }
        }
    }

    /// Fails every link of `node` (a whole-site crash).
    pub fn fail_node_links(
        &mut self,
        now: SimTime,
        node: NodeId,
        topo_neighbors: &[NodeId],
        out: &mut Emitted,
    ) {
        for &peer in topo_neighbors {
            self.fail_link(now, node, peer, out);
        }
    }

    /// Is the (bidirectional) link between `a` and `b` usable by the data
    /// plane? Keyed to the *forwarding* flag, which the abstract model
    /// keeps locked to the session flag; the message-level model splits
    /// them so graceful restart and half-open sessions keep forwarding
    /// while the control plane is down.
    pub fn link_is_up(&self, a: NodeId, b: NodeId) -> bool {
        self.net.nodes[a.index()].forwarding_is_up(b)
            && self.net.nodes[b.index()].forwarding_is_up(a)
    }
}

struct Adapter<'a> {
    sim: &'a mut BgpSim,
    scratch: &'a mut Emitted,
}

impl Handler<BgpEvent> for Adapter<'_> {
    fn handle(&mut self, now: SimTime, event: BgpEvent, sched: &mut Scheduler<'_, BgpEvent>) {
        self.sim.handle(now, event, self.scratch);
        for (d, e) in self.scratch.drain(..) {
            sched.after(d, e);
        }
    }
}

/// A self-contained control-plane-only simulation: engine + [`BgpSim`].
/// Used by the BGP tests and the Appendix A/B experiments (Figures 3/4),
/// where no data-plane probing is needed.
///
/// ```
/// use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
/// use bobw_event::RngFactory;
/// use bobw_topology::{generate, GenConfig};
///
/// let rng = RngFactory::new(42);
/// let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
/// let mut sim = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
/// // Anycast: every site originates the same prefix.
/// let prefix = "184.164.244.0/24".parse().unwrap();
/// for &site in cdn.site_nodes() {
///     sim.announce(site, prefix, OriginConfig::plain());
/// }
/// sim.run_to_idle(1_000_000);
/// // Every AS now has a best route to one of the sites.
/// assert!(topo.ids().all(|n| {
///     sim.sim().best(n, &prefix).is_some() || cdn.site_at(n).is_some()
/// }));
/// ```
pub struct Standalone {
    engine: Engine<BgpEvent>,
    sim: BgpSim,
    /// Reusable buffer for events emitted by [`BgpSim`] before they are
    /// scheduled on the engine — one allocation for the sim's lifetime
    /// instead of one per injected operation or handled event.
    scratch: Emitted,
}

impl Standalone {
    pub fn new(topo: &Topology, timing: BgpTimingConfig, rng: &RngFactory) -> Standalone {
        Standalone::with_queue_capacity(topo, timing, rng, 0)
    }

    /// Like [`Standalone::new`] but with the engine queue's slab pages
    /// reserved for `cap` pending events (see [`Engine::with_capacity`]).
    /// Allocation only; behavior is identical.
    pub fn with_queue_capacity(
        topo: &Topology,
        timing: BgpTimingConfig,
        rng: &RngFactory,
        cap: usize,
    ) -> Standalone {
        Standalone {
            engine: Engine::with_capacity(cap),
            sim: BgpSim::new(topo, timing, rng),
            scratch: Vec::with_capacity(64),
        }
    }

    pub fn sim(&self) -> &BgpSim {
        &self.sim
    }

    pub fn sim_mut(&mut self) -> &mut BgpSim {
        &mut self.sim
    }

    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Number of BGP events waiting in the engine queue.
    pub fn pending_events(&self) -> usize {
        self.engine.pending()
    }

    /// Total events the engine has processed.
    pub fn events_processed(&self) -> u64 {
        self.engine.processed()
    }

    /// High-water mark of the engine queue (see [`Engine::peak_pending`]).
    pub fn peak_queue_depth(&self) -> usize {
        self.engine.peak_pending()
    }

    /// Pending events the engine queue's slab holds before it adds a page
    /// (see [`Engine::queue_capacity`]).
    pub fn queue_capacity(&self) -> usize {
        self.engine.queue_capacity()
    }

    /// Schedule everything the sim emitted into `scratch` onto the engine.
    /// Shared drain for every injection method below.
    fn flush_scratch(&mut self) {
        for (d, e) in self.scratch.drain(..) {
            self.engine.schedule_after(d, e);
        }
    }

    pub fn announce(&mut self, node: NodeId, prefix: Prefix, cfg: OriginConfig) {
        let now = self.engine.now();
        self.sim.announce(now, node, prefix, cfg, &mut self.scratch);
        self.flush_scratch();
    }

    pub fn withdraw(&mut self, node: NodeId, prefix: Prefix) {
        let now = self.engine.now();
        self.sim.withdraw(now, node, prefix, &mut self.scratch);
        self.flush_scratch();
    }

    /// Silently fails the link between `a` and `b` (see [`BgpSim::fail_link`]).
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        let now = self.engine.now();
        self.sim.fail_link(now, a, b, &mut self.scratch);
        self.flush_scratch();
    }

    /// Restores a previously failed link.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId) {
        let now = self.engine.now();
        self.sim.restore_link(now, a, b, &mut self.scratch);
        self.flush_scratch();
    }

    /// Bounces the session on a link (see [`BgpSim::reset_link`]).
    pub fn reset_link(&mut self, a: NodeId, b: NodeId) {
        let now = self.engine.now();
        self.sim.reset_link(now, a, b, &mut self.scratch);
        self.flush_scratch();
    }

    /// Crashes every listed link of `node` at once (whole-site failure).
    pub fn fail_all_links(&mut self, node: NodeId, peers: &[NodeId]) {
        let now = self.engine.now();
        self.sim
            .fail_node_links(now, node, peers, &mut self.scratch);
        self.flush_scratch();
    }

    /// Switches to the message-level session model and starts every
    /// session (see [`BgpSim::enable_message_level`]). Call before
    /// announcing anything; run the engine afterwards to let the sessions
    /// establish.
    pub fn enable_message_level(&mut self) {
        let now = self.engine.now();
        self.sim.enable_message_level(now, &mut self.scratch);
        self.flush_scratch();
    }

    /// Half-opens the session between `site` and `peer` (see
    /// [`BgpSim::half_open`]).
    pub fn half_open(&mut self, site: NodeId, peer: NodeId) {
        let now = self.engine.now();
        self.sim.half_open(now, site, peer, &mut self.scratch);
        self.flush_scratch();
    }

    /// Resets `a`'s session to `b` with a NOTIFICATION (see
    /// [`BgpSim::notify_reset`]).
    pub fn notify_reset(&mut self, a: NodeId, b: NodeId, code: u8) {
        let now = self.engine.now();
        self.sim.notify_reset(now, a, b, code, &mut self.scratch);
        self.flush_scratch();
    }

    /// Gracefully restarts `node`'s BGP process (see
    /// [`BgpSim::graceful_restart`]).
    pub fn graceful_restart(&mut self, node: NodeId, restart: SimDuration) {
        let now = self.engine.now();
        self.sim
            .graceful_restart(now, node, restart, &mut self.scratch);
        self.flush_scratch();
    }

    /// Runs until no BGP work remains (full convergence) or the event
    /// budget is exhausted.
    pub fn run_to_idle(&mut self, max_events: u64) -> StepOutcome {
        let mut adapter = Adapter {
            sim: &mut self.sim,
            scratch: &mut self.scratch,
        };
        self.engine.run_to_idle(&mut adapter, max_events)
    }

    /// Runs for `secs` of simulated time from now (convenience wrapper).
    pub fn run_until_secs(&mut self, secs: u64) -> StepOutcome {
        let deadline = self.engine.now() + SimDuration::from_secs(secs);
        self.run_until(deadline, u64::MAX)
    }

    /// Runs until `deadline` (events at the deadline included).
    pub fn run_until(&mut self, deadline: SimTime, max_events: u64) -> StepOutcome {
        let mut adapter = Adapter {
            sim: &mut self.sim,
            scratch: &mut self.scratch,
        };
        self.engine.run_until(&mut adapter, deadline, max_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_net::Asn;
    use bobw_topology::{NodeKind, REGIONS};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Chain topology: t1 --(provides)--> mid --(provides)--> leaf, plus a
    /// second leaf under t1 directly.
    ///
    /// ```text
    ///        t1
    ///       /  \
    ///     mid   leaf2
    ///      |
    ///     leaf
    /// ```
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

    #[test]
    fn announcement_propagates_to_whole_chain() {
        let (topo, t1, mid, leaf, leaf2) = chain();
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        let pre = p("184.164.244.0/24");
        s.announce(leaf, pre, OriginConfig::plain());
        assert_eq!(s.run_to_idle(100_000), StepOutcome::Idle);
        // Everyone has a route; FIB next hops walk back down the chain.
        assert_eq!(
            s.sim().fib_lookup(leaf, pre.addr_at(1)).unwrap().1,
            NextHop::Local
        );
        assert_eq!(
            s.sim().fib_lookup(mid, pre.addr_at(1)).unwrap().1,
            NextHop::Via(leaf)
        );
        assert_eq!(
            s.sim().fib_lookup(t1, pre.addr_at(1)).unwrap().1,
            NextHop::Via(mid)
        );
        assert_eq!(
            s.sim().fib_lookup(leaf2, pre.addr_at(1)).unwrap().1,
            NextHop::Via(t1)
        );
        // AS paths lengthen along the chain.
        let best_at_leaf2 = s.sim().best(leaf2, &pre).unwrap();
        assert_eq!(best_at_leaf2.attrs.path.hops().len(), 3);
        assert_eq!(best_at_leaf2.attrs.origin, leaf);
    }

    #[test]
    fn withdrawal_clears_the_network() {
        let (topo, t1, mid, leaf, leaf2) = chain();
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        let pre = p("184.164.244.0/24");
        s.announce(leaf, pre, OriginConfig::plain());
        s.run_to_idle(100_000);
        s.withdraw(leaf, pre);
        assert_eq!(s.run_to_idle(100_000), StepOutcome::Idle);
        for n in [t1, mid, leaf, leaf2] {
            assert!(s.sim().best(n, &pre).is_none(), "{n} still has a route");
            assert!(s.sim().fib_lookup(n, pre.addr_at(1)).is_none());
        }
    }

    #[test]
    fn anycast_two_origins_split_catchment() {
        // Diamond: two tier-1 peers, each providing one leaf; both leaves
        // announce the same prefix (anycast). Each tier-1 must prefer its
        // own customer leaf.
        let mut t = Topology::new();
        let c = REGIONS[0].center;
        let a = t.add_node(Asn(10), NodeKind::Tier1, c, 0);
        let b = t.add_node(Asn(11), NodeKind::Tier1, c, 0);
        let la = t.add_node(Asn(30), NodeKind::Stub, c, 0);
        let lb = t.add_node(Asn(31), NodeKind::Stub, c, 0);
        t.link_peers(a, b);
        t.link_provider_customer(a, la);
        t.link_provider_customer(b, lb);
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&t, BgpTimingConfig::instant(), &rng);
        let pre = p("184.164.244.0/24");
        s.announce(la, pre, OriginConfig::plain());
        s.announce(lb, pre, OriginConfig::plain());
        s.run_to_idle(100_000);
        assert_eq!(s.sim().best(a, &pre).unwrap().attrs.origin, la);
        assert_eq!(s.sim().best(b, &pre).unwrap().attrs.origin, lb);
        // Withdraw one origin: both tier-1s converge to the survivor.
        s.withdraw(la, pre);
        s.run_to_idle(100_000);
        assert_eq!(s.sim().best(a, &pre).unwrap().attrs.origin, lb);
        assert_eq!(s.sim().best(b, &pre).unwrap().attrs.origin, lb);
        assert!(
            s.sim().best(la, &pre).is_some(),
            "ex-origin learns the other site"
        );
    }

    #[test]
    fn valley_free_blocks_peer_to_peer_transit() {
        // leafA - t1a (peer) t1b - leafB, and t1a peers with t1c which has
        // no customer route: t1c must NOT relay t1a's peer-learned route to
        // t1b. Build: origin under t1a; t1b reaches it via its own peer link
        // to t1a, never via t1c.
        let mut t = Topology::new();
        let c = REGIONS[0].center;
        let t1a = t.add_node(Asn(10), NodeKind::Tier1, c, 0);
        let t1b = t.add_node(Asn(11), NodeKind::Tier1, c, 0);
        let t1c = t.add_node(Asn(12), NodeKind::Tier1, c, 0);
        let origin = t.add_node(Asn(30), NodeKind::Stub, c, 0);
        t.link_peers(t1a, t1b);
        t.link_peers(t1a, t1c);
        t.link_peers(t1b, t1c);
        t.link_provider_customer(t1a, origin);
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&t, BgpTimingConfig::instant(), &rng);
        let pre = p("184.164.244.0/24");
        s.announce(origin, pre, OriginConfig::plain());
        s.run_to_idle(100_000);
        // t1b and t1c both learn via t1a directly (valley-free: they cannot
        // relay to each other).
        assert_eq!(s.sim().best(t1b, &pre).unwrap().from, Some(t1a));
        assert_eq!(s.sim().best(t1c, &pre).unwrap().from, Some(t1a));
        // Adj-RIB-In of t1b contains only the t1a route.
        assert_eq!(s.sim().node(t1b).adj_in(&pre).len(), 1);
    }

    #[test]
    fn covering_prefix_lpm_fallthrough_after_withdrawal() {
        // The §3 proactive-superprefix mechanism at a single router: /24
        // from one origin, /23 from another; withdrawing the /24 makes the
        // FIB fall through to the /23.
        let (topo, t1, _mid, leaf, leaf2) = chain();
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        let specific = p("184.164.244.0/24");
        let covering = p("184.164.244.0/23");
        s.announce(leaf, specific, OriginConfig::plain());
        s.announce(leaf2, covering, OriginConfig::plain());
        s.run_to_idle(100_000);
        let addr = specific.addr_at(10);
        let (matched, _) = s.sim().fib_lookup(t1, addr).unwrap();
        assert_eq!(matched, specific);
        s.withdraw(leaf, specific);
        s.run_to_idle(100_000);
        let (matched, nh) = s.sim().fib_lookup(t1, addr).unwrap();
        assert_eq!(matched, covering);
        assert_eq!(nh, NextHop::Via(leaf2));
    }

    #[test]
    fn history_records_convergence_and_withdrawals() {
        let (topo, _t1, _mid, leaf, leaf2) = chain();
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        s.sim_mut().set_record_history(true);
        let pre = p("184.164.244.0/24");
        s.announce(leaf, pre, OriginConfig::plain());
        s.run_to_idle(100_000);
        let announces = s.sim().history().len();
        assert!(announces >= 4, "each node's first best counts: {announces}");
        s.withdraw(leaf, pre);
        s.run_to_idle(100_000);
        let hist = s.sim_mut().take_history();
        assert!(hist.iter().any(|rc| rc.is_withdrawal() && rc.node == leaf2));
        // Times are monotone.
        for w in hist.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(s.sim().history().is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let (topo, ..) = chain();
        let run = || {
            let rng = RngFactory::new(99);
            let mut s = Standalone::new(&topo, BgpTimingConfig::default(), &rng);
            s.sim_mut().set_record_history(true);
            let pre = p("184.164.244.0/24");
            s.announce(NodeId(2), pre, OriginConfig::plain());
            s.run_to_idle(1_000_000);
            s.withdraw(NodeId(2), pre);
            s.run_to_idle(1_000_000);
            (s.sim().stats(), s.now(), s.sim().history().len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn no_export_stays_at_direct_neighbors() {
        // leaf originates with NO_EXPORT: mid (its provider) learns and
        // uses the route but never re-advertises it to t1.
        let (topo, t1, mid, leaf, leaf2) = chain();
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        let pre = p("184.164.244.0/24");
        s.announce(leaf, pre, OriginConfig::plain().with_no_export());
        s.run_to_idle(100_000);
        assert_eq!(
            s.sim().fib_lookup(mid, pre.addr_at(1)).unwrap().1,
            NextHop::Via(leaf),
            "direct neighbor uses the NO_EXPORT route"
        );
        assert!(
            s.sim().best(t1, &pre).is_none(),
            "NO_EXPORT route must not propagate beyond the neighbor"
        );
        assert!(s.sim().best(leaf2, &pre).is_none());
    }

    #[test]
    fn stats_count_messages() {
        let (topo, ..) = chain();
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        s.announce(NodeId(2), p("184.164.244.0/24"), OriginConfig::plain());
        s.run_to_idle(100_000);
        let stats = s.sim().stats();
        assert!(stats.messages >= 3);
        assert!(stats.best_changes >= 3);
    }

    /// A message-level Standalone over the chain topology with sessions
    /// established and `prefix` announced from `leaf`.
    fn message_level_converged() -> (Standalone, NodeId, NodeId, NodeId, NodeId, Prefix) {
        let (topo, t1, mid, leaf, leaf2) = chain();
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        s.enable_message_level();
        let pre = p("184.164.244.0/24");
        s.announce(leaf, pre, OriginConfig::plain());
        assert_eq!(s.run_to_idle(1_000_000), StepOutcome::Idle);
        (s, t1, mid, leaf, leaf2, pre)
    }

    #[test]
    fn message_level_converges_like_abstract() {
        let (topo, t1, mid, leaf, leaf2) = chain();
        let rng = RngFactory::new(1);
        let mut a = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        let pre = p("184.164.244.0/24");
        a.announce(leaf, pre, OriginConfig::plain());
        a.run_to_idle(1_000_000);

        let (m, ..) = message_level_converged();
        for n in [t1, mid, leaf, leaf2] {
            assert_eq!(
                m.sim().best(n, &pre),
                a.sim().best(n, &pre),
                "best at {n} differs between models"
            );
            assert_eq!(
                m.sim().fib_lookup(n, pre.addr_at(1)),
                a.sim().fib_lookup(n, pre.addr_at(1))
            );
        }
        // OPEN/KEEPALIVE exchanges went through the codec: 2 per direction
        // per adjacency at minimum.
        assert!(m.sim().stats().session_msgs >= 12);
        assert_eq!(a.sim().stats().session_msgs, 0);
    }

    #[test]
    fn message_level_notify_reset_flaps_and_recovers() {
        let (mut s, t1, mid, _leaf, leaf2, pre) = message_level_converged();
        s.sim_mut().set_record_history(true);
        let before = s.sim().stats().session_msgs;
        s.notify_reset(t1, mid, 6); // administrative Cease from t1
        assert_eq!(s.run_to_idle(1_000_000), StepOutcome::Idle);
        // t1 purged its only route (via mid) and propagated the loss to
        // leaf2, then re-learned everything after re-establishment.
        let hist = s.sim().history();
        assert!(
            hist.iter().any(|rc| rc.node == leaf2 && rc.is_withdrawal()),
            "reset must propagate a real withdrawal"
        );
        assert_eq!(s.sim().best(t1, &pre).unwrap().from, Some(mid));
        assert_eq!(s.sim().best(leaf2, &pre).unwrap().from, Some(t1));
        assert!(
            s.sim().stats().session_msgs > before,
            "reset must exchange NOTIFICATION + fresh handshake"
        );
    }

    #[test]
    fn message_level_half_open_purges_peer_then_site() {
        let (mut s, t1, mid, _leaf, _leaf2, pre) = message_level_converged();
        // t1's side of the (mid, t1) session silently loses its state.
        s.half_open(mid, t1);
        s.run_until_secs(1);
        // Phase 1: t1 purged instantly; mid still believes the session is
        // up and keeps its state.
        assert!(s.sim().best(t1, &pre).is_none(), "peer purges immediately");
        assert!(s.sim().best(mid, &pre).is_some());
        // The wire itself is fine: forwarding stays up in both directions.
        assert!(s.sim().link_is_up(t1, mid));
        // Phase 2: mid's hold timer expires, it notices, reconnects, and
        // the session fully recovers.
        assert_eq!(s.run_to_idle(1_000_000), StepOutcome::Idle);
        assert_eq!(s.sim().best(t1, &pre).unwrap().from, Some(mid));
    }

    #[test]
    fn message_level_graceful_restart_retains_routes() {
        let (mut s, t1, mid, _leaf, _leaf2, pre) = message_level_converged();
        s.sim_mut().set_record_history(true);
        let best_before = *s.sim().best(t1, &pre).unwrap();
        s.graceful_restart(mid, SimDuration::from_secs(5));
        // During the restart window: control plane down, but t1 retains
        // the stale route and the data plane keeps forwarding through mid.
        assert_eq!(s.sim().best(t1, &pre), Some(&best_before));
        assert!(s.sim().link_is_up(t1, mid));
        assert!(!s.sim().node(t1).session_is_up(mid));
        // Restart completes, sessions re-establish, stale set is refreshed
        // before the sweep: no withdrawal ever reaches the network.
        assert_eq!(s.run_to_idle(1_000_000), StepOutcome::Idle);
        assert_eq!(s.sim().best(t1, &pre), Some(&best_before));
        assert!(s.sim().node(t1).session_is_up(mid));
        assert!(
            !s.sim().history().iter().any(|rc| rc.is_withdrawal()),
            "graceful restart must not leak withdrawals"
        );
    }

    #[test]
    fn message_level_link_cut_purges_at_hold_and_recovers_on_restore() {
        let (mut s, t1, mid, _leaf, leaf2, pre) = message_level_converged();
        s.fail_link(t1, mid);
        // Before the hold timer: sessions still Established, routes kept.
        s.run_until_secs(1);
        assert!(s.sim().best(t1, &pre).is_some());
        assert!(!s.sim().link_is_up(t1, mid));
        // Hold expires: both sides purge; t1 and leaf2 lose the route.
        assert_eq!(s.run_to_idle(1_000_000), StepOutcome::Idle);
        assert!(s.sim().best(t1, &pre).is_none());
        assert!(s.sim().best(leaf2, &pre).is_none());
        // Restore: handshake from scratch, full tables re-exchanged.
        s.restore_link(t1, mid);
        assert_eq!(s.run_to_idle(1_000_000), StepOutcome::Idle);
        assert_eq!(s.sim().best(t1, &pre).unwrap().from, Some(mid));
        assert_eq!(s.sim().best(leaf2, &pre).unwrap().from, Some(t1));
    }

    #[test]
    fn message_level_deterministic_across_runs() {
        let (topo, t1, mid, leaf, _leaf2) = chain();
        let run = || {
            let rng = RngFactory::new(99);
            let mut s = Standalone::new(&topo, BgpTimingConfig::default(), &rng);
            s.sim_mut().set_record_history(true);
            s.enable_message_level();
            let pre = p("184.164.244.0/24");
            s.announce(leaf, pre, OriginConfig::plain());
            s.run_to_idle(1_000_000);
            s.notify_reset(t1, mid, 6);
            s.run_to_idle(1_000_000);
            s.graceful_restart(mid, SimDuration::from_secs(5));
            s.run_to_idle(1_000_000);
            (s.sim().stats(), s.now(), s.sim().history().len())
        };
        assert_eq!(run(), run());
    }
}
