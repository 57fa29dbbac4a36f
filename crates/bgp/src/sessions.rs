//! The message-level session model: one RFC 4271 [`PeerFsm`] per directed
//! session, the wire codec on every message, and the full session
//! semantics of the fault ops (DESIGN.md §9).
//!
//! [`BgpSim`](crate::BgpSim) holds an `Option<FsmSessions>` beside its
//! routing half and lends that half to every call here by `&mut`; `None`
//! is the abstract model, where adjacencies are booleans and session
//! management is implicit.

use bobw_event::{SimDuration, SimTime};
use bobw_net::{AsPath, Asn, NodeId, Prefix};
use bobw_session::{
    codec, BgpMessage, DownReason, FsmInput, FsmOutput, PeerFsm, PeerState, SessionConfig,
    SessionPayload, TimerKind, UpdateAttrs, UpdateMsg,
};
use rand::Rng;

use crate::route::{BgpEvent, Emitted, Message, SessionTimerKind, WireRoute};
use crate::sim::Routing;

/// Base connect-retry interval; each scheduled retry is jittered uniformly
/// in `[0.5, 1.5) ×` this from the node's processing-delay RNG stream
/// (deterministic given the seed).
const CONNECT_RETRY_S: f64 = 1.0;

/// Graceful-restart window advertised in every OPEN.
const GR_RESTART_S: u16 = 120;

/// Per-directed-session state, parallel to the owning node's neighbor list.
struct PeerSession {
    fsm: PeerFsm,
    /// Per-timer-kind generation counters; an armed timer event carries the
    /// generation at arming time and is a no-op if it was bumped since.
    gens: [u32; 4],
    /// Administrative link state for this direction (fault injection).
    admin_up: bool,
    /// This endpoint's TCP is unreachable (process restarting). Connect
    /// attempts against — or from — a blocked endpoint fail.
    blocked: bool,
    /// Graceful restart: prefixes retained from the restarting peer,
    /// sorted; pruned as re-advertisements arrive, leftovers purged by the
    /// stale sweep.
    stale: Vec<Prefix>,
}

pub(crate) struct FsmSessions {
    /// `sessions[node][nix]` for the session from `node` to its `nix`-th
    /// neighbor.
    sessions: Vec<Vec<PeerSession>>,
    wire: Wire,
    /// Emptied FSM-output buffers for [`Self::drive`]: a pool, not one
    /// buffer, because `drive` recurses through `AttemptConnect`.
    fx_pool: Vec<Vec<FsmOutput>>,
}

fn kind_ix(kind: SessionTimerKind) -> usize {
    match kind {
        SessionTimerKind::ConnectRetry => 0,
        SessionTimerKind::Hold => 1,
        SessionTimerKind::Keepalive => 2,
        SessionTimerKind::StaleSweep => 3,
    }
}

/// The wire codec's reused state. Every message crosses it as RFC 4271
/// bytes, and the *decoded* message is what gets delivered, so a codec
/// asymmetry would surface as a routing difference instead of passing
/// silently. Once warm, a route message encodes and decodes without
/// touching the allocator.
struct Wire {
    /// The outgoing route message, refilled in place.
    tx: BgpMessage,
    /// The frame between encode and decode.
    bytes: Vec<u8>,
    /// The decoded message.
    rx: BgpMessage,
    /// The one AS-path buffer, parked here between messages so that it
    /// survives withdrawals, which carry none.
    spare_path: Vec<Asn>,
}

impl Wire {
    /// Encodes, decodes and rebuilds one route UPDATE or WITHDRAW.
    fn route(&mut self, msg: Message) -> Message {
        let tx = self.tx.update_mut();
        tx.withdrawn.clear();
        tx.nlri.clear();
        match msg {
            Message::Update { prefix, route } => {
                let mut as_path = std::mem::take(&mut self.spare_path);
                as_path.clear();
                route.path.with_hops(|hops| as_path.extend_from_slice(hops));
                tx.attrs = Some(UpdateAttrs {
                    as_path,
                    med: route.med,
                    origin_node: route.origin.index() as u32,
                    no_export: route.no_export,
                });
                tx.nlri.push(prefix);
            }
            Message::Withdraw { prefix } => tx.withdrawn.push(prefix),
        }
        codec::encode_into(&self.tx, &mut self.bytes).expect("route update encodes");
        // The frame is written, so the path buffer moves on to the decoder,
        // which keeps only its capacity.
        self.rx.update_mut().attrs = self.tx.update_mut().attrs.take();
        let len = codec::decode_into(&self.bytes, &mut self.rx).expect("route update decodes");
        debug_assert_eq!(len, self.bytes.len());
        let BgpMessage::Update(u) = &mut self.rx else {
            unreachable!("UPDATE decodes as UPDATE");
        };
        let rebuilt = match (&u.withdrawn[..], &u.nlri[..], &u.attrs) {
            ([], [prefix], Some(a)) => Message::Update {
                prefix: *prefix,
                route: WireRoute {
                    path: AsPath::from_hops(&a.as_path),
                    med: a.med,
                    origin: NodeId(a.origin_node),
                    no_export: a.no_export,
                },
            },
            ([prefix], [], None) => Message::Withdraw { prefix: *prefix },
            _ => unreachable!("codec preserved the update shape"),
        };
        if let Some(a) = u.attrs.take() {
            self.spare_path = a.as_path;
        }
        debug_assert_eq!(rebuilt, msg);
        rebuilt
    }

    /// Encodes, decodes and digests one session-management message.
    fn session(&mut self, payload: SessionPayload, bgp_id: u32) -> SessionPayload {
        let full = payload.to_message(bgp_id);
        codec::encode_into(&full, &mut self.bytes).expect("session message encodes");
        let len = codec::decode_into(&self.bytes, &mut self.rx).expect("session message decodes");
        debug_assert_eq!(len, self.bytes.len());
        SessionPayload::from_message(&self.rx).expect("session payload survives the codec")
    }
}

impl FsmSessions {
    /// Quiesces every adjacency, gives each directed session an idle FSM,
    /// and starts them all in node-then-neighbor order. With the
    /// simulator's instant TCP the OPEN exchanges interleave
    /// deterministically and every session reaches Established, triggering
    /// the initial full-table exports.
    pub(crate) fn start(net: &mut Routing, now: SimTime, out: &mut Emitted) -> FsmSessions {
        let hold_time_s = net.timing.hold_time().as_secs_f64().round() as u16;
        let sessions = net
            .nodes
            .iter()
            .map(|node| {
                let cfg = SessionConfig {
                    hold_time_s,
                    connect_retry_s: CONNECT_RETRY_S,
                    gr_restart_s: GR_RESTART_S,
                    asn: node.asn.0,
                };
                node.neighbors()
                    .iter()
                    .map(|_| PeerSession {
                        fsm: PeerFsm::new(cfg),
                        gens: [0; 4],
                        admin_up: true,
                        blocked: false,
                        stale: Vec::new(),
                    })
                    .collect()
            })
            .collect();
        for node in &mut net.nodes {
            node.quiesce_sessions();
        }
        let mut fsm = FsmSessions {
            sessions,
            wire: Wire {
                tx: BgpMessage::Update(UpdateMsg::default()),
                bytes: Vec::new(),
                rx: BgpMessage::Keepalive,
                spare_path: Vec::new(),
            },
            fx_pool: Vec::new(),
        };
        for i in 0..net.nodes.len() {
            let node = net.nodes[i].id;
            for nix in 0..fsm.sessions[i].len() {
                let peer = net.nodes[i].neighbors()[nix].peer;
                fsm.drive(net, now, node, peer, FsmInput::Start, out);
            }
        }
        fsm
    }

    /// A route message arrives at `to`: it crosses the wire codec, and a
    /// refresh from a restarting peer prunes the graceful-restart stale set.
    pub(crate) fn deliver(
        &mut self,
        net: &Routing,
        to: NodeId,
        from: NodeId,
        msg: Message,
    ) -> Message {
        let msg = self.wire.route(msg);
        if let Some(nix) = net.nodes[to.index()].neighbor_index(from) {
            let stale = &mut self.sessions[to.index()][nix].stale;
            if let Ok(pos) = stale.binary_search(&msg.prefix()) {
                stale.remove(pos);
            }
        }
        msg
    }

    /// A session-management message arrives at `to`: serialize, parse, and
    /// feed the *parsed* form to the FSM (lost if the wire is down).
    pub(crate) fn session_msg(
        &mut self,
        net: &mut Routing,
        now: SimTime,
        to: NodeId,
        from: NodeId,
        payload: SessionPayload,
        out: &mut Emitted,
    ) {
        if !self.wire_ok(net, to, from) {
            return;
        }
        net.stats.session_msgs += 1;
        let payload = self.wire.session(payload, from.index() as u32);
        self.drive(net, now, to, from, FsmInput::Recv(payload), out);
    }

    /// A [`BgpEvent::SessionTimer`] fired: generation-check, then dispatch.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn timer(
        &mut self,
        net: &mut Routing,
        now: SimTime,
        node: NodeId,
        neighbor: NodeId,
        kind: SessionTimerKind,
        gen: u32,
        out: &mut Emitted,
    ) {
        let idx = node.index();
        let Some(nix) = net.nodes[idx].neighbor_index(neighbor) else {
            return;
        };
        let session = &mut self.sessions[idx][nix];
        if session.gens[kind_ix(kind)] != gen {
            return;
        }
        let input = match kind {
            SessionTimerKind::ConnectRetry => {
                // A retry firing from our own side implies the local
                // process is reachable again (graceful-restart completion
                // clears the block).
                session.blocked = false;
                if session.fsm.state() == PeerState::Idle {
                    FsmInput::Start
                } else {
                    FsmInput::Timer(TimerKind::ConnectRetry)
                }
            }
            SessionTimerKind::Hold => FsmInput::Timer(TimerKind::Hold),
            SessionTimerKind::Keepalive => FsmInput::Timer(TimerKind::Keepalive),
            SessionTimerKind::StaleSweep => {
                // The graceful-restart window closed: purge whatever the
                // restarted peer never re-advertised.
                let stale = std::mem::take(&mut session.stale);
                let (n, timing, rng) = net.node_mut(node);
                let changed = n.purge_stale_from(now, neighbor, &stale, timing, rng, out);
                net.best_changed(now, node, changed);
                return;
            }
        };
        self.drive(net, now, node, neighbor, input, out);
    }

    /// Physical cut: both directions go administratively down, and each
    /// endpoint whose session was Established discovers the loss when its
    /// (now explicitly armed) hold timer expires.
    pub(crate) fn fail_link(&mut self, net: &mut Routing, a: NodeId, b: NodeId, out: &mut Emitted) {
        for (x, y) in [(a, b), (b, a)] {
            let Some(nix) = net.nodes[x.index()].neighbor_index(y) else {
                continue;
            };
            self.sessions[x.index()][nix].admin_up = false;
            if net.nodes[x.index()].fail_session(y) {
                self.arm_hold(x, y, nix, out);
            }
        }
    }

    /// Link restoration. If both FSMs are still Established (the outage fit
    /// inside the hold window) the sessions never noticed: cancel the hold
    /// timers and restore. Otherwise each torn-down side restarts its
    /// handshake; an endpoint still Established sees the fresh OPEN and
    /// replaces its session.
    pub(crate) fn restore_link(
        &mut self,
        net: &mut Routing,
        now: SimTime,
        a: NodeId,
        b: NodeId,
        out: &mut Emitted,
    ) {
        let (Some(ab), Some(ba)) = (
            net.nodes[a.index()].neighbor_index(b),
            net.nodes[b.index()].neighbor_index(a),
        ) else {
            return;
        };
        self.sessions[a.index()][ab].admin_up = true;
        self.sessions[b.index()][ba].admin_up = true;
        let both_established = self.sessions[a.index()][ab].fsm.is_established()
            && self.sessions[b.index()][ba].fsm.is_established();
        if both_established {
            self.cancel(a.index(), ab, SessionTimerKind::Hold);
            self.cancel(b.index(), ba, SessionTimerKind::Hold);
            net.restore_pair(now, a, b, out);
        } else {
            for (x, y, nix) in [(a, b, ab), (b, a, ba)] {
                if !self.sessions[x.index()][nix].fsm.is_established() {
                    self.drive(net, now, x, y, FsmInput::Start, out);
                }
            }
        }
    }

    /// The message-level arm of [`BgpSim::notify_reset`](crate::BgpSim::notify_reset).
    pub(crate) fn notify_reset(
        &mut self,
        net: &mut Routing,
        now: SimTime,
        a: NodeId,
        b: NodeId,
        code: u8,
        out: &mut Emitted,
    ) {
        let stop = FsmInput::Stop {
            notify: Some((code, 0)),
        };
        self.drive(net, now, a, b, stop, out);
        if let Some(nix) = net.nodes[a.index()].neighbor_index(b) {
            self.schedule_retry(net, a, b, nix, SimDuration::ZERO, out);
        }
    }

    /// The message-level arm of [`BgpSim::half_open`](crate::BgpSim::half_open).
    pub(crate) fn half_open(
        &mut self,
        net: &mut Routing,
        now: SimTime,
        site: NodeId,
        peer: NodeId,
        out: &mut Emitted,
    ) {
        self.drive(net, now, peer, site, FsmInput::Stop { notify: None }, out);
        if let Some(nix) = net.nodes[site.index()].neighbor_index(peer) {
            self.arm_hold(site, peer, nix, out);
        }
    }

    /// The message-level arm of
    /// [`BgpSim::graceful_restart`](crate::BgpSim::graceful_restart).
    pub(crate) fn graceful_restart(
        &mut self,
        net: &mut Routing,
        now: SimTime,
        node: NodeId,
        restart: SimDuration,
        out: &mut Emitted,
    ) {
        let idx = node.index();
        for nix in 0..self.sessions[idx].len() {
            let peer = net.nodes[idx].neighbors()[nix].peer;
            // The restarting process forgets its session state without
            // touching the FIB; its TCP is unreachable until restart
            // completes. (The node's own RIB is preserved, as if
            // checkpointed — the model captures the peer-side retention
            // and the control-plane outage window.)
            let session = &mut self.sessions[idx][nix];
            session.fsm = PeerFsm::new(session.fsm.config());
            session.blocked = true;
            session.stale.clear();
            session.gens = session.gens.map(|g| g + 1);
            net.nodes[idx].fail_session_control(peer);
            // The peer detects the restart (GR negotiated ⇒ retain).
            self.drive(net, now, peer, node, FsmInput::PeerRestart, out);
            // Restart completes after `restart`, then reconnect.
            self.schedule_retry(net, node, peer, nix, restart, out);
        }
    }

    /// Bumps the generation for `(node, nix, kind)` and schedules the one
    /// live timer of that kind `delay` from now.
    fn arm_timer(
        &mut self,
        node: NodeId,
        peer: NodeId,
        nix: usize,
        kind: SessionTimerKind,
        delay: SimDuration,
        out: &mut Emitted,
    ) {
        let gen = &mut self.sessions[node.index()][nix].gens[kind_ix(kind)];
        *gen += 1;
        let ev = BgpEvent::SessionTimer {
            node,
            neighbor: peer,
            kind,
            gen: *gen,
        };
        out.push((delay, ev));
    }

    /// Invalidates any armed timer of `kind` without scheduling a new one.
    fn cancel(&mut self, node: usize, nix: usize, kind: SessionTimerKind) {
        self.sessions[node][nix].gens[kind_ix(kind)] += 1;
    }

    /// Arms `node`'s hold timer on an Established session to `peer`: the
    /// silent-loss paths, where only hold expiry notices.
    fn arm_hold(&mut self, node: NodeId, peer: NodeId, nix: usize, out: &mut Emitted) {
        let fsm = &self.sessions[node.index()][nix].fsm;
        if fsm.is_established() {
            let hold = fsm.hold_time();
            self.arm_timer(node, peer, nix, SessionTimerKind::Hold, hold, out);
        }
    }

    /// Can a message (or TCP connect) cross the wire between `a` and `b`?
    fn wire_ok(&self, net: &Routing, a: NodeId, b: NodeId) -> bool {
        let (Some(ab), Some(ba)) = (
            net.nodes[a.index()].neighbor_index(b),
            net.nodes[b.index()].neighbor_index(a),
        ) else {
            return false;
        };
        let sa = &self.sessions[a.index()][ab];
        let sb = &self.sessions[b.index()][ba];
        sa.admin_up && sb.admin_up && !sa.blocked && !sb.blocked
    }

    /// Schedules a jittered connect-retry for `node`'s session to `peer`,
    /// `extra` from now. The jitter draws from the node's processing-delay
    /// stream, so it is deterministic given the seed and event order.
    fn schedule_retry(
        &mut self,
        net: &mut Routing,
        node: NodeId,
        peer: NodeId,
        nix: usize,
        extra: SimDuration,
        out: &mut Emitted,
    ) {
        let jit: f64 = net.proc_rngs[node.index()].gen_range(0.5..1.5) * CONNECT_RETRY_S;
        let delay = SimDuration::from_secs_f64(extra.as_secs_f64() + jit);
        self.arm_timer(node, peer, nix, SessionTimerKind::ConnectRetry, delay, out);
    }

    /// Feeds one input to the FSM for `node`'s session to `peer` and
    /// performs the required effects. TCP connects resolve instantly
    /// ([`Self::wire_ok`]); timer requests follow the integration policy
    /// documented in DESIGN.md §9 (steady-state liveness timers elided so
    /// `run_to_idle` terminates; fault paths arm them explicitly).
    fn drive(
        &mut self,
        net: &mut Routing,
        now: SimTime,
        node: NodeId,
        peer: NodeId,
        input: FsmInput,
        out: &mut Emitted,
    ) {
        let idx = node.index();
        let Some(nix) = net.nodes[idx].neighbor_index(peer) else {
            return;
        };
        let mut fx = self.fx_pool.pop().unwrap_or_default();
        self.sessions[idx][nix].fsm.step(input, &mut fx);
        // Honor Arm(Keepalive) only on OpenConfirm entry (an OPEN just
        // arrived): one bounded shot, never re-armed from its own firing —
        // a wedged handshake must not tick forever.
        let ka_entry = matches!(input, FsmInput::Recv(SessionPayload::Open { .. }));
        for o in fx.drain(..) {
            match o {
                FsmOutput::Send(payload) => {
                    let delay = net.nodes[idx].neighbors()[nix].delay;
                    let ev = BgpEvent::SessionMsg {
                        to: peer,
                        from: node,
                        payload,
                    };
                    out.push((delay, ev));
                }
                FsmOutput::AttemptConnect => {
                    let tcp = if self.wire_ok(net, node, peer) {
                        FsmInput::TcpUp
                    } else {
                        FsmInput::TcpFail
                    };
                    self.drive(net, now, node, peer, tcp, out);
                }
                // ConnectRetry and Hold are scheduled explicitly (with
                // jitter) by the fault injectors; steady-state requests are
                // elided — the wire is loss-free.
                FsmOutput::Arm(kind, d) => {
                    if kind == TimerKind::Keepalive && ka_entry {
                        self.arm_timer(node, peer, nix, SessionTimerKind::Keepalive, d, out);
                    }
                }
                FsmOutput::Up { .. } => {
                    self.cancel(idx, nix, SessionTimerKind::Hold);
                    self.cancel(idx, nix, SessionTimerKind::Keepalive);
                    net.restore(now, node, peer, out);
                }
                FsmOutput::Down { reason } => match reason {
                    DownReason::PeerRestarting { window_s } => {
                        // Graceful restart: keep forwarding AND keep the
                        // routes (marked stale) for the advertised window.
                        net.nodes[idx].fail_session_control(peer);
                        self.sessions[idx][nix].stale = net.nodes[idx].prefixes_from(peer);
                        let window = SimDuration::from_secs_f64(f64::from(window_s));
                        self.arm_timer(node, peer, nix, SessionTimerKind::StaleSweep, window, out);
                    }
                    DownReason::HoldExpired => {
                        net.teardown_purge(now, node, peer, out);
                        // Reconnect on our own initiative (the peer may be
                        // gone); parks in Active if the wire is still dead.
                        self.schedule_retry(net, node, peer, nix, SimDuration::ZERO, out);
                    }
                    DownReason::NotificationReceived { .. } | DownReason::Stopped => {
                        // Injector-driven teardown: purge now; whether and
                        // when to reconnect is the injector's decision
                        // (receivers of a NOTIFICATION listen passively).
                        net.teardown_purge(now, node, peer, out);
                    }
                },
            }
        }
        self.fx_pool.push(fx);
    }
}
