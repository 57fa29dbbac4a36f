//! Per-node BGP state machine: Adj-RIB-In, decision process, FIB, and the
//! per-neighbor send machinery (MRAI + processing-delay pacing).
//!
//! A node is one AS (or one CDN site). It holds every route each neighbor
//! has advertised (the Adj-RIB-In); path exploration then needs no special
//! code: when the best route is withdrawn, the decision process simply
//! falls back to the next-best *stale* entry and re-advertises it, and that
//! ghost dies only when its supplier sends its own withdrawal — the exact
//! dynamics behind the paper's Figure 3 convergence tail.
//!
//! # Memory layout
//!
//! Everything on the per-message hot path is integer-indexed. The RIB is a
//! [`FlatRib`]: prefixes intern to dense ids, candidates live in a slice
//! sorted by neighbor index, the Loc-RIB is a parallel slot. The send
//! machinery (`last_announce` / `last_sent` / the pending message and its
//! generation) is one flat table per node, slot `pidx × neighbors + idx`:
//! one allocation per node instead of one per session, grown a prefix row
//! at a time, and a session's teardown, expiry or restore touches only its
//! column. A slot is 56 bytes in a release build: `last_announce` is plain
//! nanoseconds with a "never" sentinel and a pending generation of 0 means
//! "nothing pending", so neither needs an `Option` tag. Receiving one
//! update and re-exporting it to a neighbor does zero hash lookups. The
//! only maps left key *rare* state: flap damping (off by default) and
//! origination.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

use bobw_event::{SimDuration, SimTime};
use bobw_net::{AsPath, Asn, FlatPrefixMap, NodeId, Prefix};
use bobw_topology::Rel;
use rand::rngs::SmallRng;

use crate::damping::DampState;
use crate::policy::{import_local_pref, may_export, OriginConfig};
use crate::rib::{cmp_selected, FlatRib, TieKey, SELF_TIE_KEY};
use crate::route::{BgpEvent, Emitted, Message, NextHop, RouteAttrs, Selected, WireRoute};
use crate::timing::BgpTimingConfig;

/// Per-⟨prefix, neighbor⟩ send state: one cell of a node's [`SendTable`].
#[derive(Debug, Clone, Copy)]
struct SendSlot {
    /// Last time (ns) an *announcement* for the prefix was put on the wire;
    /// [`NEVER`] if none has been since the session (re)started.
    last_announce: u64,
    /// Generation of the coalesced message awaiting its send timer, which
    /// guards against superseded `Fire` events; 0 means nothing is pending
    /// (generations start at 1).
    pending_gen: u64,
    /// What this neighbor currently believes we advertised (`None` =
    /// withdrawn or never announced).
    last_sent: Option<WireRoute>,
    /// The pending message when `pending_gen != 0`: `Some` = update,
    /// `None` = withdraw.
    pending_msg: Option<WireRoute>,
}

/// `last_announce` of a slot that has never announced.
const NEVER: u64 = u64::MAX;

impl SendSlot {
    const EMPTY: SendSlot = SendSlot {
        last_announce: NEVER,
        pending_gen: 0,
        last_sent: None,
        pending_msg: None,
    };

    fn is_pending(&self) -> bool {
        self.pending_gen != 0
    }

    fn cancel(&mut self) {
        self.pending_gen = 0;
        self.pending_msg = None;
    }
}

/// A node's send state for every ⟨prefix, neighbor⟩ pair in one flat
/// allocation, row-major by prefix id: slot `pidx × neighbors + idx`.
/// Rows are added one prefix at a time as exports first touch a prefix.
#[derive(Debug)]
struct SendTable {
    /// Slots per row: the node's neighbor count.
    neighbors: usize,
    slots: Vec<SendSlot>,
}

impl SendTable {
    fn new(neighbors: usize) -> SendTable {
        SendTable {
            neighbors,
            slots: Vec::new(),
        }
    }

    /// The slot of neighbor `idx` for prefix id `pidx`, adding default rows
    /// up to `pidx` first.
    fn slot_mut(&mut self, pidx: usize, idx: usize) -> &mut SendSlot {
        let need = (pidx + 1) * self.neighbors;
        if self.slots.len() < need {
            self.slots.reserve_exact(need - self.slots.len());
            self.slots.resize(need, SendSlot::EMPTY);
        }
        &mut self.slots[pidx * self.neighbors + idx]
    }

    /// The slot, if its row exists.
    fn get_mut(&mut self, pidx: usize, idx: usize) -> Option<&mut SendSlot> {
        self.slots.get_mut(pidx * self.neighbors + idx)
    }

    /// Neighbor `idx`'s column: its slot in every row.
    fn column_mut(&mut self, idx: usize) -> impl Iterator<Item = &mut SendSlot> + '_ {
        self.slots.iter_mut().skip(idx).step_by(self.neighbors)
    }
}

/// Per-neighbor session state.
#[derive(Debug)]
pub struct NeighborState {
    pub peer: NodeId,
    pub peer_asn: Asn,
    pub rel: Rel,
    pub delay: SimDuration,
    /// This session's configured MRAI (sampled once at setup).
    pub session_mrai: SimDuration,
    /// Is the session (link) currently up? Set false by link-failure
    /// injection; routes from a down neighbor are purged when the hold
    /// timer expires.
    up: bool,
    /// Bumped on every up→down of `up` (see [`BgpNode::hold_gen`]).
    down_gen: u32,
    /// Does the data plane still forward over this adjacency? The abstract
    /// model keeps this locked to `up` (a dead session is a dead link).
    /// The message-level model splits them: graceful restart and half-open
    /// sessions lose the control plane while packets keep flowing.
    fwd_up: bool,
}

/// One AS-level BGP speaker.
pub struct BgpNode {
    pub id: NodeId,
    pub asn: Asn,
    neighbors: Vec<NeighborState>,
    /// MRAI and coalescing state per ⟨prefix, neighbor⟩.
    send: SendTable,
    /// `peer NodeId → neighbor index`, sorted by peer for binary search.
    nbr_lookup: Vec<(NodeId, u32)>,
    /// Adj-RIB-In + Loc-RIB (see [`FlatRib`]).
    rib: FlatRib,
    /// Flap-damping state per ⟨neighbor, prefix⟩ (only populated when
    /// damping is enabled in the timing config).
    damping: HashMap<(NodeId, Prefix), DampState>,
    fib: FlatPrefixMap<NextHop>,
    /// Bumped whenever the state the data plane reads at this node really
    /// changes: a FIB entry (any prefix) gets a different next hop or
    /// disappears, or an adjacency's `fwd_up` flips. Monotone, so a consumer
    /// that summed the versions of the nodes a walk read can tell from an
    /// equal sum that none of them moved.
    fwd_version: u64,
    originated: BTreeMap<Prefix, OriginConfig>,
    gen_counter: u64,
    /// Reusable buffer for session expiry/restore sweeps (collect affected
    /// prefixes, sort by prefix value, re-decide) — no per-sweep allocation.
    scratch: Vec<(Prefix, u32)>,
}

impl BgpNode {
    pub fn new(id: NodeId, asn: Asn, neighbors: Vec<NeighborState>) -> BgpNode {
        let mut nbr_lookup: Vec<(NodeId, u32)> = neighbors
            .iter()
            .enumerate()
            .map(|(i, n)| (n.peer, i as u32))
            .collect();
        nbr_lookup.sort_unstable();
        BgpNode {
            id,
            asn,
            send: SendTable::new(neighbors.len()),
            neighbors,
            nbr_lookup,
            rib: FlatRib::new(),
            damping: HashMap::new(),
            fib: FlatPrefixMap::new(),
            fwd_version: 0,
            originated: BTreeMap::new(),
            gen_counter: 0,
            scratch: Vec::new(),
        }
    }

    /// Builds the neighbor state for a session, MRAI pre-sampled.
    pub fn neighbor_state(
        peer: NodeId,
        peer_asn: Asn,
        rel: Rel,
        delay: SimDuration,
        session_mrai: SimDuration,
    ) -> NeighborState {
        NeighborState {
            peer,
            peer_asn,
            rel,
            delay,
            session_mrai,
            up: true,
            down_gen: 0,
            fwd_up: true,
        }
    }

    pub fn neighbors(&self) -> &[NeighborState] {
        &self.neighbors
    }

    /// The dense neighbor index for `peer`, if it is one of ours. The
    /// message-level session layer keys its per-session state by this
    /// index (parallel to [`BgpNode::neighbors`]).
    pub fn neighbor_index(&self, peer: NodeId) -> Option<usize> {
        self.nbr_pos(peer)
    }

    /// The neighbor index for `peer`, if it is one of ours.
    fn nbr_pos(&self, peer: NodeId) -> Option<usize> {
        self.nbr_lookup
            .binary_search_by_key(&peer, |&(p, _)| p)
            .ok()
            .map(|i| self.nbr_lookup[i].1 as usize)
    }

    /// The node's current best route for `prefix`.
    pub fn best(&self, prefix: &Prefix) -> Option<&Selected> {
        self.rib.best_at(self.rib.position(prefix)?)
    }

    /// All routes in the Adj-RIB-In for `prefix`, sorted by neighbor id
    /// (the order the historic `BTreeMap<NodeId, _>` storage iterated in).
    pub fn adj_in(&self, prefix: &Prefix) -> Vec<(NodeId, RouteAttrs)> {
        let Some(pidx) = self.rib.position(prefix) else {
            return Vec::new();
        };
        let mut v: Vec<(NodeId, RouteAttrs)> = self
            .rib
            .routes_at(pidx)
            .iter()
            .map(|&(n, a)| (self.neighbors[n as usize].peer, a))
            .collect();
        v.sort_unstable_by_key(|&(n, _)| n);
        v
    }

    /// Longest-prefix-match forwarding lookup.
    pub fn fib_lookup(&self, addr: u32) -> Option<(Prefix, NextHop)> {
        self.fib.lookup(addr).map(|(p, nh)| (p, *nh))
    }

    /// Version of this node's forwarding state (FIB entries and `fwd_up`
    /// flags): two reads returning the same value bracket a window in which
    /// every [`fib_lookup`](BgpNode::fib_lookup) and
    /// [`forwarding_is_up`](BgpNode::forwarding_is_up) answer here was
    /// stable.
    pub fn forwarding_version(&self) -> u64 {
        self.fwd_version
    }

    /// Does this node currently originate `prefix`?
    pub fn originates(&self, prefix: &Prefix) -> bool {
        self.originated.contains_key(prefix)
    }

    /// All prefixes this node currently originates, in prefix order.
    /// Used by the experiment harness to withdraw everything on site
    /// failure ("the site withdraws its prefix announcements", §4).
    pub fn originated_prefixes(&self) -> Vec<Prefix> {
        self.originated.keys().copied().collect()
    }

    /// Starts originating `prefix` under `cfg`. Returns whether the best
    /// route changed (it does unless the node already originated it
    /// identically).
    pub fn originate(
        &mut self,
        now: SimTime,
        prefix: Prefix,
        cfg: OriginConfig,
        timing: &BgpTimingConfig,
        rng: &mut SmallRng,
        out: &mut Emitted,
    ) -> bool {
        self.originated.insert(prefix, cfg);
        let pidx = self.rib.intern(prefix);
        // Re-running the decision also refreshes exports if only the origin
        // config (e.g. prepend count) changed while best stays "self".
        let changed = self.run_decision(now, prefix, pidx, timing, rng, out);
        if !changed {
            self.refresh_exports(now, prefix, pidx, timing, rng, out);
        }
        changed
    }

    /// Stops originating `prefix` (site failure / withdrawal). The decision
    /// process falls back to whatever the Adj-RIB-In still holds — which may
    /// be a ghost route about to be withdrawn; that is the point.
    pub fn withdraw_origin(
        &mut self,
        now: SimTime,
        prefix: Prefix,
        timing: &BgpTimingConfig,
        rng: &mut SmallRng,
        out: &mut Emitted,
    ) -> bool {
        if self.originated.remove(&prefix).is_none() {
            return false;
        }
        let pidx = self.rib.intern(prefix);
        self.run_decision(now, prefix, pidx, timing, rng, out)
    }

    /// Is the session to `neighbor` up?
    pub fn session_is_up(&self, neighbor: NodeId) -> bool {
        self.nbr_pos(neighbor)
            .map(|i| self.neighbors[i].up)
            .unwrap_or(false)
    }

    /// Marks the session to `neighbor` down (link failure). No routes are
    /// purged yet — that happens when the hold timer expires — but nothing
    /// further is sent on the session and arriving messages are dropped.
    /// Returns `true` only on a real up→down transition, so callers can
    /// avoid scheduling a duplicate hold timer when a link is failed twice
    /// (e.g. a `SilentCrash` following a drill on the same site).
    pub fn fail_session(&mut self, neighbor: NodeId) -> bool {
        if let Some(idx) = self.nbr_pos(neighbor) {
            let nbr = &mut self.neighbors[idx];
            if nbr.fwd_up {
                nbr.fwd_up = false;
                self.fwd_version += 1;
            }
        }
        self.fail_session_control(neighbor)
    }

    /// Control-plane-only teardown: the BGP session drops but packets keep
    /// forwarding over the adjacency. Used for graceful restart (forwarding
    /// preserved by design) and half-open sessions (the wire is fine, the
    /// session state is not). Same return contract as
    /// [`BgpNode::fail_session`].
    pub fn fail_session_control(&mut self, neighbor: NodeId) -> bool {
        if let Some(idx) = self.nbr_pos(neighbor) {
            let nbr = &mut self.neighbors[idx];
            if nbr.up {
                nbr.up = false;
                nbr.down_gen += 1;
                self.send.column_mut(idx).for_each(SendSlot::cancel);
                return true;
            }
        }
        false
    }

    /// Generation of the session to `neighbor`'s latest up→down transition
    /// (0 if it never went down). An abstract hold timer carries the value
    /// from when it was armed; a later outage makes it stale, so only the
    /// latest outage's timer purges.
    pub(crate) fn hold_gen(&self, neighbor: NodeId) -> u32 {
        self.nbr_pos(neighbor)
            .map_or(0, |i| self.neighbors[i].down_gen)
    }

    /// Does the data plane forward over the adjacency to `neighbor`?
    pub fn forwarding_is_up(&self, neighbor: NodeId) -> bool {
        self.nbr_pos(neighbor)
            .map(|i| self.neighbors[i].fwd_up)
            .unwrap_or(false)
    }

    /// Message-level bootstrap: every session starts administratively down
    /// (establishment will bring it up), with forwarding untouched. Called
    /// before anything is announced, so there is nothing to purge.
    pub fn quiesce_sessions(&mut self) {
        for nbr in &mut self.neighbors {
            nbr.up = false;
        }
    }

    /// The prefixes currently learned from `neighbor`, sorted. The
    /// graceful-restart machinery snapshots this as the stale set.
    pub fn prefixes_from(&self, neighbor: NodeId) -> Vec<Prefix> {
        let Some(idx) = self.nbr_pos(neighbor) else {
            return Vec::new();
        };
        let mut buf = Vec::new();
        self.rib.prefixes_from_into(idx as u32, &mut buf);
        let mut prefixes: Vec<Prefix> = buf.into_iter().map(|(p, _)| p).collect();
        prefixes.sort_unstable();
        prefixes
    }

    /// Graceful-restart stale sweep: the restart window closed and these
    /// prefixes were never re-advertised by `neighbor` — purge the leftover
    /// candidates and re-decide. Unlike [`BgpNode::expire_session`] this
    /// runs against a live (re-established) session and touches only the
    /// listed prefixes. Returns the prefixes whose best route changed.
    pub fn purge_stale_from(
        &mut self,
        now: SimTime,
        neighbor: NodeId,
        stale: &[Prefix],
        timing: &BgpTimingConfig,
        rng: &mut SmallRng,
        out: &mut Emitted,
    ) -> Vec<Prefix> {
        let Some(idx) = self.nbr_pos(neighbor) else {
            return Vec::new();
        };
        let mut changed = Vec::new();
        for &prefix in stale {
            let Some(pidx) = self.rib.position(&prefix) else {
                continue;
            };
            if !self.rib.remove_at(pidx, idx as u32) {
                continue; // already gone (withdrawn in the meantime)
            }
            if self.removal_keeps_best(pidx, neighbor) && timing.flap_damping.is_none() {
                continue;
            }
            if self.run_decision(now, prefix, pidx, timing, rng, out) {
                changed.push(prefix);
            }
        }
        changed
    }

    /// Hold timer expiry: if the session is still down, purge every route
    /// learned from `neighbor` and rerun the decision process for the
    /// affected prefixes. Returns the prefixes whose best route changed.
    pub fn expire_session(
        &mut self,
        now: SimTime,
        neighbor: NodeId,
        timing: &BgpTimingConfig,
        rng: &mut SmallRng,
        out: &mut Emitted,
    ) -> Vec<Prefix> {
        let idx = match self.nbr_pos(neighbor) {
            Some(idx) if !self.neighbors[idx].up => idx,
            _ => return Vec::new(), // session recovered or unknown: no-op
        };
        // Collect-then-sort into the reusable scratch buffer: the per-prefix
        // decision below draws timing jitter from `rng`, and iteration
        // order must not depend on storage order (prefix ids intern in
        // arrival order, which differs across techniques and runs).
        let mut affected = std::mem::take(&mut self.scratch);
        affected.clear();
        self.rib.prefixes_from_into(idx as u32, &mut affected);
        affected.sort_unstable();
        let incremental = timing.flap_damping.is_none();
        let mut changed = Vec::new();
        for &(prefix, pidx) in &affected {
            self.rib.remove_at(pidx as usize, idx as u32);
            if incremental && self.removal_keeps_best(pidx as usize, neighbor) {
                continue; // removed a non-best candidate: decision stands
            }
            if self.run_decision(now, prefix, pidx as usize, timing, rng, out) {
                changed.push(prefix);
            }
        }
        affected.clear();
        self.scratch = affected;
        // The peer also lost everything we ever sent it. (No pending sends
        // survive here: they were dropped at failure time and none queue
        // while the session is down.)
        self.reset_send_column(idx);
        changed
    }

    /// Brings the session to `neighbor` back up and re-exports the full
    /// table (BGP session establishment resends everything).
    pub fn restore_session(
        &mut self,
        now: SimTime,
        neighbor: NodeId,
        timing: &BgpTimingConfig,
        rng: &mut SmallRng,
        out: &mut Emitted,
    ) {
        let Some(idx) = self.nbr_pos(neighbor) else {
            return;
        };
        {
            let nbr = &mut self.neighbors[idx];
            if nbr.up {
                return;
            }
            nbr.up = true;
            if !nbr.fwd_up {
                nbr.fwd_up = true;
                self.fwd_version += 1;
            }
        }
        self.reset_send_column(idx);
        // Sorted by prefix value for the same reason as in
        // `expire_session`: each export draws MRAI jitter from `rng`.
        let mut prefixes = std::mem::take(&mut self.scratch);
        prefixes.clear();
        self.rib.prefixes_with_best_into(&mut prefixes);
        prefixes.sort_unstable();
        for &(prefix, pidx) in &prefixes {
            let desired = self.desired_export(prefix, pidx as usize, idx);
            self.queue_export(now, prefix, pidx as usize, idx, desired, timing, rng, out);
        }
        prefixes.clear();
        self.scratch = prefixes;
    }

    /// Forgets everything sent to neighbor `idx`: the session starts over.
    fn reset_send_column(&mut self, idx: usize) {
        self.send.column_mut(idx).for_each(|s| *s = SendSlot::EMPTY);
    }

    /// Processes one incoming message. Returns whether the best route for
    /// the message's prefix changed.
    pub fn receive(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: Message,
        timing: &BgpTimingConfig,
        rng: &mut SmallRng,
        out: &mut Emitted,
    ) -> bool {
        let prefix = msg.prefix();
        // A message arriving over a failed link is lost.
        let idx = match self.nbr_pos(from) {
            Some(idx) if self.neighbors[idx].up => idx,
            _ => return false,
        };
        // Flap damping: every received change to this neighbor's route
        // accrues penalty; suppression hides the candidate from the
        // decision until the penalty decays.
        if let Some(dcfg) = &timing.flap_damping {
            let state = self
                .damping
                .entry((from, prefix))
                .or_insert_with(|| DampState::new(now));
            let withdrawal = matches!(msg, Message::Withdraw { .. });
            let was_suppressed = state.is_suppressed(dcfg, now);
            let suppressed = state.flap(dcfg, now, withdrawal);
            if suppressed && !was_suppressed {
                // Schedule the reuse re-decision.
                let wait = state.time_to_reuse(dcfg, now) + SimDuration::from_millis(1);
                out.push((
                    wait,
                    BgpEvent::DampingReuse {
                        node: self.id,
                        neighbor: from,
                        prefix,
                    },
                ));
            }
        }
        let pidx = self.rib.intern(prefix);
        // With damping off, a single-candidate change has a closed-form
        // effect on the decision (see `incremental_update`), so the full
        // candidate scan runs only when the incumbent itself is touched.
        let incremental = timing.flap_damping.is_none();
        match msg {
            Message::Update { route, .. } => {
                if route.path.contains(self.asn) {
                    // Loop detection: discard, and drop any previous route
                    // from this neighbor (an update implicitly replaces it).
                    self.rib.remove_at(pidx, idx as u32);
                    if incremental && self.removal_keeps_best(pidx, from) {
                        return false;
                    }
                } else {
                    let rel = self.neighbors[idx].rel;
                    let attrs = RouteAttrs {
                        path: route.path,
                        local_pref: import_local_pref(rel),
                        med: route.med,
                        origin: route.origin,
                        no_export: route.no_export,
                    };
                    self.rib.insert_at(pidx, idx as u32, attrs);
                    if incremental {
                        if let Some(changed) =
                            self.incremental_update(now, prefix, pidx, idx, attrs, timing, rng, out)
                        {
                            return changed;
                        }
                    }
                }
            }
            Message::Withdraw { .. } => {
                self.rib.remove_at(pidx, idx as u32);
                if incremental && self.removal_keeps_best(pidx, from) {
                    return false;
                }
            }
        }
        self.run_decision(now, prefix, pidx, timing, rng, out)
    }

    /// A damping reuse timer fired: if the candidate's penalty has decayed
    /// below the reuse threshold, re-run the decision so it competes again;
    /// if it was re-penalized in the meantime, re-arm the timer. Returns
    /// whether the best route changed.
    pub fn damping_reuse(
        &mut self,
        now: SimTime,
        neighbor: NodeId,
        prefix: Prefix,
        timing: &BgpTimingConfig,
        rng: &mut SmallRng,
        out: &mut Emitted,
    ) -> bool {
        let Some(dcfg) = &timing.flap_damping else {
            return false;
        };
        let Some(state) = self.damping.get(&(neighbor, prefix)) else {
            return false;
        };
        if state.is_suppressed(dcfg, now) {
            let wait = state.time_to_reuse(dcfg, now) + SimDuration::from_millis(1);
            out.push((
                wait,
                BgpEvent::DampingReuse {
                    node: self.id,
                    neighbor,
                    prefix,
                },
            ));
            return false;
        }
        let pidx = self.rib.intern(prefix);
        self.run_decision(now, prefix, pidx, timing, rng, out)
    }

    /// A pending send timer fired; emit the coalesced message if it is
    /// still current.
    pub fn fire(
        &mut self,
        now: SimTime,
        neighbor: NodeId,
        prefix: Prefix,
        gen: u64,
        timing: &BgpTimingConfig,
        out: &mut Emitted,
    ) {
        let Some(idx) = self.nbr_pos(neighbor) else {
            return;
        };
        let Some(pidx) = self.rib.position(&prefix) else {
            return; // nothing was ever queued for an unknown prefix
        };
        let nbr = &self.neighbors[idx];
        if !nbr.up {
            return; // link died while the timer was pending
        }
        let Some(slot) = self.send.get_mut(pidx, idx) else {
            return;
        };
        if slot.pending_gen != gen {
            return; // superseded or cancelled
        }
        let pending = slot.pending_msg;
        slot.cancel();
        let msg = match pending {
            Some(w) => {
                slot.last_announce = now.as_nanos();
                slot.last_sent = Some(w);
                Message::Update { prefix, route: w }
            }
            None => {
                // Under per-peer update pacing (WRATE on) a withdrawal also
                // restarts the pacing clock for the session, like any update.
                if timing.withdrawal_rate_limiting {
                    slot.last_announce = now.as_nanos();
                }
                slot.last_sent = None;
                Message::Withdraw { prefix }
            }
        };
        out.push((
            nbr.delay,
            BgpEvent::Deliver {
                to: nbr.peer,
                from: self.id,
                msg,
            },
        ));
    }

    /// Re-runs the decision process for `prefix`; on change, updates the
    /// Loc-RIB and FIB and queues per-neighbor exports. Returns whether the
    /// best route changed.
    #[allow(clippy::too_many_arguments)]
    fn run_decision(
        &mut self,
        now: SimTime,
        prefix: Prefix,
        pidx: usize,
        timing: &BgpTimingConfig,
        rng: &mut SmallRng,
        out: &mut Emitted,
    ) -> bool {
        let new_best = self.compute_best(now, prefix, pidx, timing);
        if new_best.as_ref() == self.rib.best_at(pidx) {
            return false;
        }
        self.commit_best(now, prefix, pidx, new_best, timing, rng, out);
        true
    }

    /// Installs an already-decided best route: FIB, Loc-RIB, exports.
    #[allow(clippy::too_many_arguments)]
    fn commit_best(
        &mut self,
        now: SimTime,
        prefix: Prefix,
        pidx: usize,
        new_best: Option<Selected>,
        timing: &BgpTimingConfig,
        rng: &mut SmallRng,
        out: &mut Emitted,
    ) {
        let fib_changed = match &new_best {
            Some(sel) => {
                let next_hop = sel.next_hop();
                self.fib.insert(prefix, next_hop) != Some(next_hop)
            }
            None => self.fib.remove(&prefix).is_some(),
        };
        if fib_changed {
            self.fwd_version += 1;
        }
        self.rib.set_best_at(pidx, new_best);
        self.refresh_exports(now, prefix, pidx, timing, rng, out);
    }

    /// After removing the candidate from `from` at `pidx`: is the current
    /// best provably still the decision outcome? True when the incumbent
    /// was not supplied by `from` (removing a non-minimum element cannot
    /// change the minimum of a strict total order). Only valid with flap
    /// damping off — suppression states can flip with the mere passage of
    /// time, invalidating the stored decision.
    fn removal_keeps_best(&self, pidx: usize, from: NodeId) -> bool {
        match self.rib.best_at(pidx) {
            Some(best) => best.from != Some(from),
            None => true,
        }
    }

    /// Incremental decision after inserting `attrs` from neighbor `idx`:
    /// when the incumbent came from a *different* supplier, the new outcome
    /// is simply `min(incumbent, candidate)` under `cmp_selected`'s strict
    /// total order, so the full candidate scan can be skipped. Returns
    /// `None` when only a full recomputation is correct (no incumbent, or
    /// the incumbent's own supplier changed). Only valid with flap damping
    /// off (see [`Self::removal_keeps_best`]).
    #[allow(clippy::too_many_arguments)]
    fn incremental_update(
        &mut self,
        now: SimTime,
        prefix: Prefix,
        pidx: usize,
        idx: usize,
        attrs: RouteAttrs,
        timing: &BgpTimingConfig,
        rng: &mut SmallRng,
        out: &mut Emitted,
    ) -> Option<bool> {
        let peer = self.neighbors[idx].peer;
        let key: TieKey = (1, self.neighbors[idx].peer_asn, peer);
        let best = *self.rib.best_at(pidx)?;
        if best.from == Some(peer) {
            return None;
        }
        let cur_key: TieKey = match best.from {
            None => SELF_TIE_KEY,
            Some(s) => (1, self.neighbors[self.nbr_pos(s)?].peer_asn, s),
        };
        let cand = Selected {
            from: Some(peer),
            attrs,
        };
        if cmp_selected(&cand, key, &best, cur_key) == Ordering::Less {
            self.commit_best(now, prefix, pidx, Some(cand), timing, rng, out);
            Some(true)
        } else {
            Some(false)
        }
    }

    /// Recomputes the desired export of `prefix` toward every neighbor and
    /// queues any change through the send machinery.
    ///
    /// The common case — the best route was learned from a neighbor — has a
    /// receiver-independent export form (the prepended path is the same for
    /// everyone; only split horizon and Gao–Rexford gating vary), so the
    /// path composition and supplier-relation lookup are hoisted out of the
    /// per-neighbor loop rather than re-run by [`Self::desired_export`] for
    /// each receiver.
    fn refresh_exports(
        &mut self,
        now: SimTime,
        prefix: Prefix,
        pidx: usize,
        timing: &BgpTimingConfig,
        rng: &mut SmallRng,
        out: &mut Emitted,
    ) {
        // (supplier, supplier relation, wire form) for a learned best route
        // that is exportable at all; `None` falls back to the per-neighbor
        // path (origination, NO_EXPORT, or no best route).
        let learned: Option<(NodeId, Option<Rel>, WireRoute)> = match self.rib.best_at(pidx) {
            Some(best) => match best.from {
                Some(supplier) if !best.attrs.no_export => {
                    let supplier_rel = self.nbr_pos(supplier).map(|i| self.neighbors[i].rel);
                    Some((
                        supplier,
                        supplier_rel,
                        WireRoute {
                            path: best.attrs.path.prepended(self.asn, 1),
                            med: 0,
                            origin: best.attrs.origin,
                            no_export: false,
                        },
                    ))
                }
                _ => None,
            },
            None => None,
        };
        for idx in 0..self.neighbors.len() {
            let desired = match &learned {
                Some((supplier, supplier_rel, wire)) => {
                    let n = &self.neighbors[idx];
                    if !n.up
                        || n.peer == *supplier
                        || supplier_rel.is_none()
                        || !may_export(*supplier_rel, n.rel)
                    {
                        None
                    } else {
                        Some(*wire)
                    }
                }
                None => self.desired_export(prefix, pidx, idx),
            };
            self.queue_export(now, prefix, pidx, idx, desired, timing, rng, out);
        }
    }

    /// What should currently be advertised to neighbor `idx` for `prefix`?
    fn desired_export(&self, prefix: Prefix, pidx: usize, idx: usize) -> Option<WireRoute> {
        if !self.neighbors[idx].up {
            return None;
        }
        let best = self.rib.best_at(pidx)?;
        let to_rel = self.neighbors[idx].rel;
        match best.from {
            None => {
                let cfg = self
                    .originated
                    .get(&prefix)
                    .expect("self-originated best implies origin config");
                if !cfg.allows(self.neighbors[idx].peer) {
                    return None;
                }
                Some(WireRoute {
                    path: AsPath::originate(self.asn, cfg.prepend),
                    med: cfg.med,
                    origin: self.id,
                    no_export: cfg.no_export,
                })
            }
            Some(learned_from) => {
                // NO_EXPORT: use the route, advertise it to nobody.
                if best.attrs.no_export {
                    return None;
                }
                // Split horizon: echoing a route back to its supplier is
                // pointless (the supplier's loop detection discards it).
                if learned_from == self.neighbors[idx].peer {
                    return None;
                }
                let lf_rel = self.neighbors[self.nbr_pos(learned_from)?].rel;
                if !may_export(Some(lf_rel), to_rel) {
                    return None;
                }
                Some(WireRoute {
                    path: best.attrs.path.prepended(self.asn, 1),
                    med: 0,
                    origin: best.attrs.origin,
                    no_export: false,
                })
            }
        }
    }

    /// Coalesces `desired` into the per-neighbor pending slot and schedules
    /// a send timer honoring MRAI (announcements) or the withdrawal
    /// processing delay.
    #[allow(clippy::too_many_arguments)]
    fn queue_export(
        &mut self,
        now: SimTime,
        prefix: Prefix,
        pidx: usize,
        idx: usize,
        desired: Option<WireRoute>,
        timing: &BgpTimingConfig,
        rng: &mut SmallRng,
        out: &mut Emitted,
    ) {
        let node_id = self.id;
        self.gen_counter += 1;
        let gen = self.gen_counter;
        let nbr = &self.neighbors[idx];
        if !nbr.up {
            // Nothing can be sent on a failed session; pending state was
            // cleared at failure time.
            return;
        }
        let peer = nbr.peer;
        let session_mrai = nbr.session_mrai;
        let slot = self.send.slot_mut(pidx, idx);

        let effective: Option<&WireRoute> = if slot.is_pending() {
            slot.pending_msg.as_ref()
        } else {
            slot.last_sent.as_ref()
        };
        if desired.as_ref() == effective {
            return;
        }
        // Flapped back to what is already on the wire: cancel the pending
        // correction instead of sending a redundant message.
        if slot.is_pending() && desired.as_ref() == slot.last_sent.as_ref() {
            slot.cancel();
            return;
        }

        let rate_limited = desired.is_some() || timing.withdrawal_rate_limiting;
        let proc = if desired.is_some() {
            timing.announce_proc_delay(rng)
        } else {
            timing.withdraw_proc_delay(rng)
        };
        let mut fire_delay = proc;
        if rate_limited && slot.last_announce != NEVER {
            let mrai = timing.jittered_mrai(session_mrai, rng);
            let ready = SimTime::from_nanos(slot.last_announce) + mrai;
            if ready > now + proc {
                fire_delay = ready.since(now);
            }
        }
        slot.pending_gen = gen;
        slot.pending_msg = desired;
        out.push((
            fire_delay,
            BgpEvent::Fire {
                node: node_id,
                neighbor: peer,
                prefix,
                gen,
            },
        ));
    }

    fn compute_best(
        &self,
        now: SimTime,
        prefix: Prefix,
        pidx: usize,
        timing: &BgpTimingConfig,
    ) -> Option<Selected> {
        let mut best: Option<(Selected, TieKey)> = None;
        if self.originated.contains_key(&prefix) {
            best = Some((
                Selected {
                    from: None,
                    attrs: RouteAttrs {
                        path: AsPath::empty(),
                        local_pref: u32::MAX,
                        med: 0,
                        origin: self.id,
                        no_export: false,
                    },
                },
                SELF_TIE_KEY,
            ));
        }
        // Candidate iteration order (neighbor index) cannot influence the
        // outcome: `cmp_selected` is a strict total order over candidates
        // from distinct neighbors.
        for &(nbr, attrs) in self.rib.routes_at(pidx) {
            let n = &self.neighbors[nbr as usize];
            // Dampened candidates are invisible to the decision.
            if let Some(dcfg) = &timing.flap_damping {
                if let Some(state) = self.damping.get(&(n.peer, prefix)) {
                    if state.is_suppressed(dcfg, now) {
                        continue;
                    }
                }
            }
            let cand = Selected {
                from: Some(n.peer),
                attrs,
            };
            let key: TieKey = (1, n.peer_asn, n.peer);
            best = match best {
                None => Some((cand, key)),
                Some((cur, cur_key)) => {
                    if cmp_selected(&cand, key, &cur, cur_key) == Ordering::Less {
                        Some((cand, key))
                    } else {
                        Some((cur, cur_key))
                    }
                }
            };
        }
        best.map(|(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_event::RngFactory;

    fn wire(path: &[u32], origin: NodeId) -> WireRoute {
        WireRoute {
            path: AsPath::from_hops(&path.iter().map(|a| Asn(*a)).collect::<Vec<_>>()),
            med: 0,
            origin,
            no_export: false,
        }
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A node with three neighbors: n1 customer, n2 peer, n3 provider.
    fn test_node() -> BgpNode {
        let mk = |peer: u32, asn: u32, rel: Rel| {
            BgpNode::neighbor_state(
                NodeId(peer),
                Asn(asn),
                rel,
                SimDuration::from_millis(5),
                SimDuration::ZERO,
            )
        };
        BgpNode::new(
            NodeId(0),
            Asn(100),
            vec![
                mk(1, 101, Rel::Customer),
                mk(2, 102, Rel::Peer),
                mk(3, 103, Rel::Provider),
            ],
        )
    }

    fn ctx() -> (BgpTimingConfig, SmallRng) {
        (
            BgpTimingConfig::instant(),
            RngFactory::new(1).stream("test", 0),
        )
    }

    #[test]
    fn customer_route_beats_shorter_peer_route() {
        let mut n = test_node();
        let (t, mut rng) = ctx();
        let mut out = Vec::new();
        let pre = p("10.0.0.0/24");
        // Long customer path vs short peer path: customer wins (LOCAL_PREF).
        n.receive(
            SimTime::ZERO,
            NodeId(1),
            Message::Update {
                prefix: pre,
                route: wire(&[101, 55, 56, 57], NodeId(9)),
            },
            &t,
            &mut rng,
            &mut out,
        );
        n.receive(
            SimTime::ZERO,
            NodeId(2),
            Message::Update {
                prefix: pre,
                route: wire(&[102, 9], NodeId(9)),
            },
            &t,
            &mut rng,
            &mut out,
        );
        assert_eq!(n.best(&pre).unwrap().from, Some(NodeId(1)));
    }

    #[test]
    fn shorter_path_wins_at_equal_pref() {
        let mut n = test_node();
        let (t, mut rng) = ctx();
        let mut out = Vec::new();
        let pre = p("10.0.0.0/24");
        // Two peer-ish routes... use provider for both: n3 provider short,
        // then replace with customer comparisons. Simplest: two updates from
        // the same class need two neighbors of same rel; use peer n2 and
        // provider n3 -> peer wins regardless. Instead test length within
        // one neighbor by replacement:
        n.receive(
            SimTime::ZERO,
            NodeId(2),
            Message::Update {
                prefix: pre,
                route: wire(&[102, 8, 9], NodeId(9)),
            },
            &t,
            &mut rng,
            &mut out,
        );
        assert_eq!(n.best(&pre).unwrap().attrs.path.len(), 3);
        // Same neighbor advertises a shorter path: replaces, still best.
        n.receive(
            SimTime::ZERO,
            NodeId(2),
            Message::Update {
                prefix: pre,
                route: wire(&[102, 9], NodeId(9)),
            },
            &t,
            &mut rng,
            &mut out,
        );
        assert_eq!(n.best(&pre).unwrap().attrs.path.len(), 2);
    }

    #[test]
    fn prepended_path_loses_to_plain_at_same_pref() {
        // Two providers; one path is prepended. The plain one wins. This is
        // the mechanism proactive-prepending relies on for control.
        let mk = |peer: u32, asn: u32| {
            BgpNode::neighbor_state(
                NodeId(peer),
                Asn(asn),
                Rel::Provider,
                SimDuration::from_millis(5),
                SimDuration::ZERO,
            )
        };
        let mut n = BgpNode::new(NodeId(0), Asn(100), vec![mk(1, 101), mk(2, 102)]);
        let (t, mut rng) = ctx();
        let mut out = Vec::new();
        let pre = p("10.0.0.0/24");
        n.receive(
            SimTime::ZERO,
            NodeId(1),
            Message::Update {
                prefix: pre,
                route: wire(&[101, 47065, 47065, 47065, 47065], NodeId(8)),
            },
            &t,
            &mut rng,
            &mut out,
        );
        n.receive(
            SimTime::ZERO,
            NodeId(2),
            Message::Update {
                prefix: pre,
                route: wire(&[102, 47065], NodeId(9)),
            },
            &t,
            &mut rng,
            &mut out,
        );
        let best = n.best(&pre).unwrap();
        assert_eq!(best.from, Some(NodeId(2)));
        assert_eq!(best.attrs.origin, NodeId(9));
    }

    #[test]
    fn loop_detection_discards_and_replaces() {
        let mut n = test_node();
        let (t, mut rng) = ctx();
        let mut out = Vec::new();
        let pre = p("10.0.0.0/24");
        n.receive(
            SimTime::ZERO,
            NodeId(1),
            Message::Update {
                prefix: pre,
                route: wire(&[101, 9], NodeId(9)),
            },
            &t,
            &mut rng,
            &mut out,
        );
        assert!(n.best(&pre).is_some());
        // Same neighbor now advertises a path containing our ASN: the old
        // route must be dropped too (implicit replacement), leaving nothing.
        n.receive(
            SimTime::ZERO,
            NodeId(1),
            Message::Update {
                prefix: pre,
                route: wire(&[101, 100, 9], NodeId(9)),
            },
            &t,
            &mut rng,
            &mut out,
        );
        assert!(n.best(&pre).is_none());
    }

    #[test]
    fn withdrawal_falls_back_to_stale_alternative() {
        let mut n = test_node();
        let (t, mut rng) = ctx();
        let mut out = Vec::new();
        let pre = p("10.0.0.0/24");
        n.receive(
            SimTime::ZERO,
            NodeId(1),
            Message::Update {
                prefix: pre,
                route: wire(&[101, 9], NodeId(9)),
            },
            &t,
            &mut rng,
            &mut out,
        );
        n.receive(
            SimTime::ZERO,
            NodeId(3),
            Message::Update {
                prefix: pre,
                route: wire(&[103, 9], NodeId(9)),
            },
            &t,
            &mut rng,
            &mut out,
        );
        assert_eq!(n.best(&pre).unwrap().from, Some(NodeId(1)));
        // Withdraw the best: path exploration selects the (possibly stale)
        // provider route rather than dropping the prefix.
        n.receive(
            SimTime::ZERO,
            NodeId(1),
            Message::Withdraw { prefix: pre },
            &t,
            &mut rng,
            &mut out,
        );
        assert_eq!(n.best(&pre).unwrap().from, Some(NodeId(3)));
        n.receive(
            SimTime::ZERO,
            NodeId(3),
            Message::Withdraw { prefix: pre },
            &t,
            &mut rng,
            &mut out,
        );
        assert!(n.best(&pre).is_none());
        assert!(n.fib_lookup(pre.first_addr()).is_none());
    }

    #[test]
    fn origination_beats_everything_and_exports() {
        let mut n = test_node();
        let (t, mut rng) = ctx();
        let mut out = Vec::new();
        let pre = p("10.0.0.0/24");
        n.receive(
            SimTime::ZERO,
            NodeId(1),
            Message::Update {
                prefix: pre,
                route: wire(&[101, 9], NodeId(9)),
            },
            &t,
            &mut rng,
            &mut out,
        );
        out.clear();
        assert!(n.originate(
            SimTime::ZERO,
            pre,
            OriginConfig::plain(),
            &t,
            &mut rng,
            &mut out
        ));
        assert_eq!(n.best(&pre).unwrap().from, None);
        assert_eq!(n.fib_lookup(pre.addr_at(1)).unwrap().1, NextHop::Local);
        // Export queued to all three neighbors.
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn valley_free_export_blocks_peer_routes_upward() {
        let mut n = test_node();
        let (t, mut rng) = ctx();
        let mut out = Vec::new();
        let pre = p("10.0.0.0/24");
        // Route learned from peer n2: export only to customer n1.
        n.receive(
            SimTime::ZERO,
            NodeId(2),
            Message::Update {
                prefix: pre,
                route: wire(&[102, 9], NodeId(9)),
            },
            &t,
            &mut rng,
            &mut out,
        );
        // Fire all pending sends and inspect targets.
        let fires: Vec<BgpEvent> = out.drain(..).map(|(_, e)| e).collect();
        let mut deliver_targets = Vec::new();
        for ev in fires {
            if let BgpEvent::Fire {
                neighbor,
                prefix,
                gen,
                ..
            } = ev
            {
                let mut sent = Vec::new();
                n.fire(SimTime::ZERO, neighbor, prefix, gen, &t, &mut sent);
                for (_, e) in sent {
                    if let BgpEvent::Deliver { to, msg, .. } = e {
                        assert!(matches!(msg, Message::Update { .. }));
                        deliver_targets.push(to);
                    }
                }
            }
        }
        assert_eq!(deliver_targets, vec![NodeId(1)]);
    }

    #[test]
    fn selective_export_restricts_targets() {
        let mut n = test_node();
        let (t, mut rng) = ctx();
        let mut out = Vec::new();
        let pre = p("10.0.0.0/24");
        let cfg = OriginConfig::plain().only_to([NodeId(2)]);
        n.originate(SimTime::ZERO, pre, cfg, &t, &mut rng, &mut out);
        let mut deliver_targets = Vec::new();
        for (_, ev) in out.drain(..) {
            if let BgpEvent::Fire {
                neighbor,
                prefix,
                gen,
                ..
            } = ev
            {
                let mut sent = Vec::new();
                n.fire(SimTime::ZERO, neighbor, prefix, gen, &t, &mut sent);
                for (_, e) in sent {
                    if let BgpEvent::Deliver { to, .. } = e {
                        deliver_targets.push(to);
                    }
                }
            }
        }
        assert_eq!(deliver_targets, vec![NodeId(2)]);
    }

    #[test]
    fn prepend_config_lengthens_exported_path() {
        let mut n = test_node();
        let (t, mut rng) = ctx();
        let mut out = Vec::new();
        let pre = p("10.0.0.0/24");
        n.originate(
            SimTime::ZERO,
            pre,
            OriginConfig::prepended(3),
            &t,
            &mut rng,
            &mut out,
        );
        let mut paths = Vec::new();
        for (_, ev) in out.drain(..) {
            if let BgpEvent::Fire {
                neighbor,
                prefix,
                gen,
                ..
            } = ev
            {
                let mut sent = Vec::new();
                n.fire(SimTime::ZERO, neighbor, prefix, gen, &t, &mut sent);
                for (_, e) in sent {
                    if let BgpEvent::Deliver {
                        msg: Message::Update { route, .. },
                        ..
                    } = e
                    {
                        paths.push(route.path);
                    }
                }
            }
        }
        assert_eq!(paths.len(), 3);
        for path in paths {
            assert_eq!(path.len(), 4); // own ASN once + 3 prepends
            assert_eq!(path.distinct_len(), 1);
            assert_eq!(path.origin(), Some(Asn(100)));
        }
    }

    #[test]
    fn stale_fire_generation_is_noop() {
        let mut n = test_node();
        let (t, mut rng) = ctx();
        let mut out = Vec::new();
        let pre = p("10.0.0.0/24");
        n.originate(
            SimTime::ZERO,
            pre,
            OriginConfig::plain(),
            &t,
            &mut rng,
            &mut out,
        );
        let first_fires: Vec<BgpEvent> = out.drain(..).map(|(_, e)| e).collect();
        // Withdraw before timers fire: pending entries are replaced.
        n.withdraw_origin(SimTime::ZERO, pre, &t, &mut rng, &mut out);
        // Old generation Fire events must now produce nothing.
        for ev in first_fires {
            if let BgpEvent::Fire {
                neighbor,
                prefix,
                gen,
                ..
            } = ev
            {
                let mut sent = Vec::new();
                n.fire(SimTime::ZERO, neighbor, prefix, gen, &t, &mut sent);
                assert!(sent.is_empty(), "stale fire produced {sent:?}");
            }
        }
        // And the coalesced pending state is "nothing to send": the node
        // never announced, so withdraw+announce cancel to silence.
        let mut sent = Vec::new();
        for (_, ev) in out.drain(..) {
            if let BgpEvent::Fire {
                neighbor,
                prefix,
                gen,
                ..
            } = ev
            {
                n.fire(SimTime::ZERO, neighbor, prefix, gen, &t, &mut sent);
            }
        }
        assert!(
            sent.is_empty(),
            "announce+withdraw before any send must coalesce to nothing: {sent:?}"
        );
    }

    #[test]
    fn update_replaces_pending_update_coalesced() {
        let mut n = test_node();
        let (t, mut rng) = ctx();
        let mut out = Vec::new();
        let pre = p("10.0.0.0/24");
        n.originate(
            SimTime::ZERO,
            pre,
            OriginConfig::plain(),
            &t,
            &mut rng,
            &mut out,
        );
        n.originate(
            SimTime::ZERO,
            pre,
            OriginConfig::prepended(2),
            &t,
            &mut rng,
            &mut out,
        );
        // Fire everything; each neighbor must receive exactly ONE update,
        // the latest (prepended) one.
        let mut received: HashMap<NodeId, Vec<Message>> = HashMap::new();
        let events: Vec<BgpEvent> = out.drain(..).map(|(_, e)| e).collect();
        for ev in events {
            if let BgpEvent::Fire {
                neighbor,
                prefix,
                gen,
                ..
            } = ev
            {
                let mut sent = Vec::new();
                n.fire(SimTime::ZERO, neighbor, prefix, gen, &t, &mut sent);
                for (_, e) in sent {
                    if let BgpEvent::Deliver { to, msg, .. } = e {
                        received.entry(to).or_default().push(msg);
                    }
                }
            }
        }
        for (to, msgs) in received {
            assert_eq!(msgs.len(), 1, "neighbor {to} got {msgs:?}");
            match &msgs[0] {
                Message::Update { route, .. } => assert_eq!(route.path.len(), 3),
                other => panic!("expected update, got {other:?}"),
            }
        }
    }

    #[test]
    fn mrai_paces_second_announcement() {
        let mk = |peer: u32, asn: u32| {
            BgpNode::neighbor_state(
                NodeId(peer),
                Asn(asn),
                Rel::Customer,
                SimDuration::from_millis(5),
                SimDuration::from_secs(30),
            )
        };
        let mut n = BgpNode::new(NodeId(0), Asn(100), vec![mk(1, 101)]);
        let mut t = BgpTimingConfig::instant();
        t.mrai_min_s = 30.0;
        t.mrai_max_s = 30.0;
        let mut rng = RngFactory::new(1).stream("test", 0);
        let mut out = Vec::new();
        let pre = p("10.0.0.0/24");
        // First announcement: fires after the (tiny) proc delay.
        n.originate(
            SimTime::ZERO,
            pre,
            OriginConfig::plain(),
            &t,
            &mut rng,
            &mut out,
        );
        let (d1, ev1) = out.remove(0);
        assert!(d1 < SimDuration::from_secs(1));
        if let BgpEvent::Fire {
            neighbor,
            prefix,
            gen,
            ..
        } = ev1
        {
            n.fire(
                SimTime::ZERO + d1,
                neighbor,
                prefix,
                gen,
                &t,
                &mut Vec::new(),
            );
        }
        // Second announcement shortly after: must wait out the MRAI.
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        out.clear();
        n.originate(now, pre, OriginConfig::prepended(1), &t, &mut rng, &mut out);
        let (d2, _) = out[0];
        let fire_at = now + d2;
        // last announce ≈ d1; earliest allowed ≈ d1 + 0.75*30 = ~22.5s.
        assert!(
            fire_at >= SimTime::ZERO + SimDuration::from_secs_f64(22.0),
            "fired too early at {fire_at}"
        );
    }

    #[test]
    fn withdrawal_not_mrai_paced_by_default() {
        let mk = |peer: u32, asn: u32| {
            BgpNode::neighbor_state(
                NodeId(peer),
                Asn(asn),
                Rel::Customer,
                SimDuration::from_millis(5),
                SimDuration::from_secs(30),
            )
        };
        let mut n = BgpNode::new(NodeId(0), Asn(100), vec![mk(1, 101)]);
        let mut t = BgpTimingConfig::instant();
        t.mrai_min_s = 30.0;
        t.mrai_max_s = 30.0;
        let mut rng = RngFactory::new(1).stream("test", 0);
        let mut out = Vec::new();
        let pre = p("10.0.0.0/24");
        n.originate(
            SimTime::ZERO,
            pre,
            OriginConfig::plain(),
            &t,
            &mut rng,
            &mut out,
        );
        let (d1, ev1) = out.remove(0);
        if let BgpEvent::Fire {
            neighbor,
            prefix,
            gen,
            ..
        } = ev1
        {
            n.fire(
                SimTime::ZERO + d1,
                neighbor,
                prefix,
                gen,
                &t,
                &mut Vec::new(),
            );
        }
        out.clear();
        // Withdraw right after the announcement went out: not rate limited.
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        n.withdraw_origin(now, pre, &t, &mut rng, &mut out);
        let (d2, _) = out[0];
        assert!(d2 < SimDuration::from_secs(1), "withdraw delayed {d2}");
    }

    /// Feeds `n` an UPDATE for `prefix` from `from` with AS path `path`.
    fn learn(n: &mut BgpNode, from: u32, prefix: Prefix, path: &[u32]) -> bool {
        let (t, mut rng) = ctx();
        n.receive(
            SimTime::ZERO,
            NodeId(from),
            Message::Update {
                prefix,
                route: wire(path, NodeId(9)),
            },
            &t,
            &mut rng,
            &mut Vec::new(),
        )
    }

    #[test]
    fn forwarding_version_follows_the_fib_not_the_best_route() {
        let mut n = test_node();
        let pre = p("10.0.0.0/24");
        assert_eq!(n.forwarding_version(), 0);
        // First route: a FIB entry appears.
        assert!(learn(&mut n, 2, pre, &[102, 8, 9]));
        assert_eq!(n.forwarding_version(), 1);
        // The same neighbor advertises a shorter path: the best route
        // changes, the next hop does not.
        assert!(learn(&mut n, 2, pre, &[102, 9]));
        assert_eq!(
            n.fib_lookup(pre.addr_at(1)).unwrap().1,
            NextHop::Via(NodeId(2))
        );
        assert_eq!(n.forwarding_version(), 1);
        // A losing candidate changes nothing at all.
        assert!(!learn(&mut n, 3, pre, &[103, 9]));
        assert_eq!(n.forwarding_version(), 1);
        // A customer route displaces the peer route: new next hop.
        assert!(learn(&mut n, 1, pre, &[101, 7, 8, 9]));
        assert_eq!(n.forwarding_version(), 2);
        // Re-installing the identical best route through commit_best.
        let (t, mut rng) = ctx();
        let best = *n.best(&pre).unwrap();
        let pidx = n.rib.position(&pre).unwrap();
        n.commit_best(
            SimTime::ZERO,
            pre,
            pidx,
            Some(best),
            &t,
            &mut rng,
            &mut Vec::new(),
        );
        assert_eq!(n.forwarding_version(), 2);
        // The entry disappears: bump; removing nothing: no bump.
        n.commit_best(
            SimTime::ZERO,
            pre,
            pidx,
            None,
            &t,
            &mut rng,
            &mut Vec::new(),
        );
        assert_eq!(n.forwarding_version(), 3);
        n.commit_best(
            SimTime::ZERO,
            pre,
            pidx,
            None,
            &t,
            &mut rng,
            &mut Vec::new(),
        );
        assert_eq!(n.forwarding_version(), 3);
    }

    #[test]
    fn forwarding_version_follows_fwd_up_not_the_session_flag() {
        let mut n = test_node();
        let (t, mut rng) = ctx();
        let peer = NodeId(2);
        // Control-plane-only teardowns leave the data plane alone.
        assert!(n.fail_session_control(peer));
        assert!(n.forwarding_is_up(peer));
        n.quiesce_sessions();
        assert_eq!(n.forwarding_version(), 0);
        // A restore that only brings the session back: still nothing.
        n.restore_session(SimTime::ZERO, peer, &t, &mut rng, &mut Vec::new());
        assert_eq!(n.forwarding_version(), 0);
        // A data-plane failure bumps once, however often it is repeated...
        assert!(n.fail_session(peer));
        assert!(!n.fail_session(peer));
        assert!(!n.forwarding_is_up(peer));
        assert_eq!(n.forwarding_version(), 1);
        // ...and so does the restore that undoes it.
        n.restore_session(SimTime::ZERO, peer, &t, &mut rng, &mut Vec::new());
        assert!(n.forwarding_is_up(peer));
        assert_eq!(n.forwarding_version(), 2);
        n.restore_session(SimTime::ZERO, peer, &t, &mut rng, &mut Vec::new());
        assert_eq!(n.forwarding_version(), 2);
        // A control-plane teardown followed by a physical cut of the same
        // adjacency: the session flag is already down, `fwd_up` still flips.
        assert!(n.fail_session_control(peer));
        assert!(!n.fail_session(peer));
        assert_eq!(n.forwarding_version(), 3);
    }

    /// Makes `n` originate `prefix` plainly.
    fn originate(n: &mut BgpNode, prefix: Prefix, out: &mut Emitted) {
        let (t, mut rng) = ctx();
        n.originate(
            SimTime::ZERO,
            prefix,
            OriginConfig::plain(),
            &t,
            &mut rng,
            out,
        );
    }

    /// Every `Fire` in `out`, as (neighbor, prefix, gen).
    fn fires(out: &mut Emitted) -> Vec<(NodeId, Prefix, u64)> {
        out.drain(..)
            .filter_map(|(_, e)| match e {
                BgpEvent::Fire {
                    neighbor,
                    prefix,
                    gen,
                    ..
                } => Some((neighbor, prefix, gen)),
                _ => None,
            })
            .collect()
    }

    /// Fires every timer in `fires`; returns the delivered messages as
    /// (receiver, message).
    fn fire_all(n: &mut BgpNode, fires: &[(NodeId, Prefix, u64)]) -> Vec<(NodeId, Message)> {
        let (t, _) = ctx();
        let mut sent = Vec::new();
        for &(neighbor, prefix, gen) in fires {
            n.fire(SimTime::ZERO, neighbor, prefix, gen, &t, &mut sent);
        }
        sent.into_iter()
            .map(|(_, e)| match e {
                BgpEvent::Deliver { to, msg, .. } => (to, msg),
                other => panic!("fire emitted {other:?}"),
            })
            .collect()
    }

    #[test]
    fn fail_session_control_cancels_only_that_neighbors_column() {
        let mut n = test_node();
        let mut out = Vec::new();
        let (a, b) = (p("10.0.0.0/24"), p("10.0.1.0/24"));
        originate(&mut n, a, &mut out);
        originate(&mut n, b, &mut out);
        let armed = fires(&mut out);
        assert_eq!(armed.len(), 6, "two prefixes to three neighbors");
        let peer = NodeId(2);
        let col = n.nbr_pos(peer).unwrap();
        assert!(n.fail_session_control(peer));
        let nbrs = n.neighbors.len();
        for (i, slot) in n.send.slots.iter().enumerate() {
            assert_eq!(
                slot.is_pending(),
                i % nbrs != col,
                "slot {i}: only column {col} is cancelled"
            );
        }
        let sent = fire_all(&mut n, &armed);
        let mut to: Vec<NodeId> = sent.iter().map(|(to, _)| *to).collect();
        to.sort_unstable();
        assert_eq!(to, [NodeId(1), NodeId(1), NodeId(3), NodeId(3)]);
    }

    #[test]
    fn fire_armed_before_fail_expire_restore_is_a_noop() {
        let mut n = test_node();
        let (t, mut rng) = ctx();
        let mut out = Vec::new();
        let pre = p("10.0.0.0/24");
        let peer = NodeId(2);
        originate(&mut n, pre, &mut out);
        let armed: Vec<_> = fires(&mut out)
            .into_iter()
            .filter(|f| f.0 == peer)
            .collect();
        assert_eq!(armed.len(), 1);
        assert!(n.fail_session(peer));
        assert!(n
            .expire_session(SimTime::ZERO, peer, &t, &mut rng, &mut out)
            .is_empty());
        n.restore_session(SimTime::ZERO, peer, &t, &mut rng, &mut out);
        let rearmed = fires(&mut out);
        assert_eq!(rearmed.len(), 1, "restore re-exports the one route");
        assert!(
            fire_all(&mut n, &armed).is_empty(),
            "the old timer is stale"
        );
        let sent = fire_all(&mut n, &rearmed);
        assert_eq!(sent.len(), 1);
        assert!(matches!(sent[0], (to, Message::Update { .. }) if to == peer));
    }

    #[test]
    fn restore_reexports_each_best_route_exactly_once() {
        let mut n = test_node();
        let (t, mut rng) = ctx();
        let mut out = Vec::new();
        let (a, b, c) = (p("10.0.0.0/24"), p("10.0.1.0/24"), p("10.0.2.0/24"));
        originate(&mut n, a, &mut out);
        originate(&mut n, b, &mut out);
        n.receive(
            SimTime::ZERO,
            NodeId(1),
            Message::Update {
                prefix: c,
                route: wire(&[101, 9], NodeId(9)),
            },
            &t,
            &mut rng,
            &mut out,
        );
        let armed = fires(&mut out);
        fire_all(&mut n, &armed);
        let provider = NodeId(3);
        assert!(n.fail_session(provider));
        n.expire_session(SimTime::ZERO, provider, &t, &mut rng, &mut out);
        out.clear();
        n.restore_session(SimTime::ZERO, provider, &t, &mut rng, &mut out);
        let rearmed = fires(&mut out);
        let sent = fire_all(&mut n, &rearmed);
        let mut prefixes: Vec<Prefix> = sent
            .iter()
            .map(|(to, msg)| {
                assert_eq!(*to, provider);
                assert!(matches!(msg, Message::Update { .. }), "{msg:?}");
                msg.prefix()
            })
            .collect();
        prefixes.sort_unstable();
        assert_eq!(prefixes, [a, b, c], "one update per best route");
        // A second restore of a live session sends nothing more.
        n.restore_session(SimTime::ZERO, provider, &t, &mut rng, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn a_prefix_interned_after_the_table_exists_gets_a_fresh_row() {
        let mut n = test_node();
        let (t, mut rng) = ctx();
        let mut out = Vec::new();
        let (a, b) = (p("10.0.0.0/24"), p("10.0.1.0/24"));
        originate(&mut n, a, &mut out);
        let armed = fires(&mut out);
        fire_all(&mut n, &armed);
        let nbrs = n.neighbors.len();
        assert_eq!(n.send.slots.len(), nbrs, "one row");
        // A prefix learned later (a new RIB id) adds one default row; the
        // first row keeps what was sent.
        n.receive(
            SimTime::ZERO,
            NodeId(1),
            Message::Update {
                prefix: b,
                route: wire(&[101, 9], NodeId(9)),
            },
            &t,
            &mut rng,
            &mut out,
        );
        assert_eq!(n.send.slots.len(), 2 * nbrs, "two rows");
        let (row_a, row_b) = n.send.slots.split_at(nbrs);
        assert!(row_a
            .iter()
            .all(|s| s.last_sent.is_some() && !s.is_pending()));
        for (idx, slot) in row_b.iter().enumerate() {
            assert_eq!(slot.last_announce, NEVER, "column {idx}");
            assert!(slot.last_sent.is_none(), "column {idx}");
            // The supplier (column 0) is split-horizoned: still pristine.
            assert_eq!(slot.is_pending(), idx != 0, "column {idx}");
        }
    }
}
