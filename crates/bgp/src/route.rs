//! Route attributes, wire messages, and simulator events.

use bobw_event::{SimDuration, SimTime};
use bobw_net::{AsPath, NodeId, Prefix};
use bobw_session::SessionPayload;
use serde::{Deserialize, Serialize};

/// What actually travels between ASes for one prefix: the path-vector
/// attributes. LOCAL_PREF is *not* here — it is assigned by the receiver's
/// import policy, like on the real Internet.
///
/// `origin` is simulator metadata identifying the originating node (a CDN
/// site or a standalone origin). Real BGP does not carry it, but CDNs
/// recover the same information from communities or from which prefix was
/// used; the simulator uses it for catchment accounting only, never in the
/// decision process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireRoute {
    pub path: AsPath,
    pub med: u32,
    pub origin: NodeId,
    /// The well-known NO_EXPORT community: the receiving AS may use the
    /// route but must not re-advertise it to its own neighbors. The
    /// practical mechanism behind §4's "only announce the prepended route
    /// to neighbors that also connect to the site" — scoped backup routes
    /// without per-neighbor export lists.
    pub no_export: bool,
}

/// A route as held in a node's Adj-RIB-In / Loc-RIB: wire attributes plus
/// the import-policy-assigned LOCAL_PREF.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteAttrs {
    pub path: AsPath,
    pub local_pref: u32,
    pub med: u32,
    pub origin: NodeId,
    /// Carried NO_EXPORT community (see [`WireRoute::no_export`]).
    pub no_export: bool,
}

impl RouteAttrs {
    /// Re-wraps Loc-RIB attributes as wire attributes for export.
    pub fn to_wire(&self) -> WireRoute {
        WireRoute {
            path: self.path,
            med: self.med,
            origin: self.origin,
            no_export: self.no_export,
        }
    }
}

/// A BGP message for a single prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Message {
    Update { prefix: Prefix, route: WireRoute },
    Withdraw { prefix: Prefix },
}

impl Message {
    pub fn prefix(&self) -> Prefix {
        match self {
            Message::Update { prefix, .. } | Message::Withdraw { prefix } => *prefix,
        }
    }
}

/// Where a node forwards packets for a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NextHop {
    /// The node itself originates the prefix (packets terminate here — at a
    /// CDN site, that means "served").
    Local,
    /// Forward to this neighbor.
    Via(NodeId),
}

/// The route a node currently uses for a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Selected {
    /// The neighbor the route was learned from; `None` = self-originated.
    pub from: Option<NodeId>,
    pub attrs: RouteAttrs,
}

impl Selected {
    pub fn next_hop(&self) -> NextHop {
        match self.from {
            Some(n) => NextHop::Via(n),
            None => NextHop::Local,
        }
    }
}

/// One entry in the simulator's route-change history: node `node`'s best
/// route for `prefix` changed to `new` (None = lost all routes) at `time`.
///
/// This stream is what the RIS/RouteViews-style collectors in
/// `bobw-measure` consume: a real collector peer exports its best-route
/// changes to the collector, so filtering this log to the peer's node id
/// reproduces the collector's update feed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteChange {
    pub time: SimTime,
    pub node: NodeId,
    pub prefix: Prefix,
    pub new: Option<Selected>,
}

impl RouteChange {
    /// Is this change a withdrawal (peer lost its route entirely)?
    pub fn is_withdrawal(&self) -> bool {
        self.new.is_none()
    }
}

/// Events driving the BGP simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BgpEvent {
    /// A message arrives at `to` from neighbor `from`.
    Deliver {
        to: NodeId,
        from: NodeId,
        msg: Message,
    },
    /// A pending per-(node, neighbor, prefix) send timer fires. `gen` guards
    /// against stale timers: if the pending entry has been superseded the
    /// event is a no-op.
    Fire {
        node: NodeId,
        neighbor: NodeId,
        prefix: Prefix,
        gen: u64,
    },
    /// A dampened route's penalty has decayed to the reuse threshold:
    /// re-run the decision at `node` for `prefix` so the suppressed
    /// candidate from `neighbor` becomes eligible again.
    DampingReuse {
        node: NodeId,
        neighbor: NodeId,
        prefix: Prefix,
    },
    /// `node`'s BGP hold timer for the session to `neighbor` expires: the
    /// session is torn down and every route learned from the neighbor is
    /// purged (triggering withdrawals/exploration). Scheduled when a link
    /// fails silently; a no-op if the session came back up in the meantime,
    /// or if `gen` is stale: the session went down again since, and that
    /// later outage armed its own timer.
    HoldExpire {
        node: NodeId,
        neighbor: NodeId,
        gen: u32,
    },
    /// Message-level model only: a session-management message
    /// (OPEN/KEEPALIVE/NOTIFICATION) arrives at `to` from `from`. Route
    /// UPDATEs keep travelling as [`BgpEvent::Deliver`]; both kinds pass
    /// through the wire codec when the session layer is enabled.
    SessionMsg {
        to: NodeId,
        from: NodeId,
        payload: SessionPayload,
    },
    /// Message-level model only: a session timer for `node`'s session to
    /// `neighbor` fires. `gen` guards staleness — the session layer bumps
    /// the per-kind generation to cancel an armed timer, and a firing with
    /// a stale generation is a no-op.
    SessionTimer {
        node: NodeId,
        neighbor: NodeId,
        kind: SessionTimerKind,
        gen: u32,
    },
}

/// Follow-up events a simulator step emits, each with its delay from now.
pub type Emitted = Vec<(SimDuration, BgpEvent)>;

/// Which timer a [`BgpEvent::SessionTimer`] represents: the three RFC 4271
/// session timers plus the graceful-restart stale sweep (an integration-
/// level deadline, not an FSM timer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionTimerKind {
    ConnectRetry,
    Hold,
    Keepalive,
    StaleSweep,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_net::Asn;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn message_prefix_accessor() {
        let w = WireRoute {
            path: AsPath::originate(Asn(1), 0),
            med: 0,
            origin: NodeId(0),
            no_export: false,
        };
        let u = Message::Update {
            prefix: p("10.0.0.0/8"),
            route: w,
        };
        assert_eq!(u.prefix(), p("10.0.0.0/8"));
        let wd = Message::Withdraw {
            prefix: p("10.0.0.0/8"),
        };
        assert_eq!(wd.prefix(), p("10.0.0.0/8"));
    }

    #[test]
    fn selected_next_hop() {
        let attrs = RouteAttrs {
            path: AsPath::empty(),
            local_pref: u32::MAX,
            med: 0,
            origin: NodeId(3),
            no_export: false,
        };
        let self_route = Selected { from: None, attrs };
        assert_eq!(self_route.next_hop(), NextHop::Local);
        let learned = Selected {
            from: Some(NodeId(9)),
            attrs,
        };
        assert_eq!(learned.next_hop(), NextHop::Via(NodeId(9)));
    }

    #[test]
    fn wire_round_trip_preserves_attrs() {
        let attrs = RouteAttrs {
            path: AsPath::originate(Asn(5), 2),
            local_pref: 300,
            med: 7,
            origin: NodeId(1),
            no_export: true,
        };
        let wire = attrs.to_wire();
        assert_eq!(wire.path, attrs.path);
        assert_eq!(wire.med, attrs.med);
        assert_eq!(wire.origin, attrs.origin);
        assert!(wire.no_export);
    }

    #[test]
    fn event_size_is_pinned() {
        // Every queued event pays this size; the hold-timer generation fits
        // in the padding of the largest variant.
        assert_eq!(std::mem::size_of::<BgpEvent>(), 40);
    }

    #[test]
    fn route_change_withdrawal_flag() {
        let rc = RouteChange {
            time: SimTime::ZERO,
            node: NodeId(0),
            prefix: p("10.0.0.0/8"),
            new: None,
        };
        assert!(rc.is_withdrawal());
    }
}
