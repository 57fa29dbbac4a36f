//! Per-target reconnection and failover metrics (§5.4.1).
//!
//! * **Reconnection time** — "the delay from our prefix withdrawal until we
//!   first receive a ping response from the target at any site": the lower
//!   bound on service restoration.
//! * **Failover time** — "the delay from our prefix withdrawal until the
//!   first ping response after which the target does not switch sites or
//!   experience disconnection again": the conservative upper bound.

use bobw_dataplane::{ProbeOutcome, ProbeRecord};
use bobw_event::{SimDuration, SimTime};
use bobw_topology::SiteId;
use serde::{Deserialize, Serialize};

/// The per-target analysis of one failover experiment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TargetOutcome {
    /// Delay until the first reply at any site. `None` = never reconnected
    /// within the probing window.
    pub reconnection: Option<SimDuration>,
    /// Delay until the first reply of the final stable run (no further
    /// site switches or losses). `None` = never stabilized.
    pub failover: Option<SimDuration>,
    /// Site serving the target at the end of the window.
    pub final_site: Option<SiteId>,
    /// Site switches observed after the first reconnection.
    pub bounces: u32,
    /// Lost probes observed after the first reconnection.
    pub losses_after_reconnect: u32,
}

impl TargetOutcome {
    /// Gap between failover and reconnection (the §5.4.1 bouncing window).
    pub fn gap(&self) -> Option<SimDuration> {
        match (self.reconnection, self.failover) {
            (Some(r), Some(f)) if f >= r => Some(f - r),
            _ => None,
        }
    }
}

/// Analyzes one target's probe records (in send order) against the failure
/// instant `t_fail`.
pub fn analyze_target(records: &[ProbeRecord], t_fail: SimTime) -> TargetOutcome {
    // Reconnection: earliest reply arrival.
    let mut reconnection: Option<SimDuration> = None;
    let mut first_recv_idx: Option<usize> = None;
    for (i, r) in records.iter().enumerate() {
        if let ProbeOutcome::Received { at, .. } = r.outcome {
            let d = at.checked_since(t_fail).unwrap_or(SimDuration::ZERO);
            if reconnection.is_none_or(|cur| d < cur) {
                reconnection = Some(d);
            }
            if first_recv_idx.is_none() {
                first_recv_idx = Some(i);
            }
        }
    }

    // Failover: the first index i such that records[i..] are all received at
    // one constant site. Scan backwards to find where the stable suffix
    // begins.
    let mut failover: Option<SimDuration> = None;
    let mut final_site: Option<SiteId> = None;
    if let Some(ProbeOutcome::Received {
        site: last_site, ..
    }) = records.last().map(|r| r.outcome)
    {
        final_site = Some(last_site);
        let mut start = records.len() - 1;
        for i in (0..records.len()).rev() {
            match records[i].outcome {
                ProbeOutcome::Received { site, .. } if site == last_site => start = i,
                _ => break,
            }
        }
        if let ProbeOutcome::Received { at, .. } = records[start].outcome {
            failover = Some(at.checked_since(t_fail).unwrap_or(SimDuration::ZERO));
        }
    }

    // Bounces and losses after the first reconnection.
    let mut bounces = 0u32;
    let mut losses = 0u32;
    if let Some(first) = first_recv_idx {
        let mut prev_site: Option<SiteId> = None;
        for r in &records[first..] {
            match r.outcome {
                ProbeOutcome::Received { site, .. } => {
                    if let Some(p) = prev_site {
                        if p != site {
                            bounces += 1;
                        }
                    }
                    prev_site = Some(site);
                }
                ProbeOutcome::Lost => losses += 1,
            }
        }
    }

    TargetOutcome {
        reconnection,
        failover,
        final_site,
        bounces,
        losses_after_reconnect: losses,
    }
}

/// [`analyze_target`] as a streaming fold: push one target's probe outcomes
/// in send order, and [`finish`](OutcomeFold::finish) returns what
/// `analyze_target` returns on the same stream — from O(1) state, so a run
/// keeps no per-probe log. (`analyze_target` stays as the reference the
/// property tests compare this against.)
#[derive(Debug, Clone, Default)]
pub struct OutcomeFold {
    /// Earliest reply arrival so far (reconnection).
    earliest: Option<SimTime>,
    /// The unbroken run of replies at one site the stream currently ends
    /// in, with the arrival of the run's first reply (failover, final site).
    run: Option<(SiteId, SimTime)>,
    /// Site of the latest reply, surviving losses (bounce detection; `Some`
    /// also means "a first reply has been seen").
    prev_site: Option<SiteId>,
    bounces: u32,
    losses_after_reconnect: u32,
}

impl OutcomeFold {
    pub fn push(&mut self, outcome: ProbeOutcome) {
        match outcome {
            ProbeOutcome::Received { site, at } => {
                if self.earliest.is_none_or(|cur| at < cur) {
                    self.earliest = Some(at);
                }
                if self.run.is_none_or(|(s, _)| s != site) {
                    self.run = Some((site, at));
                }
                if self.prev_site.is_some_and(|p| p != site) {
                    self.bounces += 1;
                }
                self.prev_site = Some(site);
            }
            ProbeOutcome::Lost => {
                self.run = None;
                if self.prev_site.is_some() {
                    self.losses_after_reconnect += 1;
                }
            }
        }
    }

    /// The outcome of the stream pushed so far against the failure instant
    /// `t_fail`.
    pub fn finish(&self, t_fail: SimTime) -> TargetOutcome {
        let since_fail = |at: SimTime| at.checked_since(t_fail).unwrap_or(SimDuration::ZERO);
        TargetOutcome {
            reconnection: self.earliest.map(since_fail),
            failover: self.run.map(|(_, at)| since_fail(at)),
            final_site: self.run.map(|(site, _)| site),
            bounces: self.bounces,
            losses_after_reconnect: self.losses_after_reconnect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recv(seq: u32, sent_s: u64, site: u8) -> ProbeRecord {
        ProbeRecord {
            seq,
            sent: SimTime::from_secs(sent_s),
            outcome: ProbeOutcome::Received {
                site: SiteId(site),
                // Replies arrive 1 s after sending in these fixtures.
                at: SimTime::from_secs(sent_s + 1),
            },
        }
    }

    fn lost(seq: u32, sent_s: u64) -> ProbeRecord {
        ProbeRecord {
            seq,
            sent: SimTime::from_secs(sent_s),
            outcome: ProbeOutcome::Lost,
        }
    }

    const T_FAIL: SimTime = SimTime::from_secs(100);

    #[test]
    fn clean_failover_single_site() {
        // Lost, lost, then stable at site 2.
        let records = vec![lost(0, 100), lost(1, 102), recv(2, 104, 2), recv(3, 106, 2)];
        let o = analyze_target(&records, T_FAIL);
        assert_eq!(o.reconnection, Some(SimDuration::from_secs(5)));
        assert_eq!(o.failover, Some(SimDuration::from_secs(5)));
        assert_eq!(o.final_site, Some(SiteId(2)));
        assert_eq!(o.bounces, 0);
        assert_eq!(o.losses_after_reconnect, 0);
        assert_eq!(o.gap(), Some(SimDuration::ZERO));
    }

    #[test]
    fn bounce_delays_failover_not_reconnection() {
        // Reconnect at site 1, bounce to site 2, settle at 2.
        let records = vec![
            lost(0, 100),
            recv(1, 102, 1),
            recv(2, 104, 2),
            recv(3, 106, 2),
        ];
        let o = analyze_target(&records, T_FAIL);
        assert_eq!(o.reconnection, Some(SimDuration::from_secs(3)));
        assert_eq!(o.failover, Some(SimDuration::from_secs(5)));
        assert_eq!(o.bounces, 1);
        assert_eq!(o.gap(), Some(SimDuration::from_secs(2)));
    }

    #[test]
    fn disconnection_after_reconnect_delays_failover() {
        let records = vec![
            recv(0, 100, 1),
            lost(1, 102),
            recv(2, 104, 1),
            recv(3, 106, 1),
        ];
        let o = analyze_target(&records, T_FAIL);
        assert_eq!(o.reconnection, Some(SimDuration::from_secs(1)));
        // The loss at seq 1 breaks the stable run; failover starts at seq 2.
        assert_eq!(o.failover, Some(SimDuration::from_secs(5)));
        assert_eq!(o.losses_after_reconnect, 1);
        assert_eq!(o.bounces, 0);
    }

    #[test]
    fn never_reconnected() {
        let records = vec![lost(0, 100), lost(1, 102)];
        let o = analyze_target(&records, T_FAIL);
        assert_eq!(o.reconnection, None);
        assert_eq!(o.failover, None);
        assert_eq!(o.final_site, None);
        assert_eq!(o.gap(), None);
    }

    #[test]
    fn ends_lost_means_no_failover() {
        // Reconnects but the window ends in losses: not stabilized.
        let records = vec![recv(0, 100, 1), lost(1, 102)];
        let o = analyze_target(&records, T_FAIL);
        assert_eq!(o.reconnection, Some(SimDuration::from_secs(1)));
        assert_eq!(o.failover, None);
        assert_eq!(o.final_site, None);
    }

    #[test]
    fn empty_records() {
        let o = analyze_target(&[], T_FAIL);
        assert_eq!(o.reconnection, None);
        assert_eq!(o.failover, None);
        assert_eq!(o.bounces, 0);
    }

    #[test]
    fn stable_from_the_start() {
        // Never disconnected at all (e.g. target was anycast-routed
        // elsewhere already): failover == reconnection == first reply.
        let records = vec![recv(0, 100, 3), recv(1, 102, 3)];
        let o = analyze_target(&records, T_FAIL);
        assert_eq!(o.reconnection, Some(SimDuration::from_secs(1)));
        assert_eq!(o.failover, Some(SimDuration::from_secs(1)));
        assert_eq!(o.bounces, 0);
    }
}
