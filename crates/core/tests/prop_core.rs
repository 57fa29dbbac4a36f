//! Property tests for the core crate's pure logic: the §5.4.1 metric
//! extraction and the Table-2 rubric, under arbitrary inputs.

use bobw_core::{
    analyze_target, derive_tradeoffs, MeasuredTechnique, OutcomeFold, Rating, Technique,
};
use bobw_dataplane::{ProbeOutcome, ProbeRecord};
use bobw_event::SimTime;
use bobw_topology::SiteId;
use proptest::prelude::*;

/// A probe record stream from per-probe `None` (lost) / `Some((site,
/// arrival delay in s))`, one probe every 2 s from `T_FAIL`.
fn records(outcomes: &[Option<(u8, u64)>]) -> Vec<ProbeRecord> {
    outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let sent = SimTime::from_secs(100 + 2 * i as u64);
            ProbeRecord {
                seq: i as u32,
                sent,
                outcome: match *o {
                    None => ProbeOutcome::Lost,
                    Some((site, delay)) => ProbeOutcome::Received {
                        site: SiteId(site),
                        at: sent + bobw_event::SimDuration::from_secs(delay),
                    },
                },
            }
        })
        .collect()
}

/// Arbitrary probe record streams: per probe, either lost or received at
/// one of 4 sites with a small arrival delay.
fn arb_records() -> impl Strategy<Value = Vec<ProbeRecord>> {
    proptest::collection::vec(
        prop_oneof![
            Just(None),
            (0u8..4, 0u64..3).prop_map(|(site, delay)| Some((site, delay))),
        ],
        0..60,
    )
    .prop_map(|outcomes| records(&outcomes))
}

/// The streaming fold's answer on `records`, pushed in order.
fn folded(records: &[ProbeRecord], t_fail: SimTime) -> bobw_core::TargetOutcome {
    let mut fold = OutcomeFold::default();
    for r in records {
        fold.push(r.outcome);
    }
    fold.finish(t_fail)
}

/// The shapes the random generator rarely lands on exactly: nothing probed,
/// nothing answered, and a loss followed by a site switch (the fold must
/// remember the pre-loss site to count the bounce, and must restart the
/// stable run at the loss).
#[test]
fn fold_matches_analyze_target_on_edge_streams() {
    let streams: [&[Option<(u8, u64)>]; 6] = [
        &[],
        &[None, None, None],
        &[Some((1, 1)), None, Some((2, 0)), Some((2, 1))],
        &[None, Some((1, 0)), None, None, Some((1, 0))],
        // A later probe's reply overtakes an earlier one's.
        &[Some((0, 2)), Some((0, 0)), Some((3, 0))],
        &[Some((2, 1)), None],
    ];
    for s in streams {
        let recs = records(s);
        // Before, at and after the first arrivals: exercises the clamp.
        for t_fail in [T_FAIL, SimTime::from_secs(103), SimTime::from_secs(500)] {
            assert_eq!(
                folded(&recs, t_fail),
                analyze_target(&recs, t_fail),
                "{s:?}"
            );
        }
    }
}

const T_FAIL: SimTime = SimTime::from_secs(100);

proptest! {
    /// The streaming fold the experiment loops run is `analyze_target`, on
    /// any stream and after every prefix of it.
    #[test]
    fn fold_matches_analyze_target(records in arb_records(), t_fail_s in 90u64..230) {
        let t_fail = SimTime::from_secs(t_fail_s);
        let mut fold = OutcomeFold::default();
        prop_assert_eq!(fold.finish(t_fail), analyze_target(&[], t_fail));
        for (i, r) in records.iter().enumerate() {
            fold.push(r.outcome);
            prop_assert_eq!(fold.finish(t_fail), analyze_target(&records[..=i], t_fail));
        }
    }

    /// Invariants of the metric extraction, for any probe stream:
    /// reconnection ≤ failover, failover implies a final site, the final
    /// site matches the last received record, and bounce/loss counters are
    /// bounded by the record count.
    #[test]
    fn metric_invariants(records in arb_records()) {
        let o = analyze_target(&records, T_FAIL);
        if let (Some(r), Some(f)) = (o.reconnection, o.failover) {
            prop_assert!(r <= f, "reconnection {r} > failover {f}");
        }
        if o.failover.is_some() {
            prop_assert!(o.reconnection.is_some());
            prop_assert!(o.final_site.is_some());
        }
        match records.last().map(|r| r.outcome) {
            Some(ProbeOutcome::Received { site, .. }) => {
                prop_assert_eq!(o.final_site, Some(site));
                // A stream ending in a reply always stabilizes (at worst on
                // the very last probe).
                prop_assert!(o.failover.is_some());
            }
            _ => {
                prop_assert_eq!(o.final_site, None);
                prop_assert!(o.failover.is_none());
            }
        }
        let received = records
            .iter()
            .filter(|r| matches!(r.outcome, ProbeOutcome::Received { .. }))
            .count();
        prop_assert!(o.bounces as usize <= received.saturating_sub(1));
        prop_assert!(o.losses_after_reconnect as usize <= records.len());
        if received == 0 {
            prop_assert_eq!(o.reconnection, None);
        } else {
            prop_assert!(o.reconnection.is_some());
        }
    }

    /// The failover instant marks a genuinely stable suffix: re-analyzing
    /// only the records from the stable suffix onward yields zero bounces.
    #[test]
    fn failover_suffix_is_stable(records in arb_records()) {
        let o = analyze_target(&records, T_FAIL);
        if o.failover.is_none() {
            return Ok(());
        }
        // Find the suffix start: last run of identical Received sites.
        let last_site = o.final_site.expect("failover implies final site");
        let mut start = records.len();
        for i in (0..records.len()).rev() {
            match records[i].outcome {
                ProbeOutcome::Received { site, .. } if site == last_site => start = i,
                _ => break,
            }
        }
        let suffix = &records[start..];
        let o2 = analyze_target(suffix, T_FAIL);
        prop_assert_eq!(o2.bounces, 0);
        prop_assert_eq!(o2.losses_after_reconnect, 0);
        prop_assert_eq!(o2.final_site, Some(last_site));
    }

    /// Table-2 rubric sanity for arbitrary measured inputs: ratings are
    /// monotone in their inputs.
    #[test]
    fn tradeoff_rubric_monotone(
        control in 0.0f64..=1.0,
        failover in 0.1f64..1000.0,
        anycast in 1.0f64..100.0,
    ) {
        let mk = |c: f64, f: Option<f64>| MeasuredTechnique {
            technique: Technique::Anycast,
            control_fraction: c,
            failover_median_s: f,
        };
        let rows = derive_tradeoffs(
            &[mk(control, Some(failover)), mk(control, None)],
            anycast,
        );
        // DNS-bound availability is always Low; BGP-bound never Low.
        prop_assert_ne!(rows[0].availability, Rating::Low);
        prop_assert_eq!(rows[1].availability, Rating::Low);
        // Faster-than-anycast failover is always High.
        if failover <= anycast {
            prop_assert_eq!(rows[0].availability, Rating::High);
        }
        // Control rating brackets.
        match rows[0].control {
            Rating::High => prop_assert!(control >= 0.99),
            Rating::Low => prop_assert!(control <= 0.05),
            Rating::Medium => prop_assert!(control > 0.05 && control < 0.99),
        }
    }
}
