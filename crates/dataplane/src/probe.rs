//! The Verfploeter-style prober (§5.2).
//!
//! After a failure the paper sends a ping to every controllable target
//! every ~1.5 s for ~600 s *from a surviving PEERING site*, with the source
//! address inside the failed site's prefix, so each reply is routed by the
//! Internet toward whatever currently announces that prefix. Sequence
//! numbers match replies to requests and expose disconnection gaps.
//!
//! This module holds the probing configuration and the per-probe record.
//! The probe plane in `bobw-core` (`probing`) evaluates the probes on the
//! data plane and folds their outcomes; its experiment loops schedule the
//! rounds.

use bobw_event::{SimDuration, SimTime};
use bobw_topology::SiteId;
use serde::{Deserialize, Serialize};

/// Probing parameters; defaults mirror the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeConfig {
    /// Inter-probe interval per target (paper: ~1.5 s).
    pub interval: SimDuration,
    /// Probing window after the failure (paper: ~600 s).
    pub duration: SimDuration,
    /// Host offset inside the probed prefix used as the source address
    /// (the paper uses 184.164.244.10, offset 10).
    pub source_offset: u32,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            interval: SimDuration::from_millis(1500),
            duration: SimDuration::from_secs(600),
            source_offset: 10,
        }
    }
}

impl ProbeConfig {
    /// A shortened window for tests and quick benches.
    pub fn quick() -> ProbeConfig {
        ProbeConfig {
            interval: SimDuration::from_millis(1500),
            duration: SimDuration::from_secs(120),
            source_offset: 10,
        }
    }

    /// Number of probes each target receives.
    pub fn probes_per_target(&self) -> u32 {
        (self.duration.as_nanos() / self.interval.as_nanos().max(1)) as u32
    }
}

/// What happened to one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeOutcome {
    /// The reply arrived at a live site at the given time.
    Received { site: SiteId, at: SimTime },
    /// The reply was lost (blackhole, loop, or dead site).
    Lost,
}

/// One probe's record: what a per-target stream of probes is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeRecord {
    pub seq: u32,
    pub sent: SimTime,
    pub outcome: ProbeOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = ProbeConfig::default();
        assert_eq!(c.interval, SimDuration::from_millis(1500));
        assert_eq!(c.duration, SimDuration::from_secs(600));
        assert_eq!(c.probes_per_target(), 400);
        assert_eq!(c.source_offset, 10);
    }
}
