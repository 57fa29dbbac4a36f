//! The address plan: which prefixes the experiment announces.
//!
//! The paper is allocated `184.164.244.0/23` on PEERING and may announce
//! the /23 and its two /24s (§5). The failover experiments use the first
//! /24 as the failed site's *specific* prefix and the /23 as the covering
//! prefix for `proactive-superprefix`. Two additional measurement prefixes
//! (disjoint from the /23) support target selection: a unicast prefix from
//! the site under test for RTT measurement, and an anycast prefix from all
//! sites for catchment measurement — mirroring how the paper measures site
//! proximity "using a unicast announcement from the site" and the anycast
//! routing criterion (§5.1).

use bobw_net::Prefix;
use serde::{Deserialize, Serialize};

/// The experiment's prefix allocation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressPlan {
    /// The covering prefix (paper: `184.164.244.0/23`).
    pub covering: Prefix,
    /// The specific per-site prefix DNS steers clients into
    /// (paper: `184.164.244.0/24`).
    pub specific: Prefix,
    /// Unicast measurement prefix announced by the site under test, used to
    /// measure client→site RTT for the ≤50 ms criterion.
    pub rtt_probe: Prefix,
    /// Anycast measurement prefix announced by all sites, used to compute
    /// the anycast catchment for the "not routed to the site" criterion.
    pub anycast_probe: Prefix,
    /// Host offset of the probe source address inside `specific`
    /// (paper: `.10`, i.e. `184.164.244.10`).
    pub source_offset: u32,
    /// Address block carved into per-site unicast prefixes for the
    /// DNS-redirection (pure unicast) experiments; site `i` serves from the
    /// `i`-th /24 inside it.
    pub site_block: Prefix,
}

impl Default for AddressPlan {
    fn default() -> Self {
        AddressPlan {
            covering: "184.164.244.0/23".parse().expect("static"),
            specific: "184.164.244.0/24".parse().expect("static"),
            rtt_probe: "184.164.246.0/24".parse().expect("static"),
            anycast_probe: "184.164.247.0/24".parse().expect("static"),
            source_offset: 10,
            site_block: "184.164.232.0/21".parse().expect("static"),
        }
    }
}

impl AddressPlan {
    /// The probe source/destination address (`184.164.244.10`).
    pub fn probe_addr(&self) -> u32 {
        self.specific.addr_at(self.source_offset)
    }

    /// Address inside the RTT-measurement prefix.
    pub fn rtt_addr(&self) -> u32 {
        self.rtt_probe.addr_at(1)
    }

    /// Address inside the anycast-measurement prefix.
    pub fn anycast_addr(&self) -> u32 {
        self.anycast_probe.addr_at(1)
    }

    /// The unicast /24 of site `i` inside the site block (pure-unicast
    /// deployments). Panics if the block is too small for the site count.
    pub fn site_prefix(&self, site_index: usize) -> Prefix {
        let sub_len = 24u8;
        let capacity = 1usize << (sub_len - self.site_block.len());
        assert!(
            site_index < capacity,
            "site {site_index} does not fit in {}",
            self.site_block
        );
        let offset = (site_index as u32) << (32 - sub_len);
        Prefix::new(self.site_block.bits() + offset, sub_len)
    }

    /// Validates internal consistency for a deployment of `num_sites`
    /// sites; the experiment setup calls it and turns a violation into
    /// the cell's error.
    pub fn validate(&self, num_sites: usize) -> Result<(), String> {
        if !self.covering.covers(&self.specific) {
            return Err("covering prefix must cover the specific prefix".into());
        }
        if self.covering.len() >= self.specific.len() {
            return Err("covering prefix must be less specific".into());
        }
        for (name, p) in [
            ("rtt_probe", self.rtt_probe),
            ("anycast_probe", self.anycast_probe),
            ("site_block", self.site_block),
        ] {
            if self.covering.covers(&p) || p.covers(&self.covering) {
                return Err(format!("{name} must be disjoint from the experiment block"));
            }
        }
        if self.rtt_probe.covers(&self.anycast_probe) || self.anycast_probe.covers(&self.rtt_probe)
        {
            return Err("measurement prefixes must be disjoint".into());
        }
        // One /24 per site (`site_prefix`).
        let len = self.site_block.len();
        if len > 24 || num_sites > 1usize << (24 - len) {
            return Err(format!(
                "site_block {} must hold one /24 for each of the {num_sites} sites",
                self.site_block
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_matches_paper_allocation() {
        let p = AddressPlan::default();
        assert_eq!(p.validate(8), Ok(()));
        assert_eq!(p.covering.to_string(), "184.164.244.0/23");
        assert_eq!(p.specific.to_string(), "184.164.244.0/24");
        // 184.164.244.10 as in §5.2.
        assert_eq!(p.probe_addr(), p.specific.first_addr() + 10);
        assert!(p.specific.contains(p.probe_addr()));
        assert!(p.rtt_probe.contains(p.rtt_addr()));
        assert!(p.anycast_probe.contains(p.anycast_addr()));
    }

    #[test]
    fn site_prefixes_are_disjoint_24s_in_block() {
        let p = AddressPlan::default();
        let prefixes: Vec<Prefix> = (0..8).map(|i| p.site_prefix(i)).collect();
        for (i, a) in prefixes.iter().enumerate() {
            assert_eq!(a.len(), 24);
            assert!(p.site_block.covers(a));
            for b in &prefixes[i + 1..] {
                assert!(!a.covers(b) && !b.covers(a), "{a} overlaps {b}");
            }
        }
        assert_eq!(prefixes[0].to_string(), "184.164.232.0/24");
        assert_eq!(prefixes[7].to_string(), "184.164.239.0/24");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn site_prefix_capacity_enforced() {
        AddressPlan::default().site_prefix(8);
    }

    #[test]
    fn validate_rejects_a_site_block_too_small_for_the_sites() {
        // A /22 holds four /24s: enough for four sites, not for eight.
        let p = AddressPlan {
            site_block: "184.164.232.0/22".parse().unwrap(),
            ..AddressPlan::default()
        };
        assert_eq!(p.validate(4), Ok(()));
        let err = p.validate(8).unwrap_err();
        assert!(err.contains("one /24 for each of the 8 sites"), "{err}");
        // A /25 holds no /24 at all.
        let p = AddressPlan {
            site_block: "184.164.232.0/25".parse().unwrap(),
            ..AddressPlan::default()
        };
        let err = p.validate(1).unwrap_err();
        assert!(err.contains("184.164.232.0/25"), "{err}");
    }

    #[test]
    fn validate_rejects_non_covering() {
        let p = AddressPlan {
            covering: "10.0.0.0/23".parse().unwrap(),
            ..AddressPlan::default()
        };
        let err = p.validate(8).unwrap_err();
        assert!(err.contains("must cover"), "{err}");
    }

    #[test]
    fn validate_rejects_overlapping_measurement_prefix() {
        let p = AddressPlan {
            rtt_probe: "184.164.244.0/25".parse().unwrap(),
            ..AddressPlan::default()
        };
        let err = p.validate(8).unwrap_err();
        assert!(err.contains("disjoint"), "{err}");
    }
}
