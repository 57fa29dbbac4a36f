//! RIB kernels: candidate storage (Adj-RIB-In) plus the selected best
//! (Loc-RIB) behind a small trait, with two implementations:
//!
//! * [`FlatRib`] — the production kernel. Prefixes are interned per node
//!   into dense indices; per prefix the candidates live in a `Vec` sorted
//!   by neighbor index and the selected best sits in a parallel slot.
//!   Nothing on the per-message hot path hashes a `Prefix` or walks a
//!   `BTreeMap`; the decision process iterates a contiguous slice.
//! * [`MapRib`] — the reference kernel, shaped exactly like the historic
//!   `HashMap<Prefix, BTreeMap<neighbor, RouteAttrs>>` storage. It exists
//!   so equivalence tests can replay a recorded operation trace against
//!   both kernels and require identical selections.
//!
//! # Determinism
//!
//! The selection in [`cmp_selected`] is a *strict total order* over
//! candidates from distinct neighbors (the final tie-break is the neighbor
//! `NodeId`), so the chosen best is independent of candidate iteration
//! order — `FlatRib` iterating in neighbor-index order and `MapRib`
//! iterating in `NodeId` order select the same route. Anything that *does*
//! depend on enumeration order (session expiry re-decisions, which draw RNG
//! jitter per prefix) sorts by `Prefix` value first, same as before this
//! kernel existed.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

use bobw_net::{Asn, NodeId, Prefix};

use crate::route::{RouteAttrs, Selected};

/// Tie-break key for a candidate: self-originated routes sort first, then
/// neighbor ASN, then neighbor id — the RFC 4271-flavoured arbitrary-but-
/// total tail of the decision process.
pub type TieKey = (u8, Asn, NodeId);

/// Tie key for the node's own origination.
pub const SELF_TIE_KEY: TieKey = (0, Asn(0), NodeId(0));

/// RFC 4271-flavoured candidate comparison; `Ordering::Less` = better.
/// Shared by the production node and the kernel equivalence tests so both
/// kernels apply the identical decision.
pub fn cmp_selected(a: &Selected, ka: TieKey, b: &Selected, kb: TieKey) -> Ordering {
    b.attrs
        .local_pref
        .cmp(&a.attrs.local_pref)
        .then(a.attrs.path.len().cmp(&b.attrs.path.len()))
        .then(a.attrs.med.cmp(&b.attrs.med))
        .then(ka.cmp(&kb))
}

/// Candidate storage + selected best, keyed by `Prefix` and a dense
/// per-node neighbor index (session order at topology build time).
pub trait RibKernel {
    /// Inserts or replaces the candidate from `nbr` for `prefix`.
    fn insert(&mut self, prefix: Prefix, nbr: u32, attrs: RouteAttrs);
    /// Removes the candidate from `nbr`; returns whether one existed.
    fn remove(&mut self, prefix: Prefix, nbr: u32) -> bool;
    /// Candidates for `prefix` in ascending neighbor-index order.
    fn candidates(&self, prefix: &Prefix) -> Vec<(u32, RouteAttrs)>;
    /// Every prefix holding a candidate from `nbr` (any order; callers
    /// sort by prefix value before drawing RNG jitter per prefix).
    fn prefixes_from(&self, nbr: u32) -> Vec<Prefix>;
}

#[derive(Default)]
struct PrefixEntry {
    /// Sparse candidate set, sorted by neighbor index. A node's neighbor
    /// count is small and churn replaces in place, so a sorted `Vec` beats
    /// any tree/map on both lookup and iteration.
    routes: Vec<(u32, RouteAttrs)>,
    /// The Loc-RIB slot for this prefix.
    best: Option<Selected>,
}

/// The production kernel: interned prefixes, SoA per-prefix entries.
#[derive(Default)]
pub struct FlatRib {
    /// Interned prefixes in first-seen order; the index into this Vec is
    /// the prefix id used everywhere else (including per-neighbor send
    /// state). The per-node prefix universe is tiny (sites + covering +
    /// probe prefixes), so a linear scan beats hashing; entries are
    /// append-only within a run.
    prefixes: Vec<Prefix>,
    entries: Vec<PrefixEntry>,
}

impl FlatRib {
    pub fn new() -> FlatRib {
        FlatRib::default()
    }

    /// The dense id for `prefix`, interning it on first sight.
    pub fn intern(&mut self, prefix: Prefix) -> usize {
        if let Some(i) = self.position(&prefix) {
            return i;
        }
        self.prefixes.push(prefix);
        self.entries.push(PrefixEntry::default());
        self.prefixes.len() - 1
    }

    /// The dense id for `prefix`, if it has been seen.
    pub fn position(&self, prefix: &Prefix) -> Option<usize> {
        self.prefixes.iter().position(|p| p == prefix)
    }

    /// Inserts or replaces the candidate from `nbr` at prefix id `pidx`.
    pub fn insert_at(&mut self, pidx: usize, nbr: u32, attrs: RouteAttrs) {
        let routes = &mut self.entries[pidx].routes;
        match routes.binary_search_by_key(&nbr, |&(n, _)| n) {
            Ok(i) => routes[i].1 = attrs,
            Err(i) => routes.insert(i, (nbr, attrs)),
        }
    }

    /// Removes the candidate from `nbr` at prefix id `pidx`.
    pub fn remove_at(&mut self, pidx: usize, nbr: u32) -> bool {
        let routes = &mut self.entries[pidx].routes;
        match routes.binary_search_by_key(&nbr, |&(n, _)| n) {
            Ok(i) => {
                routes.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Candidates at prefix id `pidx`, ascending by neighbor index.
    pub fn routes_at(&self, pidx: usize) -> &[(u32, RouteAttrs)] {
        &self.entries[pidx].routes
    }

    /// The Loc-RIB slot at prefix id `pidx`.
    pub fn best_at(&self, pidx: usize) -> Option<&Selected> {
        self.entries[pidx].best.as_ref()
    }

    pub fn set_best_at(&mut self, pidx: usize, best: Option<Selected>) {
        self.entries[pidx].best = best;
    }

    /// Appends `(prefix, id)` for every prefix whose candidate set includes
    /// `nbr` (used by session expiry, which then sorts by prefix value).
    pub fn prefixes_from_into(&self, nbr: u32, out: &mut Vec<(Prefix, u32)>) {
        for (i, e) in self.entries.iter().enumerate() {
            if e.routes.binary_search_by_key(&nbr, |&(n, _)| n).is_ok() {
                out.push((self.prefixes[i], i as u32));
            }
        }
    }

    /// Appends `(prefix, id)` for every prefix with a selected best (used
    /// by session restore, which re-exports the full table sorted).
    pub fn prefixes_with_best_into(&self, out: &mut Vec<(Prefix, u32)>) {
        for (i, e) in self.entries.iter().enumerate() {
            if e.best.is_some() {
                out.push((self.prefixes[i], i as u32));
            }
        }
    }
}

impl RibKernel for FlatRib {
    fn insert(&mut self, prefix: Prefix, nbr: u32, attrs: RouteAttrs) {
        let pidx = self.intern(prefix);
        self.insert_at(pidx, nbr, attrs);
    }

    fn remove(&mut self, prefix: Prefix, nbr: u32) -> bool {
        match self.position(&prefix) {
            Some(pidx) => self.remove_at(pidx, nbr),
            None => false,
        }
    }

    fn candidates(&self, prefix: &Prefix) -> Vec<(u32, RouteAttrs)> {
        match self.position(prefix) {
            Some(pidx) => self.routes_at(pidx).to_vec(),
            None => Vec::new(),
        }
    }

    fn prefixes_from(&self, nbr: u32) -> Vec<Prefix> {
        let mut out = Vec::new();
        self.prefixes_from_into(nbr, &mut out);
        out.into_iter().map(|(p, _)| p).collect()
    }
}

/// The reference kernel: the historic nested-map storage, kept for
/// equivalence testing against [`FlatRib`].
#[derive(Default)]
pub struct MapRib {
    adj_in: HashMap<Prefix, BTreeMap<u32, RouteAttrs>>,
}

impl MapRib {
    pub fn new() -> MapRib {
        MapRib::default()
    }
}

impl RibKernel for MapRib {
    fn insert(&mut self, prefix: Prefix, nbr: u32, attrs: RouteAttrs) {
        self.adj_in.entry(prefix).or_default().insert(nbr, attrs);
    }

    fn remove(&mut self, prefix: Prefix, nbr: u32) -> bool {
        let Some(m) = self.adj_in.get_mut(&prefix) else {
            return false;
        };
        let had = m.remove(&nbr).is_some();
        if m.is_empty() {
            self.adj_in.remove(&prefix);
        }
        had
    }

    fn candidates(&self, prefix: &Prefix) -> Vec<(u32, RouteAttrs)> {
        match self.adj_in.get(prefix) {
            Some(m) => m.iter().map(|(&n, a)| (n, *a)).collect(),
            None => Vec::new(),
        }
    }

    fn prefixes_from(&self, nbr: u32) -> Vec<Prefix> {
        self.adj_in
            .iter()
            .filter(|(_, m)| m.contains_key(&nbr))
            .map(|(p, _)| *p)
            .collect()
    }
}

/// Runs the shared decision over a kernel's candidates (no damping, no
/// origination — the pure selection step), tagging each candidate with the
/// tie key provided by `key_of`. Used by the kernel equivalence tests.
pub fn select_from<K: RibKernel>(
    kernel: &K,
    prefix: &Prefix,
    key_of: impl Fn(u32) -> (NodeId, Asn),
) -> Option<Selected> {
    let mut best: Option<(Selected, TieKey)> = None;
    for (nbr, attrs) in kernel.candidates(prefix) {
        let (peer, peer_asn) = key_of(nbr);
        let cand = Selected {
            from: Some(peer),
            attrs,
        };
        let key = (1, peer_asn, peer);
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

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_net::AsPath;

    fn attrs(pref: u32, hops: &[u32], med: u32) -> RouteAttrs {
        RouteAttrs {
            path: AsPath::from_hops(&hops.iter().map(|&a| Asn(a)).collect::<Vec<_>>()),
            local_pref: pref,
            med,
            origin: NodeId(99),
            no_export: false,
        }
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn flat_insert_replace_remove() {
        let mut rib = FlatRib::new();
        let pre = p("10.0.0.0/24");
        rib.insert(pre, 2, attrs(100, &[2, 9], 0));
        rib.insert(pre, 0, attrs(100, &[1, 9], 0));
        rib.insert(pre, 1, attrs(100, &[3, 9], 0));
        let c = rib.candidates(&pre);
        assert_eq!(
            c.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "candidates must come back in neighbor-index order"
        );
        // Replace in place.
        rib.insert(pre, 1, attrs(100, &[3, 3, 9], 0));
        assert_eq!(rib.candidates(&pre)[1].1.path.len(), 3);
        assert!(rib.remove(pre, 1));
        assert!(!rib.remove(pre, 1));
        assert_eq!(rib.candidates(&pre).len(), 2);
    }

    #[test]
    fn tie_break_is_total_and_order_independent() {
        // Same local-pref/len/med from two neighbors: the lower (asn, id)
        // must win regardless of insertion order.
        let key_of = |n: u32| (NodeId(n + 10), Asn(n + 100));
        let pre = p("10.0.0.0/24");
        for order in [[0u32, 1], [1, 0]] {
            let mut rib = FlatRib::new();
            for &n in &order {
                rib.insert(pre, n, attrs(100, &[n + 100, 9], 0));
            }
            let sel = select_from(&rib, &pre, key_of).unwrap();
            assert_eq!(sel.from, Some(NodeId(10)));
        }
    }

    #[test]
    fn kernels_agree_on_handwritten_ops() {
        let key_of = |n: u32| (NodeId(n + 10), Asn(n + 100));
        let mut flat = FlatRib::new();
        let mut map = MapRib::new();
        let pre1 = p("10.0.0.0/24");
        let pre2 = p("10.0.1.0/24");
        let ops: Vec<(Prefix, u32, Option<RouteAttrs>)> = vec![
            (pre1, 0, Some(attrs(100, &[110, 9], 0))),
            (pre1, 1, Some(attrs(200, &[111, 8, 9], 0))),
            (pre2, 2, Some(attrs(100, &[112, 9], 5))),
            (pre1, 1, None),
            (pre1, 2, Some(attrs(100, &[112, 9], 0))),
            (pre1, 0, None),
            (pre2, 2, None),
        ];
        for (prefix, nbr, op) in ops {
            match op {
                Some(a) => {
                    flat.insert(prefix, nbr, a);
                    map.insert(prefix, nbr, a);
                }
                None => {
                    assert_eq!(flat.remove(prefix, nbr), map.remove(prefix, nbr));
                }
            }
            for pre in [&pre1, &pre2] {
                assert_eq!(
                    select_from(&flat, pre, key_of),
                    select_from(&map, pre, key_of)
                );
            }
        }
    }
}
