//! Kernel equivalence: [`FlatRib`] (the production flat-memory kernel) and
//! [`MapRib`] (the historic nested-map reference) must make identical
//! selections after every operation of an arbitrary recorded trace.
//!
//! The decision in `cmp_selected` is a strict total order over candidates
//! from distinct neighbors, so the selection is independent of each
//! kernel's iteration order — this test replays random insert/remove
//! traces (shaped like what `BgpNode::receive` records against its RIB)
//! and requires both kernels to agree on candidates and selection at every
//! step.

use bobw_bgp::{select_from, FlatRib, MapRib, RibKernel, RouteAttrs};
use bobw_net::{AsPath, Asn, NodeId, Prefix};
use proptest::prelude::*;

const PREFIXES: [&str; 3] = ["10.0.0.0/24", "10.0.1.0/24", "184.164.248.0/24"];

fn prefix(i: usize) -> Prefix {
    PREFIXES[i % PREFIXES.len()].parse().unwrap()
}

/// The per-node tie key the production decision uses: neighbor index `n`
/// maps to a peer id and ASN.
fn key_of(n: u32) -> (NodeId, Asn) {
    (NodeId(n + 10), Asn(n + 100))
}

/// One recorded RIB operation: an update (insert/replace) or a withdrawal.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        prefix: usize,
        nbr: u32,
        local_pref: u32,
        hops: Vec<u32>,
        med: u32,
    },
    Remove {
        prefix: usize,
        nbr: u32,
    },
}

fn arb_trace() -> impl Strategy<Value = Vec<Op>> {
    // One op in four is a removal — withdraw-heavy traces degenerate to
    // empty RIBs immediately, so keep the tables populated.
    let op = (
        (0usize..4, 0usize..3, 0u32..6),
        (
            prop_oneof![Just(50u32), Just(100), Just(200)],
            proptest::collection::vec(1u32..20, 1..5),
            0u32..3,
        ),
    )
        .prop_map(|((kind, prefix, nbr), (local_pref, hops, med))| {
            if kind == 0 {
                Op::Remove { prefix, nbr }
            } else {
                Op::Insert {
                    prefix,
                    nbr,
                    local_pref,
                    hops,
                    med,
                }
            }
        });
    proptest::collection::vec(op, 1..40)
}

fn attrs(local_pref: u32, hops: &[u32], med: u32) -> RouteAttrs {
    RouteAttrs {
        path: AsPath::from_hops(&hops.iter().map(|&a| Asn(a)).collect::<Vec<_>>()),
        local_pref,
        med,
        origin: NodeId(99),
        no_export: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every replayed operation, both kernels expose identical
    /// candidate sets (same neighbors, same attributes, same order) and
    /// make the identical selection for every prefix.
    #[test]
    fn kernels_agree_on_recorded_traces(trace in arb_trace()) {
        let mut flat = FlatRib::new();
        let mut map = MapRib::new();
        for op in &trace {
            match op {
                Op::Insert { prefix: p, nbr, local_pref, hops, med } => {
                    let a = attrs(*local_pref, hops, *med);
                    flat.insert(prefix(*p), *nbr, a);
                    map.insert(prefix(*p), *nbr, a);
                }
                Op::Remove { prefix: p, nbr } => {
                    prop_assert_eq!(
                        flat.remove(prefix(*p), *nbr),
                        map.remove(prefix(*p), *nbr),
                        "kernels disagree on whether a candidate existed"
                    );
                }
            }
            for i in 0..PREFIXES.len() {
                let pre = prefix(i);
                prop_assert_eq!(
                    flat.candidates(&pre),
                    map.candidates(&pre),
                    "candidate sets diverged at prefix {}",
                    pre
                );
                prop_assert_eq!(
                    select_from(&flat, &pre, key_of),
                    select_from(&map, &pre, key_of),
                    "selections diverged at prefix {}",
                    pre
                );
            }
        }
        // The per-neighbor reverse index agrees too (session expiry uses
        // it to find affected prefixes; order is not part of the contract).
        for nbr in 0..6 {
            let mut a = flat.prefixes_from(nbr);
            let mut b = map.prefixes_from(nbr);
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }
    }
}
