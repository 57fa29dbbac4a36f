//! Property tests of AS-path interning: every [`AsPath`] operation must
//! agree with a plain `Vec<Asn>` reference model, so the interned handles
//! are observationally identical to the historic owned-hops representation,
//! also across nested table scopes.

use bobw_net::{AsPath, Asn, PathTable};
use proptest::prelude::*;

/// The reference model: owned hops, nearest first.
fn display_of(hops: &[Asn]) -> String {
    hops.iter()
        .map(|a| a.0.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn distinct_len_of(hops: &[Asn]) -> usize {
    let mut n = 0;
    let mut prev = None;
    for &h in hops {
        if prev != Some(h) {
            n += 1;
            prev = Some(h);
        }
    }
    n
}

fn arb_hops() -> impl Strategy<Value = Vec<Asn>> {
    // Small ASN universe so duplicate hops (prepend runs) are common.
    proptest::collection::vec((1u32..32).prop_map(Asn), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interning round-trips: the handle reads back exactly the hops it
    /// was built from, and every accessor matches the reference model.
    #[test]
    fn intern_round_trips_against_reference(hops in arb_hops()) {
        let path = AsPath::from_hops(&hops);
        prop_assert_eq!(path.hops(), hops.clone());
        prop_assert_eq!(path.len(), hops.len());
        prop_assert_eq!(path.is_empty(), hops.is_empty());
        prop_assert_eq!(path.origin(), hops.last().copied());
        prop_assert_eq!(path.first(), hops.first().copied());
        prop_assert_eq!(path.distinct_len(), distinct_len_of(&hops));
        prop_assert_eq!(path.to_string(), display_of(&hops));
        for asn in 0u32..40 {
            prop_assert_eq!(path.contains(Asn(asn)), hops.contains(&Asn(asn)));
        }
    }

    /// Equality of handles is exactly equality of hop sequences — two
    /// paths interned independently compare equal iff their hops do.
    #[test]
    fn equality_is_hop_equality(a in arb_hops(), b in arb_hops()) {
        let pa = AsPath::from_hops(&a);
        let pb = AsPath::from_hops(&b);
        prop_assert_eq!(pa == pb, a == b);
    }

    /// Prepend chains compose like the reference model: repeated
    /// `prepended` calls produce the same hops as building the final
    /// sequence directly, and memoized re-composition returns the same id.
    #[test]
    fn prepend_matches_reference(
        base in arb_hops(),
        steps in proptest::collection::vec(
            (1u32..32, 0u8..4).prop_map(|(asn, count)| (Asn(asn), count)), 0..5),
    ) {
        let mut expect = base.clone();
        let mut path = AsPath::from_hops(&base);
        for &(asn, count) in &steps {
            path = path.prepended(asn, count);
            for _ in 0..count {
                expect.insert(0, asn);
            }
            prop_assert_eq!(path.hops(), expect.clone());
            prop_assert_eq!(path.len(), expect.len());
        }
        // Replaying the same composition must intern to the same handle.
        prop_assert_eq!(path, AsPath::from_hops(&expect));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Nested scopes: each inner table starts holding only the empty path
    /// and matches the reference model on its own; when it ends, handles
    /// minted in the outer scope resolve to the same hops as before and
    /// still compose like the model.
    #[test]
    fn outer_handles_survive_nested_scopes(
        outer in proptest::collection::vec(arb_hops(), 1..6),
        inner in proptest::collection::vec(arb_hops(), 0..6),
        innermost in proptest::collection::vec(arb_hops(), 0..4),
        asn in (1u32..32).prop_map(Asn),
    ) {
        PathTable::scope(|| -> Result<(), TestCaseError> {
            let handles: Vec<AsPath> = outer.iter().map(|h| AsPath::from_hops(h)).collect();
            let outer_len = PathTable::with(|t| t.len());

            PathTable::scope(|| -> Result<(), TestCaseError> {
                prop_assert_eq!(PathTable::with(|t| t.len()), 1);
                // Interned in another order, so ids differ from the outer
                // table's for the same sequences.
                let inner_handles: Vec<AsPath> =
                    inner.iter().rev().map(|h| AsPath::from_hops(h)).collect();
                PathTable::scope(|| -> Result<(), TestCaseError> {
                    prop_assert_eq!(PathTable::with(|t| t.len()), 1);
                    for hops in &innermost {
                        let p = AsPath::from_hops(hops).prepended(asn, 1);
                        let mut expect = hops.clone();
                        expect.insert(0, asn);
                        prop_assert_eq!(p.hops(), expect);
                    }
                    Ok(())
                })?;
                for (p, hops) in inner_handles.iter().zip(inner.iter().rev()) {
                    prop_assert_eq!(p.hops(), hops.clone());
                }
                Ok(())
            })?;

            prop_assert_eq!(PathTable::with(|t| t.len()), outer_len);
            for (p, hops) in handles.iter().zip(&outer) {
                prop_assert_eq!(p.hops(), hops.clone());
                prop_assert_eq!(p.len(), hops.len());
                let mut expect = hops.clone();
                expect.insert(0, asn);
                prop_assert_eq!(p.prepended(asn, 1).hops(), expect);
            }
            Ok(())
        })?;
    }
}

/// The duplicate-hop regression from the interning change: `[3, 3, 1]`
/// (a prepend run) must display each hop, not collapse the run.
#[test]
fn duplicate_hops_display_individually() {
    let path = AsPath::from_hops(&[Asn(3), Asn(3), Asn(1)]);
    assert_eq!(path.to_string(), "3 3 1");
    assert_eq!(path.len(), 3);
    assert_eq!(path.distinct_len(), 2);
    assert_eq!(format!("{path:?}"), "[3 3 1]");
}

/// Origination is `asn` repeated `1 + extra` times.
#[test]
fn originate_repeats_origin() {
    let p = AsPath::originate(Asn(7), 2);
    assert_eq!(p.hops(), vec![Asn(7), Asn(7), Asn(7)]);
    assert_eq!(p.origin(), Some(Asn(7)));
    assert_eq!(p.distinct_len(), 1);
}
