//! Property tests of AS-path interning: every [`AsPath`] operation must
//! agree with a plain `Vec<Asn>` reference model, so the interned handles
//! are observationally identical to the historic owned-hops representation,
//! also across nested table scopes.

use bobw_net::{AsPath, Asn, PathTable};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

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

/// Every `AsPath` observation of `path` against the model `hops`, and the
/// serde round trip, in the current table.
fn check_against_model(path: AsPath, hops: &[Asn]) -> Result<(), TestCaseError> {
    prop_assert_eq!(path.hops(), hops.to_vec());
    prop_assert_eq!(path.with_hops(<[Asn]>::to_vec), hops.to_vec());
    prop_assert_eq!(path.len(), hops.len());
    prop_assert_eq!(path.is_empty(), hops.is_empty());
    prop_assert_eq!(path.first(), hops.first().copied());
    prop_assert_eq!(path.origin(), hops.last().copied());
    prop_assert_eq!(path.distinct_len(), distinct_len_of(hops));
    prop_assert_eq!(path.to_string(), display_of(hops));
    for asn in 0u32..40 {
        prop_assert_eq!(path.contains(Asn(asn)), hops.contains(&Asn(asn)));
    }
    let value = path.to_value();
    prop_assert_eq!(
        serde_json::to_string(&value).unwrap(),
        format!("{{\"hops\":[{}]}}", display_of(hops).replace(' ', ","))
    );
    let back = AsPath::from_value(&value).unwrap();
    prop_assert_eq!(back.id(), path.id());
    prop_assert_eq!(back.len(), path.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interning round-trips: the handle reads back exactly the hops it
    /// was built from, and every accessor and the serde round trip match
    /// the reference model.
    #[test]
    fn intern_round_trips_against_reference(hops in arb_hops()) {
        check_against_model(AsPath::from_hops(&hops), &hops)?;
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
    /// sequence directly, and interning that sequence returns the same id.
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

/// A base path and the `(asn, count)` prepends applied to it in turn.
type Chain = (Vec<Asn>, Vec<(Asn, u8)>);

/// `hops` as a prepend chain from the empty path: each run of equal hops,
/// origin end first, is one `prepend` of the run's length.
fn prepend_chain(t: &mut PathTable, hops: &[Asn]) -> bobw_net::PathId {
    let mut id = t.intern(&[]);
    let mut rest = hops;
    while let Some(&hop) = rest.last() {
        let run = rest.iter().rev().take_while(|&&a| a == hop).count();
        id = t.prepend(id, hop, run as u16);
        rest = &rest[..rest.len() - run];
    }
    id
}

/// The model check of one table: interned sequences, then prepend chains
/// onto interned bases.
fn check_table(seqs: &[Vec<Asn>], chains: &[Chain]) -> Result<(), TestCaseError> {
    let paths: Vec<AsPath> = seqs.iter().map(|h| AsPath::from_hops(h)).collect();
    for (i, (p, hops)) in paths.iter().zip(seqs).enumerate() {
        check_against_model(*p, hops)?;
        let chained = PathTable::with(|t| prepend_chain(t, hops));
        prop_assert_eq!(chained, p.id(), "intern and prepend chain of {:?}", hops);
        for (q, other) in paths.iter().zip(seqs).skip(i) {
            prop_assert_eq!(p.id() == q.id(), hops == other);
            prop_assert_eq!(*p == *q, hops == other);
        }
    }
    for (base, steps) in chains {
        let mut model = base.clone();
        let mut path = AsPath::from_hops(base);
        for &(asn, count) in steps {
            path = path.prepended(asn, count);
            model.splice(0..0, std::iter::repeat_n(asn, count as usize));
            prop_assert_eq!(path.id(), AsPath::from_hops(&model).id());
            check_against_model(path, &model)?;
        }
    }
    Ok(())
}

fn arb_chain() -> impl Strategy<Value = Chain> {
    (
        arb_hops(),
        proptest::collection::vec((1u32..32, 0u8..4).prop_map(|(a, c)| (Asn(a), c)), 0..5),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The reference model at every depth of `depth` nested scopes: ids
    /// are equal iff hops are, a slice and the prepend chain spelling it
    /// intern to one id, and every accessor and the serde round trip match
    /// `Vec<Asn>`. Each scope re-checks its own handles after its inner
    /// scope returns.
    #[test]
    fn table_matches_the_vec_model_in_nested_scopes(
        seqs in proptest::collection::vec(arb_hops(), 1..8),
        chains in proptest::collection::vec(arb_chain(), 1..4),
        depth in 1usize..4,
    ) {
        fn nest(
            depth: usize,
            seqs: &[Vec<Asn>],
            chains: &[Chain],
        ) -> Result<(), TestCaseError> {
            PathTable::scope(|| {
                prop_assert_eq!(PathTable::with(|t| t.len()), 1);
                check_table(seqs, chains)?;
                let held: Vec<AsPath> = seqs.iter().map(|h| AsPath::from_hops(h)).collect();
                if depth > 1 {
                    // The inner scope sees the sequences in another order.
                    let reversed: Vec<Vec<Asn>> = seqs.iter().rev().cloned().collect();
                    nest(depth - 1, &reversed, chains)?;
                }
                for (p, hops) in held.iter().zip(seqs) {
                    check_against_model(*p, hops)?;
                }
                Ok(())
            })
        }
        nest(depth, &seqs, &chains)?;
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
