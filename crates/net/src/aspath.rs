//! AS numbers and interned AS paths.
//!
//! The AS path is the BGP attribute everything in this paper turns on:
//! `proactive-prepending` trades control for availability by lengthening
//! backup paths, and the decision process compares path lengths right after
//! LOCAL_PREF. Paths here are simple sequences (no AS_SETs — route
//! aggregation is out of scope for the reproduction).
//!
//! # Interning
//!
//! The path universe is tiny relative to the route count: a route for one
//! prefix is copied into thousands of Adj-RIB-Ins, but the distinct hop
//! sequences number in the thousands at most. [`AsPath`] is therefore a
//! copyable handle — a [`PathTable`] id plus the (hot) length — and
//! propagation composes ids instead of cloning `Vec<Asn>`.
//!
//! The table is hash-consed: each path is one cell `(nearest hop, id of the
//! rest)`, and id 0 is the empty path. Every export prepends a hop to a path
//! the exporter already holds, so a new path costs one 8-byte cell and paths
//! sharing a tail share its cells. One `(rest, hop) → id` map is the whole
//! index, and it stands in for what a flat table of hop copies needs five
//! structures for:
//!
//! - the hop arena and the per-id `(start, len)` spans are the cells: a
//!   path's hops are its chain, read nearest first;
//! - the hash-of-hops index and its collision chain are the map: a cell's
//!   key is the whole path, so equal paths meet in one entry;
//! - the `(base, asn, count)` prepend memo is gone: prepending `count` hops
//!   is `count` probes of the same map, and interning a slice folds its hops
//!   in from the origin end.
//!
//! Readers walk the cells: `first`, `contains`, `origin` and `Display` copy
//! nothing, and [`AsPath::with_hops`] lends the chain laid out in a buffer
//! the table reuses. A table that is cleared and reused allocates nothing
//! once it has grown to the size of the largest cell it served.
//!
//! # Scopes
//!
//! Each thread has one *current* table, reached through [`PathTable::with`].
//! A table lives for one cell, not for the thread: [`PathTable::scope`]
//! swaps a cleared table in for the duration of a closure and restores the
//! caller's table afterwards. Every cell body (`run_failover`,
//! `measure_control`, the Appendix C.1 analysis and each Figure 3/4
//! instance) runs inside a scope, so a thread's path memory is bounded by
//! its largest cell rather than by every path it has ever seen.
//!
//! What may not escape a scope: any [`AsPath`] or [`PathId`] minted inside
//! it. Once the scope ends its ids name nothing (the table is reused by the
//! next scope), so a cell's results carry hops, never handles. Conversely a
//! handle minted outside a scope cannot be resolved *inside* it — the
//! caller's table is swapped out — but resolves again, unchanged, once the
//! scope returns. The empty path is the same in every table and stays valid
//! everywhere. Debug builds record on each `AsPath` the scope that minted
//! it and panic, naming both scopes, when it is resolved under another;
//! release builds keep the handle at two words.
//!
//! Handles never cross threads either: every cell runs start-to-finish on
//! one thread and results serialize hops (never ids), so `AsPath` is
//! deliberately `!Send` and an accidental cross-thread move is a compile
//! error rather than silent id confusion. Ids are not comparable across
//! tables — equality of two `AsPath` values from the same table is exactly
//! equality of their hop sequences, and nothing observable depends on id
//! *values*.

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::rc::Rc;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::hash::FastHashMap;

/// An autonomous system number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Handle to an interned hop sequence in the thread's current [`PathTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PathId(u32);

/// The deduplicating path store: one `(hop, rest)` cell per path.
///
/// The current table of this thread is reached through [`PathTable::with`];
/// [`PathTable::scope`] gives a closure a table of its own (see the module
/// docs).
pub struct PathTable {
    /// id → `(nearest hop, id of the rest of the path)`. Entry 0 is the
    /// empty path; its cell is never read.
    cells: Vec<(Asn, u32)>,
    /// `(id of the rest, nearest hop)` → id: every cell's key, so a hop
    /// sequence is interned once.
    ids: FastHashMap<(u32, Asn), u32>,
    /// Where [`hops`](Self::hops) lays a path out; kept for its capacity.
    buf: Vec<Asn>,
    /// Which scope this table currently serves; the number [`AsPath`]s
    /// minted here carry.
    #[cfg(debug_assertions)]
    scope: u32,
}

thread_local! {
    static TABLE: RefCell<PathTable> = RefCell::new(PathTable::new());
    /// Tables of finished scopes, kept with their capacity for the next
    /// scope at the same nesting depth.
    static SPARES: RefCell<Vec<PathTable>> = const { RefCell::new(Vec::new()) };
}

/// Source of scope numbers; 0 is reserved for the empty path, which is
/// valid in every scope.
#[cfg(debug_assertions)]
static NEXT_SCOPE: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(1);

/// The hops of one path, nearest first, read cell by cell.
struct Hops<'a> {
    cells: &'a [(Asn, u32)],
    id: u32,
}

impl Iterator for Hops<'_> {
    type Item = Asn;

    #[inline]
    fn next(&mut self) -> Option<Asn> {
        if self.id == 0 {
            return None;
        }
        let (hop, rest) = self.cells[self.id as usize];
        self.id = rest;
        Some(hop)
    }
}

/// Puts the caller's table back when a [`PathTable::scope`] ends, also when
/// it ends by unwinding.
struct RestoreOuter(Option<PathTable>);

impl Drop for RestoreOuter {
    fn drop(&mut self) {
        if let Some(outer) = self.0.take() {
            let inner = TABLE.with(|t| std::mem::replace(&mut *t.borrow_mut(), outer));
            SPARES.with(|s| s.borrow_mut().push(inner));
        }
    }
}

impl PathTable {
    fn new() -> PathTable {
        let mut table = PathTable {
            cells: Vec::new(),
            ids: FastHashMap::default(),
            buf: Vec::new(),
            #[cfg(debug_assertions)]
            scope: 0,
        };
        table.clear();
        table
    }

    /// Empties the table down to the empty path and gives it a fresh scope
    /// number; every capacity is kept.
    fn clear(&mut self) {
        self.cells.clear();
        self.ids.clear();
        self.cells.push((Asn(0), 0));
        #[cfg(debug_assertions)]
        {
            self.scope = NEXT_SCOPE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Runs `f` against this thread's current table.
    pub fn with<R>(f: impl FnOnce(&mut PathTable) -> R) -> R {
        TABLE.with(|t| f(&mut t.borrow_mut()))
    }

    /// Runs `f` with a cleared table of its own as this thread's current
    /// table, then restores the caller's table (also if `f` panics). Handles
    /// minted inside `f` must not outlive it; handles minted before resolve
    /// again afterwards (see the module docs). The table is reused by the
    /// next scope, so a warm scope allocates nothing for paths it has room
    /// for.
    pub fn scope<R>(f: impl FnOnce() -> R) -> R {
        let mut inner = SPARES
            .with(|s| s.borrow_mut().pop())
            .unwrap_or_else(PathTable::new);
        inner.clear();
        let outer = TABLE.with(|t| std::mem::replace(&mut *t.borrow_mut(), inner));
        let _restore = RestoreOuter(Some(outer));
        f()
    }

    /// Number of distinct hop sequences in this table, the empty path
    /// included.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// The table always holds at least the empty path.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Id of `hop` followed by the path `rest`: one map probe, plus one
    /// cell if the path is new to the table.
    fn cons(&mut self, hop: Asn, rest: u32) -> u32 {
        let next = u32::try_from(self.cells.len()).expect("path table exceeds u32 ids");
        let id = *self.ids.entry((rest, hop)).or_insert(next);
        if id == next {
            self.cells.push((hop, rest));
        }
        id
    }

    /// Interns `hops` (nearest first), consing them on from the origin end.
    pub fn intern(&mut self, hops: &[Asn]) -> PathId {
        PathId(hops.iter().rev().fold(0, |rest, &hop| self.cons(hop, rest)))
    }

    /// The hops behind `id`, nearest first, laid out in a buffer the table
    /// reuses.
    pub fn hops(&mut self, id: PathId) -> &[Asn] {
        self.buf.clear();
        self.buf.extend(Hops {
            cells: &self.cells,
            id: id.0,
        });
        &self.buf
    }

    /// Id of `asn` repeated `count` times, followed by the hops of `base`:
    /// `count` conses.
    pub fn prepend(&mut self, base: PathId, asn: Asn, count: u16) -> PathId {
        PathId((0..count).fold(base.0, |rest, _| self.cons(asn, rest)))
    }
}

/// A BGP AS path: the sequence of ASes an announcement traversed, most
/// recent (nearest) first, origin last.
///
/// Prepending repeats the origin (or announcing) ASN to make the path less
/// preferred without changing reachability.
///
/// `AsPath` is a copyable interned handle (see the module docs): equality
/// and hashing are by id, the length rides inline so the decision process
/// never touches the table, and hop-reading accessors resolve through the
/// thread's current [`PathTable`]. A handle is valid only in the table
/// scope that minted it (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsPath {
    id: PathId,
    len: u32,
    /// The [`PathTable::scope`] that minted `id` (0 for the empty path,
    /// which every table holds). Checked on every resolve; debug builds
    /// only, so the release handle stays two words.
    #[cfg(debug_assertions)]
    scope: u32,
    /// Pins the value to the thread whose table minted `id`.
    _single_thread: PhantomData<Rc<()>>,
}

impl Default for AsPath {
    fn default() -> AsPath {
        AsPath::empty()
    }
}

impl AsPath {
    /// The handle for `id`, minted by table `_t`.
    fn mint(_t: &PathTable, id: PathId, len: usize) -> AsPath {
        AsPath {
            id,
            len: len as u32,
            #[cfg(debug_assertions)]
            scope: if id.0 == 0 { 0 } else { _t.scope },
            _single_thread: PhantomData,
        }
    }

    /// Panics (debug builds) if this handle was minted under another table
    /// scope than `_t`'s: its id would name some other path there.
    #[inline]
    fn check_scope(&self, _t: &PathTable) {
        #[cfg(debug_assertions)]
        assert!(
            self.scope == 0 || self.scope == _t.scope,
            "AsPath minted in path-table scope {} resolved in scope {}: \
             a path handle outlived its cell or entered another",
            self.scope,
            _t.scope
        );
    }

    /// Runs `f` over the hops, nearest first, read straight from the cells.
    fn walk<R>(&self, f: impl FnOnce(Hops<'_>) -> R) -> R {
        PathTable::with(|t| {
            self.check_scope(t);
            f(Hops {
                cells: &t.cells,
                id: self.id.0,
            })
        })
    }

    /// The empty path (a route at its origin, before any export).
    pub fn empty() -> AsPath {
        // Slot 0 of every table is the empty path; no table access needed.
        AsPath {
            id: PathId(0),
            len: 0,
            #[cfg(debug_assertions)]
            scope: 0,
            _single_thread: PhantomData,
        }
    }

    /// A path freshly originated by `origin`, optionally prepended
    /// `extra_prepends` additional times (so the origin appears
    /// `1 + extra_prepends` times).
    pub fn originate(origin: Asn, extra_prepends: u8) -> AsPath {
        let count = extra_prepends as u16 + 1;
        PathTable::with(|t| {
            let id = t.prepend(PathId(0), origin, count);
            AsPath::mint(t, id, count as usize)
        })
    }

    /// Builds a path from explicit hops, nearest first.
    pub fn from_hops(hops: &[Asn]) -> AsPath {
        PathTable::with(|t| {
            let id = t.intern(hops);
            AsPath::mint(t, id, hops.len())
        })
    }

    /// The interning id (diagnostics only; not stable across scopes).
    pub fn id(&self) -> PathId {
        self.id
    }

    /// Path length as used by the decision process (prepends count).
    /// Stored inline: the hot comparison never touches the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for a freshly-originated, never-exported path of length zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The hops, nearest first, copied out of the table.
    pub fn hops(&self) -> Vec<Asn> {
        self.walk(|h| h.collect())
    }

    /// Runs `f` over the hop slice, laid out in the table's reused buffer.
    pub fn with_hops<R>(&self, f: impl FnOnce(&[Asn]) -> R) -> R {
        PathTable::with(|t| {
            self.check_scope(t);
            f(t.hops(self.id))
        })
    }

    /// The origin AS (last hop), if any.
    pub fn origin(&self) -> Option<Asn> {
        self.walk(|h| h.last())
    }

    /// The neighbor AS that sent us the route (first hop), if any.
    pub fn first(&self) -> Option<Asn> {
        self.walk(|mut h| h.next())
    }

    /// Does the path contain `asn`? Used for loop detection on import:
    /// a router discards routes already carrying its own ASN.
    pub fn contains(&self, asn: Asn) -> bool {
        self.walk(|mut h| h.any(|a| a == asn))
    }

    /// Returns a new path with `asn` prepended `count` times. `count == 0`
    /// returns the path unchanged — useful when policy decides per-neighbor.
    pub fn prepended(&self, asn: Asn, count: u8) -> AsPath {
        if count == 0 {
            return *self;
        }
        PathTable::with(|t| {
            self.check_scope(t);
            let id = t.prepend(self.id, asn, count as u16);
            AsPath::mint(t, id, self.len as usize + count as usize)
        })
    }

    /// The number of *distinct* ASes on the path (prepends collapse).
    ///
    /// Appendix C.1 compares unicast and anycast paths; distinct-hop length
    /// is the meaningful quantity when paths carry different prepend counts.
    pub fn distinct_len(&self) -> usize {
        self.walk(|hops| {
            let mut n = 0;
            let mut prev: Option<Asn> = None;
            for h in hops {
                if prev != Some(h) {
                    n += 1;
                    prev = Some(h);
                }
            }
            n
        })
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.walk(|hops| {
            for (i, h) in hops.enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}", h.0)?;
            }
            Ok(())
        })
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self)
    }
}

// Hand-written so the wire shape stays exactly what the old
// `struct AsPath { hops: Vec<Asn> }` derive emitted: `{"hops": [u32...]}`.
// Ids never serialize; deserialization re-interns on the reading thread.
impl Serialize for AsPath {
    fn to_value(&self) -> Value {
        let hops = self.walk(|h| h.map(|a| Value::UInt(a.0 as u64)).collect());
        Value::Object(vec![(String::from("hops"), Value::Array(hops))])
    }
}

impl Deserialize for AsPath {
    fn from_value(v: &Value) -> Result<AsPath, DeError> {
        let hops: Vec<Asn> = serde::de::field(v, "hops")?;
        Ok(AsPath::from_hops(&hops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn originate_respects_prepend_count() {
        let p = AsPath::originate(Asn(47065), 0);
        assert_eq!(p.len(), 1);
        let p3 = AsPath::originate(Asn(47065), 3);
        assert_eq!(p3.len(), 4);
        assert_eq!(p3.origin(), Some(Asn(47065)));
        assert_eq!(p3.distinct_len(), 1);
    }

    #[test]
    fn prepended_puts_new_hops_first() {
        let p = AsPath::originate(Asn(1), 0)
            .prepended(Asn(2), 1)
            .prepended(Asn(3), 2);
        assert_eq!(p.hops(), &[Asn(3), Asn(3), Asn(2), Asn(1)]);
        assert_eq!(p.first(), Some(Asn(3)));
        assert_eq!(p.origin(), Some(Asn(1)));
        assert_eq!(p.distinct_len(), 3);
    }

    #[test]
    fn prepend_zero_is_identity() {
        let p = AsPath::originate(Asn(1), 2);
        assert_eq!(p.prepended(Asn(9), 0), p);
    }

    #[test]
    fn loop_detection_sees_every_hop() {
        let p = AsPath::from_hops(&[Asn(3), Asn(2), Asn(1)]);
        assert!(p.contains(Asn(2)));
        assert!(!p.contains(Asn(4)));
    }

    #[test]
    fn empty_path_edge_cases() {
        let e = AsPath::empty();
        assert!(e.is_empty());
        assert_eq!(e.origin(), None);
        assert_eq!(e.first(), None);
        assert_eq!(e.distinct_len(), 0);
        assert_eq!(e.to_string(), "");
    }

    #[test]
    fn display_is_space_separated() {
        let p = AsPath::from_hops(&[Asn(3), Asn(3), Asn(1)]);
        assert_eq!(p.to_string(), "3 3 1");
        assert_eq!(format!("{:?}", p), "[3 3 1]");
    }

    #[test]
    fn interning_dedups_equal_sequences() {
        let a = AsPath::from_hops(&[Asn(7), Asn(8)]);
        let b = AsPath::originate(Asn(8), 0).prepended(Asn(7), 1);
        assert_eq!(a.id(), b.id(), "same hops must intern to the same id");
        assert_eq!(a, b);
        let c = AsPath::from_hops(&[Asn(8), Asn(7)]);
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn serde_round_trip_is_hop_based() {
        let p = AsPath::from_hops(&[Asn(3), Asn(3), Asn(1)]);
        let v = p.to_value();
        // Exactly the shape the old derived `{ hops: Vec<Asn> }` produced.
        assert_eq!(
            serde_json::to_string(&v).unwrap(),
            "{\"hops\":[3,3,1]}".to_string()
        );
        let back = AsPath::from_value(&v).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.hops(), p.hops());
    }

    #[test]
    fn a_shared_tail_adds_one_cell_per_new_hop() {
        PathTable::scope(|| {
            PathTable::with(|t| {
                let long = t.intern(&[Asn(3), Asn(2), Asn(1)]);
                assert_eq!(t.len(), 4, "the empty path plus one cell per hop");
                // `[5, 4]` on the tail `[2, 1]` already held: two new cells.
                let branch = t.intern(&[Asn(5), Asn(4), Asn(2), Asn(1)]);
                assert_eq!(t.len(), 6);
                // A suffix of an interned path is interned already.
                let tail = t.intern(&[Asn(2), Asn(1)]);
                assert_eq!(t.len(), 6, "re-interning a suffix adds nothing");
                assert_eq!(t.intern(&[Asn(3), Asn(2), Asn(1)]), long);
                assert!(long != branch && branch != tail && long != tail);
                assert_eq!(t.hops(branch), &[Asn(5), Asn(4), Asn(2), Asn(1)]);
                assert_eq!(t.hops(tail), &[Asn(2), Asn(1)]);
            })
        });
    }

    #[test]
    fn a_count_three_prepend_adds_three_cells() {
        PathTable::scope(|| {
            PathTable::with(|t| {
                let base = t.intern(&[Asn(1)]);
                assert_eq!(t.len(), 2);
                let prepended = t.prepend(base, Asn(2), 3);
                assert_eq!(t.len(), 5);
                assert_eq!(
                    t.prepend(base, Asn(2), 3),
                    prepended,
                    "a repeat adds nothing"
                );
                assert_eq!(t.intern(&[Asn(2), Asn(2), Asn(2), Asn(1)]), prepended);
                assert_eq!(t.len(), 5);
                assert_eq!(t.prepend(base, Asn(2), 0), base);
            })
        });
    }

    #[test]
    fn scope_starts_empty_and_restores_the_callers_table() {
        let outer = AsPath::from_hops(&[Asn(10), Asn(11)]);
        let outer_len = PathTable::with(|t| t.len());
        let inner_hops = PathTable::scope(|| {
            assert_eq!(PathTable::with(|t| t.len()), 1);
            let p = AsPath::originate(Asn(11), 0).prepended(Asn(10), 1);
            // The empty path resolves in every scope.
            assert_eq!(AsPath::empty().hops(), Vec::<Asn>::new());
            assert_eq!(AsPath::from_hops(&[]), AsPath::empty());
            p.hops()
        });
        assert_eq!(inner_hops, outer.hops());
        assert_eq!(PathTable::with(|t| t.len()), outer_len);
        assert_eq!(outer.hops(), vec![Asn(10), Asn(11)]);
    }

    #[test]
    fn scope_restores_the_callers_table_after_a_panic() {
        let outer = AsPath::from_hops(&[Asn(20), Asn(21)]);
        let caught = std::panic::catch_unwind(|| {
            PathTable::scope(|| {
                AsPath::from_hops(&[Asn(1)]);
                panic!("cell failed");
            })
        });
        assert!(caught.is_err());
        assert_eq!(outer.hops(), vec![Asn(20), Asn(21)]);
    }

    #[test]
    fn release_handle_is_two_words() {
        let expected = if cfg!(debug_assertions) { 12 } else { 8 };
        assert_eq!(std::mem::size_of::<AsPath>(), expected);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "resolved in scope")]
    fn stale_handle_panics_in_debug_builds() {
        let escaped = PathTable::scope(|| AsPath::from_hops(&[Asn(1), Asn(2)]));
        PathTable::scope(|| escaped.hops());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "resolved in scope")]
    fn outer_handle_panics_inside_a_scope_in_debug_builds() {
        let outer = AsPath::from_hops(&[Asn(1), Asn(2)]);
        PathTable::scope(|| outer.prepended(Asn(3), 1));
    }
}
