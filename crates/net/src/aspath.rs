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
//! propagation composes ids instead of cloning `Vec<Asn>`: `prepended` is a
//! memoized `(base id, asn, count) → id` lookup, so the per-update hot path
//! neither allocates nor copies hops.
//!
//! A table stores every path's hops back to back in one flat arena, with a
//! `(start, len)` span per id and a hash-of-hops index, so a table that is
//! cleared and reused allocates nothing once it has grown to the size of
//! the largest cell it served.
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
use std::hash::Hasher;
use std::marker::PhantomData;
use std::rc::Rc;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::hash::{FastHashMap, FastHasher};

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

/// End of a collision chain in [`PathTable::chain`].
const NO_PATH: u32 = u32::MAX;

/// The deduplicating path store: id ↔ hop-sequence, plus a composition memo
/// so repeated prepends of the same base resolve without touching hops.
///
/// The current table of this thread is reached through [`PathTable::with`];
/// [`PathTable::scope`] gives a closure a table of its own (see the module
/// docs).
pub struct PathTable {
    /// Every path's hops, back to back.
    hops: Vec<Asn>,
    /// id → `(start, len)` of its hops in `hops`. Entry 0 is always the
    /// empty path.
    spans: Vec<(u32, u32)>,
    /// Hash of a hop sequence → the newest id with that hash.
    index: FastHashMap<u64, u32>,
    /// id → the next older id whose hops hash the same, or [`NO_PATH`].
    chain: Vec<u32>,
    /// `(base id, asn, count)` → id of `asn^count ++ base`.
    compose: FastHashMap<(u32, u32, u16), u32>,
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

fn hash_hops(hops: &[Asn]) -> u64 {
    let mut h = FastHasher::default();
    h.write_usize(hops.len());
    for a in hops {
        h.write_u32(a.0);
    }
    h.finish()
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
            hops: Vec::new(),
            spans: Vec::new(),
            index: FastHashMap::default(),
            chain: Vec::new(),
            compose: FastHashMap::default(),
            #[cfg(debug_assertions)]
            scope: 0,
        };
        table.clear();
        table
    }

    /// Empties the table down to the empty path and gives it a fresh scope
    /// number; every capacity is kept.
    fn clear(&mut self) {
        self.hops.clear();
        self.spans.clear();
        self.index.clear();
        self.chain.clear();
        self.compose.clear();
        self.push_span(0, hash_hops(&[]));
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
        self.spans.len()
    }

    /// The table always holds at least the empty path.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Interns `hops`, returning the id of the canonical copy.
    pub fn intern(&mut self, hops: &[Asn]) -> PathId {
        self.intern_hashed(hops, hash_hops(hops))
    }

    /// [`intern`](Self::intern) with the hash supplied by the caller.
    fn intern_hashed(&mut self, hops: &[Asn], hash: u64) -> PathId {
        if let Some(id) = self.find(hops, hash) {
            return id;
        }
        let start = self.hops.len();
        self.hops.extend_from_slice(hops);
        self.push_span(start, hash)
    }

    /// The id whose hops equal `hops`, following the collision chain of
    /// `hash`.
    fn find(&self, hops: &[Asn], hash: u64) -> Option<PathId> {
        let mut id = *self.index.get(&hash)?;
        while id != NO_PATH {
            if self.hops(PathId(id)) == hops {
                return Some(PathId(id));
            }
            id = self.chain[id as usize];
        }
        None
    }

    /// Registers the arena's tail from `start` on as a new path.
    fn push_span(&mut self, start: usize, hash: u64) -> PathId {
        let end = u32::try_from(self.hops.len()).expect("path arena exceeds u32 offsets");
        let id = self.spans.len() as u32;
        self.spans.push((start as u32, end - start as u32));
        self.chain
            .push(self.index.insert(hash, id).unwrap_or(NO_PATH));
        PathId(id)
    }

    /// The hops behind `id`, nearest first.
    pub fn hops(&self, id: PathId) -> &[Asn] {
        let (start, len) = self.spans[id.0 as usize];
        &self.hops[start as usize..(start + len) as usize]
    }

    /// Id of `asn` repeated `count` times, followed by the hops of `base`.
    /// Memoized: the steady-state cost is one map lookup, no hop copies. A
    /// miss writes the new sequence straight onto the arena's tail and
    /// keeps it only if it is not already interned.
    pub fn prepend(&mut self, base: PathId, asn: Asn, count: u16) -> PathId {
        if count == 0 {
            return base;
        }
        let key = (base.0, asn.0, count);
        if let Some(&id) = self.compose.get(&key) {
            return PathId(id);
        }
        let (start, len) = self.spans[base.0 as usize];
        let tail = self.hops.len();
        self.hops.extend(std::iter::repeat_n(asn, count as usize));
        self.hops
            .extend_from_within(start as usize..(start + len) as usize);
        let hash = hash_hops(&self.hops[tail..]);
        let id = match self.find(&self.hops[tail..], hash) {
            Some(id) => {
                self.hops.truncate(tail);
                id
            }
            None => self.push_span(tail, hash),
        };
        self.compose.insert(key, id.0);
        id
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

    /// Builds a path from explicit hops, nearest first. Interns the slice
    /// directly: no copy is made unless the sequence is new to the table.
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
        self.with_hops(<[Asn]>::to_vec)
    }

    /// Runs `f` over the hop slice without copying.
    pub fn with_hops<R>(&self, f: impl FnOnce(&[Asn]) -> R) -> R {
        PathTable::with(|t| {
            self.check_scope(t);
            f(t.hops(self.id))
        })
    }

    /// The origin AS (last hop), if any.
    pub fn origin(&self) -> Option<Asn> {
        self.with_hops(|h| h.last().copied())
    }

    /// The neighbor AS that sent us the route (first hop), if any.
    pub fn first(&self) -> Option<Asn> {
        self.with_hops(|h| h.first().copied())
    }

    /// Does the path contain `asn`? Used for loop detection on import:
    /// a router discards routes already carrying its own ASN.
    pub fn contains(&self, asn: Asn) -> bool {
        self.with_hops(|h| h.contains(&asn))
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
        self.with_hops(|hops| {
            let mut n = 0;
            let mut prev: Option<Asn> = None;
            for &h in hops {
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
        self.with_hops(|hops| {
            let mut first = true;
            for h in hops {
                if !first {
                    write!(f, " ")?;
                }
                write!(f, "{}", h.0)?;
                first = false;
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
        let hops = self.with_hops(|h| h.iter().map(|a| Value::UInt(a.0 as u64)).collect());
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
    fn colliding_hashes_chain_to_distinct_paths() {
        PathTable::scope(|| {
            PathTable::with(|t| {
                // Force three different sequences under one hash value.
                let hash = 0xdead_beef;
                let a = t.intern_hashed(&[Asn(1), Asn(2)], hash);
                let b = t.intern_hashed(&[Asn(3)], hash);
                let c = t.intern_hashed(&[Asn(4), Asn(4), Asn(5)], hash);
                assert_eq!(t.len(), 4);
                assert!(a != b && b != c && a != c);
                // Each lookup walks the chain to its own entry, newest first.
                assert_eq!(t.intern_hashed(&[Asn(1), Asn(2)], hash), a);
                assert_eq!(t.intern_hashed(&[Asn(3)], hash), b);
                assert_eq!(t.intern_hashed(&[Asn(4), Asn(4), Asn(5)], hash), c);
                assert_eq!(t.len(), 4, "re-interning adds nothing");
                assert_eq!(t.hops(a), &[Asn(1), Asn(2)]);
                assert_eq!(t.hops(b), &[Asn(3)]);
                assert_eq!(t.hops(c), &[Asn(4), Asn(4), Asn(5)]);
                assert_eq!(t.find(&[Asn(9)], hash), None);
            })
        });
    }

    #[test]
    fn prepend_of_an_interned_sequence_reuses_its_id() {
        PathTable::scope(|| {
            PathTable::with(|t| {
                let direct = t.intern(&[Asn(2), Asn(2), Asn(1)]);
                let arena = t.hops.len();
                let base = t.intern(&[Asn(1)]);
                let arena_with_base = t.hops.len();
                assert_eq!(arena_with_base, arena + 1);
                assert_eq!(t.prepend(base, Asn(2), 2), direct);
                assert_eq!(t.hops.len(), arena_with_base, "the probe tail is dropped");
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
