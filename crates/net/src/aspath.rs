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
//! sequences number in the hundreds. [`AsPath`] is therefore a copyable
//! handle — a [`PathTable`] id plus the (hot) length — and propagation
//! composes ids instead of cloning `Vec<Asn>`: `prepended` is a memoized
//! `(base id, asn, count) → id` lookup, so the per-update hot path neither
//! allocates nor copies hops.
//!
//! The table is **thread-local**. Every simulation cell runs start-to-finish
//! on one thread and results serialize hops (never ids), so paths have no
//! reason to cross threads; `AsPath` is deliberately `!Send` so an
//! accidental cross-thread move is a compile error rather than silent id
//! confusion. Ids are not comparable across threads or runs — equality of
//! two `AsPath` values (same table) is exactly equality of their hop
//! sequences, and nothing observable depends on id *values*.

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

/// Handle to an interned hop sequence in the thread's [`PathTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PathId(u32);

/// The deduplicating path store: id ↔ hop-sequence, plus a composition memo
/// so repeated prepends of the same base resolve without touching hops.
///
/// One table exists per thread (see the module docs); all access goes
/// through [`PathTable::with`].
pub struct PathTable {
    /// id → hops. Entry 0 is always the empty path.
    paths: Vec<Rc<[Asn]>>,
    /// hops → id (shares the allocation with `paths`).
    index: FastHashMap<Rc<[Asn]>, u32>,
    /// `(base id, asn, count)` → id of `asn^count ++ base`.
    compose: FastHashMap<(u32, u32, u16), u32>,
}

thread_local! {
    static TABLE: RefCell<PathTable> = RefCell::new(PathTable::new());
}

impl PathTable {
    fn new() -> PathTable {
        let empty: Rc<[Asn]> = Rc::from(&[][..]);
        let mut index = FastHashMap::default();
        index.insert(Rc::clone(&empty), 0u32);
        PathTable {
            paths: vec![empty],
            index,
            compose: FastHashMap::default(),
        }
    }

    /// Runs `f` against this thread's table.
    pub fn with<R>(f: impl FnOnce(&mut PathTable) -> R) -> R {
        TABLE.with(|t| f(&mut t.borrow_mut()))
    }

    /// Number of distinct hop sequences interned on this thread so far.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// The table always holds at least the empty path.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Interns `hops`, returning the id of the canonical copy.
    pub fn intern(&mut self, hops: &[Asn]) -> PathId {
        if let Some(&id) = self.index.get(hops) {
            return PathId(id);
        }
        let id = self.paths.len() as u32;
        let rc: Rc<[Asn]> = Rc::from(hops);
        self.paths.push(Rc::clone(&rc));
        self.index.insert(rc, id);
        PathId(id)
    }

    /// The hops behind `id`, nearest first.
    pub fn hops(&self, id: PathId) -> &[Asn] {
        &self.paths[id.0 as usize]
    }

    /// Id of `asn` repeated `count` times, followed by the hops of `base`.
    /// Memoized: the steady-state cost is one map lookup, no hop copies.
    pub fn prepend(&mut self, base: PathId, asn: Asn, count: u16) -> PathId {
        if count == 0 {
            return base;
        }
        if let Some(&id) = self.compose.get(&(base.0, asn.0, count)) {
            return PathId(id);
        }
        let old = &self.paths[base.0 as usize];
        let mut hops = Vec::with_capacity(old.len() + count as usize);
        hops.extend(std::iter::repeat_n(asn, count as usize));
        hops.extend_from_slice(old);
        let id = self.intern(&hops);
        self.compose.insert((base.0, asn.0, count), id.0);
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
/// thread's [`PathTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct AsPath {
    id: PathId,
    len: u32,
    /// Pins the value to the thread whose table minted `id`.
    _single_thread: PhantomData<Rc<()>>,
}

impl Default for AsPath {
    fn default() -> AsPath {
        AsPath::empty()
    }
}

impl AsPath {
    fn from_id(id: PathId, len: usize) -> AsPath {
        AsPath {
            id,
            len: len as u32,
            _single_thread: PhantomData,
        }
    }

    /// The empty path (a route at its origin, before any export).
    pub fn empty() -> AsPath {
        // Slot 0 of every table is the empty path; no table access needed.
        AsPath::from_id(PathId(0), 0)
    }

    /// A path freshly originated by `origin`, optionally prepended
    /// `extra_prepends` additional times (so the origin appears
    /// `1 + extra_prepends` times).
    pub fn originate(origin: Asn, extra_prepends: u8) -> AsPath {
        let count = extra_prepends as u16 + 1;
        let id = PathTable::with(|t| t.prepend(PathId(0), origin, count));
        AsPath::from_id(id, count as usize)
    }

    /// Builds a path from explicit hops, nearest first. Interns the slice
    /// directly: no copy is made unless the sequence is new to the table.
    pub fn from_hops(hops: &[Asn]) -> AsPath {
        let id = PathTable::with(|t| t.intern(hops));
        AsPath::from_id(id, hops.len())
    }

    /// The interning id (diagnostics only; not stable across threads/runs).
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
        PathTable::with(|t| t.hops(self.id).to_vec())
    }

    /// Runs `f` over the hop slice without copying.
    pub fn with_hops<R>(&self, f: impl FnOnce(&[Asn]) -> R) -> R {
        PathTable::with(|t| f(t.hops(self.id)))
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
        let id = PathTable::with(|t| t.prepend(self.id, asn, count as u16));
        AsPath::from_id(id, self.len as usize + count as usize)
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
}
