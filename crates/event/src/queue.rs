//! A hierarchical timer wheel with a strict `(time, seq)` total order.
//!
//! # Why not a binary heap?
//!
//! The simulator's hot loop is push/pop on this queue — millions of events
//! per failover cell. A single global `BinaryHeap` pays `O(log n)` compares
//! (and cache misses) per operation at queue depths in the thousands. A
//! calendar/timer wheel files far-out events into coarse time buckets for
//! `O(1)` amortized insertion and only pays heap discipline for the handful
//! of events inside the *current* few-millisecond window.
//!
//! # Structure
//!
//! Every pending event lives in one queue-owned **slab**; the lanes below
//! hold only slab indices:
//!
//! * **slab**: pages of 1024 entries (`at`, payload, and `seq` packed with a
//!   24-bit link into one word), grown a page at a time and never moved or
//!   shrunk. Popped entries go on an
//!   intrusive free list and are reused by later pushes, so a queue that
//!   has reached its working depth allocates nothing more.
//! * **L0**: 1024 slots of 2^22 ns (≈4.2 ms) each — covers ≈4.3 s ahead.
//! * **L1**: 1024 slots of 2^32 ns (≈4.3 s) each — covers ≈73 min ahead.
//!   An L0/L1 slot is the head of an intrusive singly linked list threaded
//!   through the slab entries' links: filing an event is two index writes,
//!   and a slot costs 4 bytes whether it holds nothing or thousands.
//! * **overflow**: a min-heap of keys for anything farther out (BGP timers
//!   never get here; `FAR_FUTURE` sentinels would).
//! * **ready**: a small min-heap of keys for events in the current L0 window
//!   *and* any event pushed at or before the cursor (handlers scheduling
//!   "now" land here directly).
//!
//! A heap key is 16 bytes: the event's time, then its insertion `seq` and
//! its slab index packed into one word (`seq << 24 | index`). The payload
//! never moves between lanes; only its index and key do.
//!
//! The cursor (`pos0`, an absolute L0 slot number — never wrapped, so there
//! is no ambiguity between wheel cycles) advances only when `ready` drains:
//! the next non-empty L0 slot is spilled into `ready`, L1 slots cascade into
//! L0 when the cursor crosses an L1 boundary, and overflow events are pulled
//! in once they fit the L1 horizon. Empty stretches are skipped a slot (or
//! an L1 boundary, or straight to the overflow minimum) at a time without
//! touching event data.
//!
//! # Determinism contract
//!
//! Ordering is **exactly** what the old heap provided and what the
//! reproduction's byte-identity gates rely on: strictly by `(time, seq)`,
//! where `seq` is the global insertion number — equal-time events pop FIFO.
//! Buckets never reorder anything: a slot is drained in its entirety into
//! the `ready` heap before any of its events pop, and the heap compares
//! keys by `(time, seq << 24 | index)`. Since `seq` is unique and occupies
//! the high bits, that is the `(time, seq)` order — the slab index in the
//! low bits never decides a comparison, so which entry the free list hands
//! out cannot change the processing order. Every event, near or far,
//! passes through `ready` exactly once; the win is that `ready` holds tens
//! of keys instead of the whole queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 10;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Slot-index mask.
const MASK: u64 = (SLOTS as u64) - 1;
/// L0 granularity: events within the same 2^22 ns (≈4.2 ms) share a slot.
const S0: u32 = 22;
/// L1 granularity: 2^32 ns ≈ 4.3 s per slot.
const S1: u32 = S0 + SLOT_BITS;

/// log2 of the slab entries per page.
const PAGE_BITS: u32 = 10;
/// Slab entries per page.
const PAGE: usize = 1 << PAGE_BITS;
/// Bits of a key's low word that hold the slab index (fewer than 2^24
/// pending events), and of a slab entry's link word that hold the next
/// index; the insertion sequence number takes the other 40 bits of both
/// (2^40 pushes over a queue's lifetime).
const INDEX_BITS: u32 = 24;
/// Mask of the index bits.
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;
/// End of a slot list or of the free list; never a slab index.
const NIL: u32 = INDEX_MASK as u32;

/// One slab entry: a pending event, or a free entry (`payload == None`).
struct Node<E> {
    at: SimTime,
    /// `seq << INDEX_BITS | next`, where `next` is the following entry in
    /// the same L0/L1 slot list or in the free list. One word instead of
    /// two keeps an entry at 16 bytes plus its payload.
    link: u64,
    payload: Option<E>,
}

impl<E> Node<E> {
    fn next(&self) -> u32 {
        (self.link & INDEX_MASK) as u32
    }

    fn set_next(&mut self, next: u32) {
        self.link = (self.link & !INDEX_MASK) | next as u64;
    }
}

/// A heap key: min by `(at, seq)`, with the slab index riding in the low
/// bits of `tag` (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    at: u64,
    /// `seq << INDEX_BITS | slab index`.
    tag: u64,
}

impl Key {
    fn index(self) -> u32 {
        (self.tag & INDEX_MASK) as u32
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.at, other.tag).cmp(&(self.at, self.tag))
    }
}

/// Index of the first set bit at or after `start` in a [`SLOTS`]-bit map.
fn next_occupied(words: &[u64; SLOTS / 64], start: usize) -> Option<usize> {
    let mut w = start >> 6;
    let mut word = words[w] & (!0u64 << (start & 63));
    loop {
        if word != 0 {
            return Some((w << 6) + word.trailing_zeros() as usize);
        }
        w += 1;
        if w == SLOTS / 64 {
            return None;
        }
        word = words[w];
    }
}

/// The pages every pending event lives in, plus their free list.
struct Slab<E> {
    pages: Vec<Box<[Node<E>]>>,
    /// Head of the free list threaded through the entries' links.
    free: u32,
}

impl<E> Slab<E> {
    fn node(&self, i: u32) -> &Node<E> {
        &self.pages[(i >> PAGE_BITS) as usize][i as usize & (PAGE - 1)]
    }

    fn node_mut(&mut self, i: u32) -> &mut Node<E> {
        &mut self.pages[(i >> PAGE_BITS) as usize][i as usize & (PAGE - 1)]
    }

    fn capacity(&self) -> usize {
        self.pages.len() * PAGE
    }

    /// Adds one page and puts its entries on the free list.
    fn grow(&mut self) {
        let base = self.capacity();
        assert!(
            base + PAGE <= NIL as usize,
            "event queue: slab indices exceed {INDEX_BITS} bits"
        );
        let free = self.free;
        let page = (0..PAGE)
            .map(|i| Node {
                at: SimTime::ZERO,
                link: if i + 1 < PAGE {
                    (base + i + 1) as u64
                } else {
                    free as u64
                },
                payload: None,
            })
            .collect();
        self.pages.push(page);
        self.free = base as u32;
    }

    /// Stores an event in a free entry (adding a page if none is left) and
    /// returns its index.
    fn insert(&mut self, at: SimTime, seq: u64, payload: E) -> u32 {
        if self.free == NIL {
            self.grow();
        }
        let i = self.free;
        let node = self.node_mut(i);
        let next = node.next();
        node.at = at;
        node.link = seq << INDEX_BITS | NIL as u64;
        node.payload = Some(payload);
        self.free = next;
        i
    }

    /// Takes the event out of entry `i` and frees the entry.
    fn remove(&mut self, i: u32) -> E {
        let free = self.free;
        let node = self.node_mut(i);
        node.set_next(free);
        let payload = node.payload.take().expect("key points at a live entry");
        self.free = i;
        payload
    }

    fn key(&self, i: u32) -> Key {
        let node = self.node(i);
        Key {
            at: node.at.as_nanos(),
            tag: (node.link & !INDEX_MASK) | i as u64,
        }
    }

    /// The keys of the slot list starting at `head`.
    fn list_keys(&self, head: u32) -> impl Iterator<Item = Key> + '_ {
        let mut cur = head;
        std::iter::from_fn(move || {
            (cur != NIL).then(|| {
                let i = cur;
                cur = self.node(i).next();
                self.key(i)
            })
        })
    }
}

/// A deterministic future-event queue: min by `(time, insertion seq)`, so
/// equal timestamps process FIFO. See the module docs for the wheel layout.
pub struct EventQueue<E> {
    slab: Slab<E>,
    /// Events at or before the cursor window, ordered by `(time, seq)`.
    ready: BinaryHeap<Key>,
    /// Fine level: slot `i & MASK` heads the list of events with
    /// `at >> S0 == i`.
    l0: Vec<u32>,
    /// Occupancy bitmap over `l0` (bit `i` set ⇔ `l0[i]` non-empty), so the
    /// cursor can jump over empty stretches in a few word scans instead of
    /// stepping ~4.2 ms slots one by one (BGP delays are seconds apart).
    occ0: [u64; SLOTS / 64],
    /// Coarse level: slot `j & MASK` heads the list of events with
    /// `at >> S1 == j`.
    l1: Vec<u32>,
    /// Beyond the L1 horizon (> ≈73 min ahead of the cursor).
    overflow: BinaryHeap<Key>,
    /// Absolute L0 slot number of the current window (monotone, unwrapped).
    pos0: u64,
    count0: usize,
    count1: usize,
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates a queue whose slab holds `cap` pending events (rounded up to
    /// whole pages) before it adds a page. Allocation only: the order is
    /// the same at any capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut slab = Slab {
            pages: Vec::new(),
            free: NIL,
        };
        while slab.capacity() < cap {
            slab.grow();
        }
        EventQueue {
            slab,
            ready: BinaryHeap::new(),
            l0: vec![NIL; SLOTS],
            occ0: [0; SLOTS / 64],
            l1: vec![NIL; SLOTS],
            overflow: BinaryHeap::new(),
            pos0: 0,
            count0: 0,
            count1: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Pending events the slab can hold before it adds a page.
    pub fn capacity(&self) -> usize {
        self.slab.capacity()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `payload` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        assert!(
            seq < 1 << (64 - INDEX_BITS),
            "event queue: sequence numbers exhausted"
        );
        self.next_seq += 1;
        self.len += 1;
        let i = self.slab.insert(at, seq, payload);
        self.place(i);
    }

    /// Files slab entry `i` into the right lane relative to the current
    /// cursor. Also used when cascading, which is why it never touches
    /// `len`/`seq`.
    fn place(&mut self, i: u32) {
        let at = self.slab.node(i).at.as_nanos();
        let idx0 = at >> S0;
        if idx0 <= self.pos0 {
            // Current window, or scheduled at/before the cursor (handlers
            // pushing "now"): heap-ordered with whatever is already ready.
            self.ready.push(self.slab.key(i));
        } else if idx0 - self.pos0 < SLOTS as u64 {
            let slot = (idx0 & MASK) as usize;
            let head = self.l0[slot];
            self.slab.node_mut(i).set_next(head);
            self.l0[slot] = i;
            self.occ0[slot >> 6] |= 1 << (slot & 63);
            self.count0 += 1;
        } else {
            let idx1 = at >> S1;
            if idx1 - (self.pos0 >> SLOT_BITS) < SLOTS as u64 {
                let slot = (idx1 & MASK) as usize;
                let head = self.l1[slot];
                self.slab.node_mut(i).set_next(head);
                self.l1[slot] = i;
                self.count1 += 1;
            } else {
                self.overflow.push(self.slab.key(i));
            }
        }
    }

    /// Advances the cursor until `ready` holds the globally earliest event
    /// (or the queue is empty). Each event moves between lanes at most a
    /// constant number of times over its lifetime, and empty slots are
    /// skipped without touching event data.
    fn refill(&mut self) {
        while self.ready.is_empty() && self.len > 0 {
            if self.count0 > 0 {
                // Jump to the next occupied L0 slot, stopping at the L1
                // boundary (which must cascade before the next block's
                // occupancy is known). Identical slot-visit order to
                // stepping one slot at a time — the skipped slots are
                // empty by the bitmap invariant.
                let first = ((self.pos0 + 1) & MASK) as usize;
                let bit = if (self.pos0 & MASK) == MASK {
                    None // cursor sits on the boundary slot already
                } else {
                    next_occupied(&self.occ0, first)
                };
                match bit {
                    Some(slot) => {
                        self.pos0 = (self.pos0 & !MASK) + slot as u64;
                        self.drain_l0_slot(slot);
                    }
                    None => {
                        // Nothing left in this block: cross into the next
                        // one, then take its slot 0 if occupied (events can
                        // be filed there before the cursor arrives).
                        self.pos0 = (self.pos0 | MASK) + 1;
                        self.cascade();
                        if self.occ0[0] & 1 != 0 {
                            self.drain_l0_slot(0);
                        }
                    }
                }
            } else if self.count1 > 0 {
                // Nothing within the L0 horizon: jump to the next L1
                // boundary and cascade that slot.
                self.pos0 = (self.pos0 | MASK) + 1;
                self.cascade();
            } else {
                // Only overflow events remain: jump the cursor straight to
                // the earliest one (safe — every nearer lane is empty).
                let at = self.overflow.peek().expect("len>0 with empty lanes").at;
                self.pos0 = at >> S0;
                self.pull_overflow();
            }
        }
    }

    /// Moves the keys of every event in L0 slot `slot` into `ready`,
    /// maintaining the occupancy bitmap and count.
    fn drain_l0_slot(&mut self, slot: usize) {
        let head = std::mem::replace(&mut self.l0[slot], NIL);
        self.occ0[slot >> 6] &= !(1 << (slot & 63));
        let before = self.ready.len();
        self.ready.extend(self.slab.list_keys(head));
        self.count0 -= self.ready.len() - before;
    }

    /// Spills the L1 slot the cursor just entered down into L0/ready, and
    /// pulls overflow events that now fit the L1 horizon.
    fn cascade(&mut self) {
        let pos1 = self.pos0 >> SLOT_BITS;
        let mut cur = std::mem::replace(&mut self.l1[(pos1 & MASK) as usize], NIL);
        while cur != NIL {
            let next = self.slab.node(cur).next();
            self.count1 -= 1;
            self.place(cur);
            cur = next;
        }
        self.pull_overflow();
    }

    fn pull_overflow(&mut self) {
        let pos1 = self.pos0 >> SLOT_BITS;
        while let Some(top) = self.overflow.peek() {
            let idx1 = top.at >> S1;
            if idx1 <= pos1 || idx1 - pos1 < SLOTS as u64 {
                let key = self.overflow.pop().expect("peeked non-empty");
                self.place(key.index());
            } else {
                break;
            }
        }
    }

    /// Pops the earliest ready key and returns its event.
    fn take_ready(&mut self) -> Option<(SimTime, E)> {
        let key = self.ready.pop()?;
        self.len -= 1;
        Some((SimTime::from_nanos(key.at), self.slab.remove(key.index())))
    }

    /// Removes and returns the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.refill();
        self.take_ready()
    }

    /// Pops the earliest event only if it is scheduled exactly at `t`.
    ///
    /// Used by the engine to drain a same-timestamp run in one wakeup
    /// without re-checking deadlines per event. Once the cursor has reached
    /// `t`, every remaining event at `t` is in the ready lane (slots are
    /// drained whole, and later pushes at `t` file as "at/before cursor"),
    /// so the hot path skips the refill entirely.
    pub fn pop_if_at(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.ready.is_empty() {
            self.refill();
        }
        if self.ready.peek()?.at != t.as_nanos() {
            return None;
        }
        self.take_ready()
    }

    /// The timestamp of the earliest event, if any. Advances the internal
    /// cursor (never the event order), hence `&mut`.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.refill();
        self.ready.peek().map(|k| SimTime::from_nanos(k.at))
    }

    /// Drops all pending events, keeping the slab's pages for reuse. The
    /// cursor keeps its position so time stays monotone for the owning
    /// engine.
    pub fn clear(&mut self) {
        self.ready.clear();
        self.overflow.clear();
        self.l0.fill(NIL);
        self.l1.fill(NIL);
        self.occ0 = [0; SLOTS / 64];
        // Rebuild the free list over every entry, dropping live payloads.
        self.slab.free = NIL;
        for i in (0..self.slab.capacity() as u32).rev() {
            let free = self.slab.free;
            let node = self.slab.node_mut(i);
            node.payload = None;
            node.set_next(free);
            self.slab.free = i;
        }
        self.count0 = 0;
        self.count1 = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(5), "c");
        q.push(t(1), "a");
        q.push(t(3), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(3), "b")));
        assert_eq!(q.pop(), Some((t(5), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(7), i)), "FIFO broken at {i}");
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(t(10), "late");
        q.push(t(5), "mid");
        assert_eq!(q.pop(), Some((t(5), "mid")));
        // Push earlier than an already-popped time region: still fine,
        // the queue orders purely by (time, seq) among what remains.
        q.push(t(1), "early-but-late-push");
        assert_eq!(q.pop(), Some((t(1), "early-but-late-push")));
        assert_eq!(q.pop(), Some((t(10), "late")));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(t(2), "x");
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "x")));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn with_capacity_preallocates_without_changing_order() {
        let mut q = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        q.push(t(2), "b");
        q.push(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(t(1), 1);
        q.push(t(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_different_batches_fifo() {
        let mut q = EventQueue::new();
        q.push(t(1), "first");
        assert_eq!(q.pop(), Some((t(1), "first")));
        q.push(t(1), "second");
        q.push(t(1), "third");
        assert_eq!(q.pop(), Some((t(1), "second")));
        assert_eq!(q.pop(), Some((t(1), "third")));
    }

    #[test]
    fn spans_all_wheel_levels() {
        // One event per lane: ready-window, L0, L1, overflow, FAR_FUTURE.
        let mut q = EventQueue::new();
        q.push(SimTime::FAR_FUTURE, "sentinel");
        q.push(SimTime::from_nanos(1), "now-ish");
        q.push(SimTime::from_nanos(50 << S0), "l0");
        q.push(t(60), "l1");
        q.push(t(2 * 3600), "overflow");
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), "now-ish")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(50 << S0), "l0")));
        assert_eq!(q.pop(), Some((t(60), "l1")));
        assert_eq!(q.pop(), Some((t(2 * 3600), "overflow")));
        assert_eq!(q.pop(), Some((SimTime::FAR_FUTURE, "sentinel")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_behind_cursor_after_long_jump_still_orders() {
        // Drain past a long empty stretch (cursor jumps), then push events
        // earlier than the cursor: they must still pop in (time, seq) order.
        let mut q = EventQueue::new();
        q.push(t(3600), "far");
        assert_eq!(q.peek_time(), Some(t(3600)));
        q.push(t(1), "a");
        q.push(t(1), "b");
        q.push(t(2), "c");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(1), "b")));
        assert_eq!(q.pop(), Some((t(2), "c")));
        assert_eq!(q.pop(), Some((t(3600), "far")));
    }

    #[test]
    fn cascade_preserves_fifo_within_coarse_slot() {
        // Two same-time events far enough out to land in L1 together must
        // still pop FIFO after cascading through L0.
        let mut q = EventQueue::new();
        let far = SimTime::from_nanos((5u64 << S1) + 12345);
        q.push(far, "first");
        q.push(far, "second");
        q.push(SimTime::from_nanos(10), "near");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "near")));
        assert_eq!(q.pop(), Some((far, "first")));
        assert_eq!(q.pop(), Some((far, "second")));
    }

    #[test]
    fn pop_if_at_only_takes_matching_time() {
        let mut q = EventQueue::new();
        q.push(t(1), "a");
        q.push(t(1), "b");
        q.push(t(2), "c");
        assert_eq!(q.peek_time(), Some(t(1)));
        assert_eq!(q.pop_if_at(t(1)), Some((t(1), "a")));
        assert_eq!(q.pop_if_at(t(1)), Some((t(1), "b")));
        assert_eq!(q.pop_if_at(t(1)), None, "next event is at t=2");
        assert_eq!(q.pop_if_at(t(2)), Some((t(2), "c")));
        assert_eq!(q.pop_if_at(t(2)), None);
    }

    #[test]
    fn dense_random_workload_matches_reference_sort() {
        // Deterministic pseudo-random times across all wheel levels,
        // compared against a stable sort by (time, insertion index).
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, usize)> = Vec::new();
        let mut x: u64 = 0x2545F4914F6CDD1D;
        for i in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Bias towards small times, but cover L1/overflow too.
            let ns = match i % 7 {
                0 => x % (1 << S0),               // current window
                1..=4 => x % (1 << (S1 - 1)),     // L0 span
                5 => x % (1 << (S1 + SLOT_BITS)), // L1 span
                _ => x % (1 << 45),               // overflow
            };
            q.push(SimTime::from_nanos(ns), i);
            expect.push((ns, i));
        }
        expect.sort_by_key(|&(ns, i)| (ns, i));
        for &(ns, i) in &expect {
            assert_eq!(q.pop(), Some((SimTime::from_nanos(ns), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn l0_slot_edges_keep_order_and_fifo() {
        // Events exactly on L0 slot boundaries (multiples of 2^22 ns), one
        // nanosecond before, and one after. Slot membership is `at >> S0`,
        // so `k<<S0` and `(k<<S0)+1` share slot `k` while `(k<<S0)-1` lives
        // in slot `k-1`; order must come out strictly by (time, seq) anyway.
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, usize)> = Vec::new();
        let mut id = 0usize;
        for k in [1u64, 2, 511, 512, 1023] {
            let edge = k << S0;
            for ns in [edge - 1, edge, edge + 1, edge] {
                q.push(SimTime::from_nanos(ns), id);
                expect.push((ns, id));
                id += 1;
            }
        }
        expect.sort_by_key(|&(ns, i)| (ns, i));
        for &(ns, i) in &expect {
            assert_eq!(q.pop(), Some((SimTime::from_nanos(ns), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn l0_horizon_edge_routes_to_l1_and_back() {
        // From a fresh cursor (pos0 = 0) the L0 horizon ends at slot 1023:
        // `1023 << S0` is the last L0-filed time and `1024 << S0` (= 1 << S1,
        // the first L1 boundary) must file into L1, then cascade into L0 when
        // the cursor crosses the block boundary. Pin both sides of the edge
        // plus a same-time pair straddling the cascade.
        let mut q = EventQueue::new();
        let last_l0 = (SLOTS as u64 - 1) << S0;
        let first_l1 = 1u64 << S1;
        q.push(SimTime::from_nanos(first_l1), "l1-edge-a");
        q.push(SimTime::from_nanos(last_l0), "l0-edge");
        q.push(SimTime::from_nanos(first_l1), "l1-edge-b");
        q.push(SimTime::from_nanos(first_l1 + 1), "l1-edge-next");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(last_l0), "l0-edge")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(first_l1), "l1-edge-a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(first_l1), "l1-edge-b")));
        assert_eq!(
            q.pop(),
            Some((SimTime::from_nanos(first_l1 + 1), "l1-edge-next"))
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_promotes_through_l1_without_reordering() {
        // An event beyond the L1 horizon (≥ 1024·2^32 ns ≈ 73 min) starts in
        // the overflow heap. Draining nearer events advances the cursor until
        // `pull_overflow` promotes it into L1, then `cascade` moves it into
        // L0/ready. Two same-time overflow events must survive both
        // promotions in FIFO order.
        let mut q = EventQueue::new();
        let beyond = (SLOTS as u64) << S1; // first time outside the L1 horizon
        q.push(SimTime::from_nanos(beyond + 7), "ovf-first".to_string());
        q.push(SimTime::from_nanos(beyond + 7), "ovf-second".to_string());
        q.push(SimTime::from_nanos(beyond), "ovf-edge".to_string());
        // A ladder of nearer events spread across L0 and L1, so the cursor
        // walks (not teleports) toward the overflow region and exercises the
        // cascade path, not the only-overflow jump in `refill`.
        for k in 0..8u64 {
            q.push(
                SimTime::from_nanos((k + 1) << (S1 - 1)),
                format!("rung-{k}"),
            );
        }
        for k in 0..8u64 {
            assert_eq!(
                q.pop(),
                Some((
                    SimTime::from_nanos((k + 1) << (S1 - 1)),
                    format!("rung-{k}")
                ))
            );
        }
        assert_eq!(
            q.pop(),
            Some((SimTime::from_nanos(beyond), "ovf-edge".to_string()))
        );
        assert_eq!(
            q.pop(),
            Some((SimTime::from_nanos(beyond + 7), "ovf-first".to_string()))
        );
        assert_eq!(
            q.pop(),
            Some((SimTime::from_nanos(beyond + 7), "ovf-second".to_string()))
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn only_overflow_jump_lands_exactly_on_the_minimum() {
        // When every nearer lane is empty, `refill` teleports the cursor to
        // the overflow minimum's slot. Later pushes earlier than that cursor
        // must still pop first (they file into `ready` as at/before-cursor).
        let mut q = EventQueue::new();
        let far = ((SLOTS as u64) + 3) << S1;
        q.push(SimTime::from_nanos(far), "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(far)));
        q.push(SimTime::from_nanos(far - 1), "now-earlier");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far - 1), "now-earlier")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far), "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_if_at_drains_tie_run_across_wheel_rollover() {
        // A same-timestamp run filed more than one full L0 wheel revolution
        // ahead (so the batch sits in L1 until the cursor rolls the L0 block
        // over and cascades). `pop_if_at` must drain the whole run FIFO,
        // including members pushed *during* the drain, and refuse the next
        // distinct timestamp.
        let mut q = EventQueue::new();
        let rollover = SimTime::from_nanos((SLOTS as u64 + 5) << S0);
        for i in 0..16 {
            q.push(rollover, i);
        }
        q.push(SimTime::from_nanos(40 << S0), -1); // nearer event, pops first
        q.push(SimTime::from_nanos((SLOTS as u64 + 9) << S0), 99); // next slot over
        assert_eq!(q.pop(), Some((SimTime::from_nanos(40 << S0), -1)));
        for i in 0..16 {
            assert_eq!(q.pop_if_at(rollover), Some((rollover, i)), "tie run at {i}");
            if i == 7 {
                // A handler scheduling "now" mid-run joins the same batch.
                q.push(rollover, 50);
            }
        }
        assert_eq!(q.pop_if_at(rollover), Some((rollover, 50)));
        assert_eq!(q.pop_if_at(rollover), None, "run exhausted");
        assert_eq!(
            q.pop(),
            Some((SimTime::from_nanos((SLOTS as u64 + 9) << S0), 99))
        );
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_drain_and_push_matches_reference() {
        // Alternate pushes and pops; remaining events must always pop in
        // (time, seq) order even as the cursor advances mid-stream.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut seq = 0usize;
        let mut pending: Vec<(u64, usize)> = Vec::new();
        let mut popped: Vec<(u64, usize)> = Vec::new();
        let mut clock = 0u64;
        for round in 0..200 {
            for _ in 0..(round % 5) + 1 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let ns = clock + x % SimDuration::from_secs(20).as_nanos();
                q.push(SimTime::from_nanos(ns), seq);
                pending.push((ns, seq));
                seq += 1;
            }
            for _ in 0..(round % 3) + 1 {
                if let Some((at, id)) = q.pop() {
                    clock = at.as_nanos();
                    popped.push((clock, id));
                }
            }
        }
        while let Some((at, id)) = q.pop() {
            popped.push((at.as_nanos(), id));
        }
        pending.sort_by_key(|&(ns, i)| (ns, i));
        assert_eq!(popped, pending);
    }
}
