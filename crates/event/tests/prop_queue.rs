//! Reference-model property test for the timer wheel: random interleavings
//! of `push`, `pop`, `pop_if_at`, `peek_time` and `clear` must behave
//! exactly like a `BTreeMap` keyed by `(time, insertion seq)`.
//!
//! Pushed times cover every lane of the wheel (the ready window, L0, L1,
//! overflow and `FAR_FUTURE`), exact ties with earlier pushes, and times
//! behind the cursor after it has jumped far ahead. Bursts push the queue
//! past one slab page, and pops free entries that later pushes reuse: the
//! slab never holds more pages than the deepest the queue has been needs.

use std::collections::BTreeMap;

use bobw_event::{EventQueue, SimTime};
use proptest::prelude::*;

/// Slab entries per page (`queue.rs`).
const PAGE: usize = 1024;

/// The queue under test, its reference, and the times the driver steers by.
struct Model {
    q: EventQueue<u64>,
    reference: BTreeMap<(u64, u64), u64>,
    next_seq: u64,
    /// Time of the latest pop: the simulated "now".
    clock: u64,
    /// The latest pushed time, for exact ties.
    last_push: u64,
    peak_len: usize,
}

impl Model {
    /// A time in one of the wheel's lanes, chosen by `lane`, relative to
    /// the clock. `r` is random bits.
    fn time(&self, lane: u8, r: u64) -> u64 {
        let now = self.clock;
        match lane {
            0 => self.last_push,                                // exact tie
            1 => now,                                           // tie with "now"
            2 => now.saturating_add(r % (1 << 22)),             // ready window
            3 => now.saturating_add(r % (1 << 32)),             // L0
            4 => now.saturating_add((1 << 32) + r % (1 << 42)), // L1
            5 => now.saturating_add((1 << 42) + r % (1 << 43)), // overflow
            6 => SimTime::FAR_FUTURE.as_nanos(),
            _ => r % (now / 2 + 1), // behind the cursor
        }
    }

    fn push(&mut self, at: u64) {
        let id = self.next_seq;
        self.next_seq += 1;
        self.q.push(SimTime::from_nanos(at), id);
        self.reference.insert((at, id), id);
        self.last_push = at;
        self.peak_len = self.peak_len.max(self.reference.len());
    }

    fn pop(&mut self) -> Result<(), TestCaseError> {
        let expected = self
            .reference
            .pop_first()
            .map(|((at, _), id)| (SimTime::from_nanos(at), id));
        let got = self.q.pop();
        prop_assert_eq!(got, expected, "pop");
        if let Some((at, _)) = got {
            self.clock = at.as_nanos();
        }
        Ok(())
    }

    fn pop_if_at(&mut self, t: u64) -> Result<(), TestCaseError> {
        let expected = match self.reference.first_key_value() {
            Some((&(at, _), _)) if at == t => self
                .reference
                .pop_first()
                .map(|((at, _), id)| (SimTime::from_nanos(at), id)),
            _ => None,
        };
        let got = self.q.pop_if_at(SimTime::from_nanos(t));
        prop_assert_eq!(got, expected, "pop_if_at({})", t);
        if let Some((at, _)) = got {
            self.clock = at.as_nanos();
        }
        Ok(())
    }
}

/// Splitmix-style bit mixer, so one drawn word yields a burst's lanes.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queue_matches_a_btreemap_reference(
        ops in proptest::collection::vec((0u8..40, 0u8..8, any::<u64>()), 1..500),
    ) {
        let mut m = Model {
            q: EventQueue::new(),
            reference: BTreeMap::new(),
            next_seq: 0,
            clock: 0,
            last_push: 0,
            peak_len: 0,
        };
        for &(op, lane, r) in &ops {
            match op {
                0..=15 => {
                    let at = m.time(lane, r);
                    m.push(at);
                }
                16..=17 => {
                    // A burst: enough to need a second slab page when
                    // pops lag behind.
                    let mut x = r;
                    for _ in 0..300 {
                        x = mix(x);
                        let at = m.time((x % 8) as u8, x >> 3);
                        m.push(at);
                    }
                }
                18..=27 => m.pop()?,
                28..=31 => {
                    // The earliest pending time (a match) or a near miss.
                    let first = m.reference.first_key_value().map(|(&(at, _), _)| at);
                    let t = match (first, lane % 3) {
                        (Some(at), 0 | 1) => at,
                        (Some(at), _) => at.wrapping_add(1),
                        (None, _) => m.time(lane, r),
                    };
                    m.pop_if_at(t)?;
                }
                32..=35 => {
                    let expected = m
                        .reference
                        .first_key_value()
                        .map(|(&(at, _), _)| SimTime::from_nanos(at));
                    prop_assert_eq!(m.q.peek_time(), expected, "peek_time");
                }
                36..=37 => {
                    // Drain a run of pops: the cursor walks (or jumps) far
                    // ahead, so later pushes land behind it.
                    for _ in 0..(r % 400) {
                        m.pop()?;
                    }
                }
                38 => {
                    // Drain everything, then keep going from an empty queue.
                    while !m.reference.is_empty() {
                        m.pop()?;
                    }
                    m.pop()?;
                }
                _ => {
                    m.q.clear();
                    m.reference.clear();
                }
            }
            prop_assert_eq!(m.q.len(), m.reference.len(), "len");
            prop_assert_eq!(m.q.is_empty(), m.reference.is_empty(), "is_empty");
        }
        while !m.reference.is_empty() {
            m.pop()?;
        }
        prop_assert_eq!(m.q.pop(), None);
        // Freed entries were reused: the slab grew only as far as the
        // deepest the queue has been.
        prop_assert_eq!(m.q.capacity(), m.peak_len.div_ceil(PAGE) * PAGE, "slab pages");
    }
}
