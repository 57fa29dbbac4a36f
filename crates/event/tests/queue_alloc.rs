//! A warm event queue allocates nothing: once one push/pop cycle has grown
//! the slab and the key heaps, a second cycle of the same shape makes no
//! allocator call. A counting global allocator tallies alloc and realloc
//! calls made on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bobw_event::{EventQueue, SimDuration, SimTime};

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// One cycle's length: a multiple of the L1 wheel's span (1024 × 2^32 ns),
/// so every cycle files its events into the same slots relative to the
/// cursor as the first.
const CYCLE_NS: u64 = 1 << 46;

/// Delays (ns) with a BGP-like mix: same-instant ties, the ready window,
/// L0, L1 and a few beyond the L1 horizon.
fn delays() -> Vec<u64> {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    (0..6000)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match i % 10 {
                0 => 0,
                1..=6 => x % 4_000_000_000,
                7..=8 => 4_000_000_000 + x % 120_000_000_000,
                _ => 4_500_000_000_000 + x % 4_500_000_000_000,
            }
        })
        .collect()
}

/// Pushes 3 000 events from `base`, then pops everything, re-scheduling a
/// follow-up for each of the first 3 000 pops as a handler would and
/// draining equal-time runs with `pop_if_at`. The cycle ends on a marker at
/// `base + CYCLE_NS`, which leaves the cursor where the next cycle starts.
/// Returns how many events popped.
fn cycle(q: &mut EventQueue<u64>, base: u64, delays: &[u64]) -> u64 {
    let (initial, follow_ups) = delays.split_at(3000);
    q.push(SimTime::from_nanos(base + CYCLE_NS), u64::MAX);
    for (i, &d) in initial.iter().enumerate() {
        q.push(SimTime::from_nanos(base + d), i as u64);
    }
    let mut pops = 0u64;
    let mut follow_ups = follow_ups.iter();
    while let Some((t, id)) = q.pop() {
        pops += 1;
        if id == u64::MAX {
            break;
        }
        if let Some(&d) = follow_ups.next() {
            q.push(t + SimDuration::from_nanos(d), id);
        }
        while q.pop_if_at(t).is_some() {
            pops += 1;
        }
    }
    assert!(q.is_empty(), "the marker pops last");
    pops
}

#[test]
fn a_warm_queue_makes_no_allocator_call() {
    let delays = delays();
    let before_warm_up = calls();
    let mut q = EventQueue::new();
    let warm = cycle(&mut q, 0, &delays);
    let warm_up_calls = calls() - before_warm_up;
    assert!(warm_up_calls > 0, "the counter sees the warm-up's growth");
    assert!(
        q.capacity() > 1024,
        "the cycle needs more than one slab page"
    );

    let before = calls();
    let again = cycle(&mut q, CYCLE_NS, &delays);
    let steady_calls = calls() - before;
    assert_eq!(again, warm, "both cycles pop the same events");
    assert_eq!(
        steady_calls, 0,
        "allocator calls in a warm cycle (warm-up made {warm_up_calls})"
    );
}
