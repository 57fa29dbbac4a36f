//! A reused path table allocates nothing in steady state: once one scope
//! has grown its cells and its index, a second scope that interns and
//! prepends the same paths makes no allocator call. And a cold table keeps
//! a few dozen bytes per entry, not a copy of every path's hops. A counting
//! global allocator tallies the alloc and realloc calls made on the test's
//! own thread, and the bytes they leave live.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bobw_net::{AsPath, Asn, PathTable};

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Tallies one allocator call that changes this thread's live bytes by
/// `bytes`; a free is not a call but does change the bytes.
fn count(call: bool, bytes: isize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    if call {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    }
    let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + bytes));
}

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(true, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(false, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(true, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

/// A few thousand paths of one to eight hops over a small ASN universe, so
/// prepends land on sequences already interned as well as on new ones.
fn sample_paths() -> Vec<Vec<Asn>> {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    (0..3000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = 1 + (x % 8) as usize;
            (0..len)
                .map(|k| Asn(1 + ((x >> (8 * k)) % 64) as u32))
                .collect()
        })
        .collect()
}

/// What a cell does to the table: intern, prepend onto interned bases,
/// originate, and read hops back.
fn cell(paths: &[Vec<Asn>]) -> usize {
    let mut hops_read = 0;
    for hops in paths {
        let p = AsPath::from_hops(hops);
        let q = p.prepended(hops[0], 2).prepended(Asn(7), 1);
        let o = AsPath::originate(hops[hops.len() - 1], 3);
        hops_read += q.with_hops(<[Asn]>::len) + o.with_hops(<[Asn]>::len);
    }
    hops_read
}

#[test]
fn a_warm_scope_makes_no_allocator_call() {
    let paths = sample_paths();
    let before_warm_up = calls();
    let warm = PathTable::scope(|| {
        let hops = cell(&paths);
        (hops, PathTable::with(|t| t.len()))
    });
    let warm_up_calls = calls() - before_warm_up;
    assert!(warm_up_calls > 0, "the counter sees the warm-up's growth");

    let before = calls();
    let again = PathTable::scope(|| {
        let hops = cell(&paths);
        (hops, PathTable::with(|t| t.len()))
    });
    let steady_calls = calls() - before;
    assert_eq!(again, warm, "the reused table holds the same paths");
    assert_eq!(
        steady_calls, 0,
        "allocator calls in a warm scope (warm-up made {warm_up_calls})"
    );
}

/// A table entry is one 8-byte cell plus one slot of the `(rest, hop)`
/// map, so a cold scope's table stays within 48 bytes an entry even right
/// after its map has doubled. A table that copies each path's hops costs
/// several times that.
#[test]
fn a_cold_scope_keeps_at_most_48_bytes_per_table_entry() {
    const BUDGET: usize = 48;
    let paths = sample_paths();
    // A fresh thread, so no earlier scope on it left a grown table behind.
    let (bytes, entries) = std::thread::spawn(move || {
        let before = live_bytes();
        PathTable::scope(|| {
            cell(&paths);
            (
                (live_bytes() - before) as usize,
                PathTable::with(|t| t.len()),
            )
        })
    })
    .join()
    .unwrap();
    assert!(
        entries > 3000,
        "the sample fills the table ({entries} entries)"
    );
    assert!(
        bytes <= BUDGET * entries,
        "a cold scope keeps {bytes} B live for {entries} table entries \
         ({} B each, budget {BUDGET})",
        bytes / entries
    );
}
