//! The message-level wire path must not cost the allocator more than the
//! abstract model does: once its buffers are warm, encoding, decoding and
//! re-interning a route message allocates nothing. A counting global
//! allocator tallies alloc and realloc calls made on the test's own thread
//! during one withdraw/re-announce wave, per delivered message.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
use bobw_event::RngFactory;
use bobw_net::Prefix;
use bobw_topology::{generate, GenConfig};

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

/// Allocator calls per delivered message over the third withdraw/re-announce
/// wave of one prefix from one site (the first two warm every buffer up).
fn wave_calls_per_message(message_level: bool) -> f64 {
    let rng = RngFactory::new(7);
    let (topo, cdn) = generate(&GenConfig::small(), &rng);
    let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
    let site = cdn.site_nodes()[0];
    let mut s = Standalone::new(&topo, BgpTimingConfig::default(), &rng);
    if message_level {
        s.enable_message_level();
    }
    s.announce(site, prefix, OriginConfig::plain());
    s.run_to_idle(u64::MAX);
    let wave = |s: &mut Standalone| {
        let (calls0, msgs0) = (calls(), s.sim().stats().messages);
        s.withdraw(site, prefix);
        s.run_to_idle(u64::MAX);
        s.announce(site, prefix, OriginConfig::plain());
        s.run_to_idle(u64::MAX);
        let msgs = s.sim().stats().messages - msgs0;
        assert!(msgs > 100, "a wave delivers messages ({msgs})");
        (calls() - calls0) as f64 / msgs as f64
    };
    wave(&mut s);
    wave(&mut s);
    wave(&mut s)
}

#[test]
fn message_level_wire_path_allocates_like_the_abstract_model() {
    let abstract_model = wave_calls_per_message(false);
    let message_level = wave_calls_per_message(true);
    assert!(
        message_level <= abstract_model + 0.25,
        "allocator calls per delivered message: message-level {message_level:.3}, \
         abstract {abstract_model:.3}"
    );
}
