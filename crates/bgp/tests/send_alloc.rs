//! A node's send table allocates nothing once it has a row for every
//! prefix: after a warm-up, a second identical export burst (updates for
//! four prefixes from one customer, re-exported to every other neighbor and
//! fired) makes no allocator call. A counting global allocator tallies
//! alloc and realloc calls made on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bobw_bgp::{BgpEvent, BgpNode, BgpTimingConfig, Emitted, Message, WireRoute};
use bobw_event::{RngFactory, SimDuration, SimTime};
use bobw_net::{AsPath, Asn, NodeId, Prefix};
use bobw_topology::Rel;
use rand::rngs::SmallRng;

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

/// A node with one customer (neighbor 1) and 15 peers and providers.
fn node() -> BgpNode {
    let neighbors = (1..=16u32)
        .map(|peer| {
            let rel = match peer {
                1 => Rel::Customer,
                2..=8 => Rel::Peer,
                _ => Rel::Provider,
            };
            BgpNode::neighbor_state(
                NodeId(peer),
                Asn(100 + peer),
                rel,
                SimDuration::from_millis(5),
                SimDuration::from_secs(30),
            )
        })
        .collect();
    BgpNode::new(NodeId(0), Asn(100), neighbors)
}

/// One burst: the customer sends `route` for every prefix, and every send
/// timer that arms is fired. Returns how many messages went on the wire.
fn burst(
    n: &mut BgpNode,
    prefixes: &[Prefix],
    route: WireRoute,
    now: SimTime,
    rng: &mut SmallRng,
    out: &mut Emitted,
    sent: &mut Emitted,
) -> usize {
    let timing = BgpTimingConfig::default();
    out.clear();
    sent.clear();
    for &prefix in prefixes {
        n.receive(
            now,
            NodeId(1),
            Message::Update { prefix, route },
            &timing,
            rng,
            out,
        );
    }
    for (_, ev) in out.iter() {
        if let BgpEvent::Fire {
            neighbor,
            prefix,
            gen,
            ..
        } = *ev
        {
            n.fire(now, neighbor, prefix, gen, &timing, sent);
        }
    }
    sent.len()
}

#[test]
fn a_second_identical_export_burst_makes_no_allocator_call() {
    let prefixes: Vec<Prefix> = (0..4)
        .map(|i| format!("10.0.{i}.0/24").parse().expect("valid prefix"))
        .collect();
    let route = |hops: &[u32]| WireRoute {
        path: AsPath::from_hops(&hops.iter().map(|&a| Asn(a)).collect::<Vec<_>>()),
        med: 0,
        origin: NodeId(9),
        no_export: false,
    };
    let (long, short) = (route(&[101, 7, 8, 9]), route(&[101, 9]));
    let mut n = node();
    let mut rng = RngFactory::new(1).stream("test", 0);
    let (mut out, mut sent) = (Vec::new(), Vec::new());
    let mut now = SimTime::ZERO;
    let mut step = |n: &mut BgpNode, r: WireRoute| {
        now += SimDuration::from_secs(60);
        burst(n, &prefixes, r, now, &mut rng, &mut out, &mut sent)
    };

    let before_warm_up = calls();
    let warm = (step(&mut n, long), step(&mut n, short));
    let warm_up_calls = calls() - before_warm_up;
    assert!(warm_up_calls > 0, "the counter sees the warm-up's growth");
    assert_eq!(warm, (60, 60), "each burst exports to 15 neighbors");

    let before = calls();
    let again = (step(&mut n, long), step(&mut n, short));
    let steady_calls = calls() - before;
    assert_eq!(again, warm);
    assert_eq!(
        steady_calls, 0,
        "allocator calls in a warm export burst (warm-up made {warm_up_calls})"
    );
}
