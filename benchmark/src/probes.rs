//! Per-layer probes: each replays one layer's share of the workload on the
//! workload's own testbed through that layer's public entry points, timed
//! from outside. A probe's counts (`*_events`, `*_messages`, sizes, …) are
//! deterministic for a fixed seed; its `*_ns` / `*_us` / `*_ms` are host
//! time. README.md maps every metric to the entry point it times and the
//! end-to-end metric it should move.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bobw_bench::{run_cells, TechniqueSeries};
use bobw_bgp::{BgpSim, FlatRib, OriginConfig, RouteAttrs, SimSeed, Standalone};
use bobw_core::{select_targets, Technique, Testbed, TrafficConfig};
use bobw_dataplane::{catchment, walk, walk_with_path, Delivery, ForwardEnv};
use bobw_dist::wire::{decode_exact, encode_vec};
use bobw_dist::{execute_cell, CellOutput};
use bobw_dns::{Authoritative, RecursiveResolver};
use bobw_event::queue::EventQueue;
use bobw_event::{RngFactory, SimDuration, SimTime};
use bobw_net::{Asn, NodeId, PathTable, Prefix, PrefixTrie};
use bobw_scenario::Scenario;
use bobw_session::{
    decode, encode, BgpMessage, FsmInput, FsmOutput, NotificationMsg, PeerFsm, SessionConfig,
    SessionPayload, TimerKind, UpdateAttrs, UpdateMsg, CEASE,
};
use bobw_topology::SiteId;
use bobw_traffic::{Steering, TrafficSim};
use rand::Rng;

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{results_of, six_techniques, Group};

pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

pub type Metrics = BTreeMap<String, Metric>;

pub fn put(out: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    out.insert(name.to_string(), Metric { value, unit });
}

/// Event budget for `run_to_idle` in probes (runaway protection only).
const MAX_EVENTS: u64 = 200_000_000;

fn secs(f: impl FnOnce()) -> f64 {
    let at = Instant::now();
    f();
    at.elapsed().as_secs_f64()
}

/// Median wall time of `reps` runs of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| secs(&mut f)).collect();
    median(&samples)
}

/// What the probes share: the testbed they replay on and the tracer their
/// calls are recorded under.
pub struct Probes<'a> {
    pub tb: &'a Testbed,
    pub tracer: &'a mut Tracer,
    pub op: usize,
    pub out: Metrics,
}

/// A control-plane-only simulator converged under one technique's
/// before-failure announcements plus the experiment's two measurement
/// prefixes — phase 1 of a failover cell.
fn converge(tb: &Testbed, technique: &Technique, failed: SiteId, cap: usize) -> (Standalone, f64) {
    let plan = &tb.cfg.plan;
    let mut sim = Standalone::with_queue_capacity(&tb.topo, tb.cfg.timing.clone(), &tb.rng, cap);
    for a in technique.before(plan, &tb.topo, &tb.cdn, failed) {
        sim.announce(a.node, a.prefix, a.cfg);
    }
    sim.announce(tb.cdn.node(failed), plan.rtt_probe, OriginConfig::plain());
    for site in tb.cdn.sites() {
        sim.announce(tb.cdn.node(site), plan.anycast_probe, OriginConfig::plain());
    }
    let s = secs(|| {
        sim.run_to_idle(MAX_EVENTS);
    });
    (sim, s)
}

impl Probes<'_> {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        put(&mut self.out, name, value, unit);
    }

    /// Runs `f` inside a span of `layer`.
    fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.span(layer, name, self.op, f)
    }

    pub fn topology(&mut self) {
        let (cfg, seed) = (&self.tb.cfg.gen, self.tb.cfg.seed);
        let s = self.span("topology", "generate", || {
            median_secs(3, || {
                black_box(bobw_topology::generate(cfg, &RngFactory::new(seed)));
            })
        });
        self.put("topology.generate_ms", s * 1e3, "ms");
        self.put("topology.nodes", self.tb.topo.len() as f64, "count");
        self.put("topology.links", self.tb.topo.link_count() as f64, "count");
    }

    /// `bgp` and `dataplane`: phase-1 convergence, the failed site's
    /// withdrawal (path exploration), a silent crash, the RIB decision on
    /// the converged candidate sets, and probe walks over the converged
    /// FIBs. Returns the replayed per-cell time of these layers in ms.
    pub fn bgp_and_dataplane(&mut self, queue_hint: usize, walks_per_cell: f64) -> f64 {
        let tb = self.tb;
        let timing = tb.cfg.timing.clone();
        let mut seed = SimSeed::new(&tb.topo, &timing, &tb.rng);
        let s = self.span("bgp", "SimSeed::new", || {
            median_secs(5, || seed = SimSeed::new(&tb.topo, &timing, &tb.rng))
        });
        self.put("bgp.simseed_ms", s * 1e3, "ms");
        let s = self.span("bgp", "BgpSim::from_seed", || {
            median_secs(25, || {
                black_box(BgpSim::from_seed(&tb.topo, timing.clone(), &seed));
            })
        });
        self.put("bgp.from_seed_us", s * 1e6, "us");

        // One cell per technique, each failing a different site.
        let techniques = six_techniques();
        let sites: Vec<SiteId> = tb.cdn.sites().collect();
        let (mut conv_s, mut conv_events, mut messages, mut best_changes) = (0.0, 0u64, 0u64, 0u64);
        let (mut wd_s, mut wd_events) = (0.0, 0u64);
        let mut anycast: Option<Standalone> = None;
        for (i, technique) in techniques.iter().enumerate() {
            let failed = sites[i % sites.len()];
            let (mut sim, s) = self.span("bgp", "converge", || {
                converge(tb, technique, failed, queue_hint)
            });
            conv_s += s;
            conv_events += sim.events_processed();
            let stats = sim.sim().stats();
            messages += stats.messages;
            best_changes += stats.best_changes;
            if matches!(technique, Technique::Anycast) {
                // Kept converged for the RIB, walk, DNS and traffic probes.
                anycast = Some(converge(tb, technique, failed, queue_hint).0);
            }
            let node = tb.cdn.node(failed);
            let before = sim.events_processed();
            wd_s += self.span("bgp", "withdraw", || {
                secs(|| {
                    for prefix in sim.sim().node(node).originated_prefixes() {
                        sim.withdraw(node, prefix);
                    }
                    sim.run_to_idle(MAX_EVENTS);
                })
            });
            wd_events += sim.events_processed() - before;
        }
        let n = techniques.len() as f64;
        self.put("bgp.converge_ms", conv_s * 1e3 / n, "ms");
        self.put("bgp.converge_events", conv_events as f64, "count");
        self.put(
            "bgp.converge_ns_per_event",
            conv_s * 1e9 / conv_events.max(1) as f64,
            "ns",
        );
        self.put("bgp.converge_messages", messages as f64, "count");
        self.put("bgp.converge_best_changes", best_changes as f64, "count");
        self.put("bgp.withdraw_ms", wd_s * 1e3 / n, "ms");
        self.put("bgp.withdraw_events", wd_events as f64, "count");
        self.put(
            "bgp.withdraw_ns_per_event",
            wd_s * 1e9 / wd_events.max(1) as f64,
            "ns",
        );

        // Silent crash of one site: every link drops, neighbours find out
        // by hold timer.
        let crashed = sites[0];
        let (mut sim, _) = converge(tb, &Technique::Anycast, crashed, queue_hint);
        let node = tb.cdn.node(crashed);
        let peers: Vec<NodeId> = tb.topo.neighbors(node).iter().map(|a| a.peer).collect();
        let before = sim.events_processed();
        let s = self.span("bgp", "fail_all_links", || {
            secs(|| {
                sim.fail_all_links(node, &peers);
                sim.run_to_idle(MAX_EVENTS);
            })
        });
        self.put("bgp.linkfail_ms", s * 1e3, "ms");
        self.put(
            "bgp.linkfail_events",
            (sim.events_processed() - before) as f64,
            "count",
        );

        let anycast = anycast.expect("anycast is one of the six techniques");
        self.rib(&anycast);
        let walk_ns = self.dataplane(&anycast, sites[3 % sites.len()], walks_per_cell);
        self.dns_and_traffic(&anycast);
        (conv_s + wd_s) * 1e3 / n + walks_per_cell * walk_ns / 1e6
    }

    /// `FlatRib::insert_at` + `select_from` over every node's converged
    /// candidate set for the anycast prefix.
    fn rib(&mut self, converged: &Standalone) {
        let tb = self.tb;
        let prefix = tb.cfg.plan.specific;
        let sets: Vec<Vec<(NodeId, RouteAttrs)>> = tb
            .topo
            .ids()
            .map(|id| converged.sim().node(id).adj_in(&prefix))
            .filter(|set| !set.is_empty())
            .collect();
        let inserts: usize = sets.iter().map(Vec::len).sum();
        let reps = 20;
        let s = self.span("bgp", "FlatRib insert_at+select_from", || {
            median_secs(reps, || {
                for set in &sets {
                    let mut rib = FlatRib::new();
                    let pidx = rib.intern(prefix);
                    for (i, (_, attrs)) in set.iter().enumerate() {
                        rib.insert_at(pidx, i as u32, *attrs);
                    }
                    black_box(bobw_bgp::select_from(&rib, &prefix, |nbr| {
                        let peer = set[nbr as usize].0;
                        (peer, tb.topo.node(peer).asn)
                    }));
                }
            })
        });
        self.put(
            "bgp.rib_insert_decide_ns",
            s * 1e9 / (inserts + sets.len()).max(1) as f64,
            "ns",
        );
    }

    /// Probe walks from every selected target over the converged FIBs.
    /// Returns ns per walk.
    fn dataplane(&mut self, converged: &Standalone, site: SiteId, walks_per_cell: f64) -> f64 {
        let tb = self.tb;
        let cfg = &tb.cfg;
        let mut targets = Vec::new();
        let s = self.span("core", "select_targets", || {
            median_secs(3, || {
                targets = select_targets(
                    &tb.topo,
                    &tb.cdn,
                    converged.sim(),
                    &cfg.plan,
                    site,
                    cfg.proximity_ms,
                    false,
                    cfg.targets_per_site,
                    &tb.rng,
                );
            })
        });
        self.put("core.select_targets_ms", s * 1e3, "ms");
        let env = ForwardEnv {
            topo: &tb.topo,
            bgp: converged.sim(),
            down: &[],
        };
        let dst = cfg.plan.probe_addr();
        let rounds = 200;
        let s = self.span("dataplane", "walk", || {
            median_secs(5, || {
                for _ in 0..rounds {
                    for t in &targets {
                        black_box(walk(&env, *t, dst));
                    }
                }
            })
        });
        let walk_ns = s * 1e9 / (rounds * targets.len()).max(1) as f64;
        self.put("dataplane.walk_ns", walk_ns, "ns");
        let hops: usize = self.span("dataplane", "walk_with_path", || {
            targets
                .iter()
                .map(|t| match walk_with_path(&env, *t, dst) {
                    (Delivery::Delivered { .. }, path) => path.len() - 1,
                    _ => 0,
                })
                .sum()
        });
        self.put(
            "dataplane.walk_hops_mean",
            hops as f64 / targets.len().max(1) as f64,
            "count",
        );
        self.put("dataplane.walks_per_cell", walks_per_cell, "count");
        walk_ns
    }

    /// A drain scenario's resolvers re-querying the authoritative at its
    /// TTL, and traffic ticks with the live catchment closure.
    fn dns_and_traffic(&mut self, converged: &Standalone) {
        let tb = self.tb;
        let plan = &tb.cfg.plan;
        let clients: Vec<NodeId> = tb.topo.client_nodes().collect();
        let ranking: Vec<SiteId> = tb.cdn.sites().collect();
        // maintenance-drain's TTL.
        let ttl = SimDuration::from_secs(30);
        let mut auth = Authoritative::new(
            (0..tb.cdn.num_sites())
                .map(|i| plan.site_prefix(i))
                .collect(),
            ttl,
        );
        for (i, c) in clients.iter().enumerate() {
            auth.assign(*c, ranking[i % ranking.len()]);
            auth.set_fallback(*c, ranking.clone());
        }
        let mut resolvers: Vec<RecursiveResolver> = clients
            .iter()
            .map(|c| RecursiveResolver::new(*c, SimDuration::from_secs(0)))
            .collect();
        // One query per client per probe interval over two TTLs: cache
        // hits with a miss at every expiry, as a draining cell sees.
        let rounds = 40u64;
        let s = self.span("dns", "RecursiveResolver::query", || {
            secs(|| {
                for k in 0..rounds {
                    let now = SimTime::ZERO + tb.cfg.probe.interval.saturating_mul(k);
                    for r in &mut resolvers {
                        black_box(r.query(&auth, now));
                    }
                }
            })
        });
        self.put(
            "dns.query_ns",
            s * 1e9 / (rounds as usize * clients.len()).max(1) as f64,
            "ns",
        );

        let env = ForwardEnv {
            topo: &tb.topo,
            bgp: converged.sim(),
            down: &[],
        };
        let dst = plan.probe_addr();
        let tc = TrafficConfig::default();
        let ticks = 30u64;
        let mut total = 0.0;
        for steering in [Steering::Catchment, Steering::Dns] {
            let mut sim = TrafficSim::new(&tc, &tb.topo, &tb.cdn, &tb.rng, steering);
            let interval = sim.tick_interval();
            let t_fail = SimTime::ZERO + interval.saturating_mul(ticks / 2);
            total += self.span("traffic", "TrafficSim::on_tick", || {
                secs(|| {
                    for k in 0..ticks {
                        let now = SimTime::ZERO + interval.saturating_mul(k);
                        sim.on_tick(now, t_fail, &tb.rng, |c| catchment(&env, &tb.cdn, c, dst));
                    }
                })
            });
        }
        self.put("traffic.tick_us", total * 1e6 / (2 * ticks) as f64, "us");
    }

    /// `event`: the timer wheel at the workload's recorded peak depth.
    pub fn event_queue(&mut self, peak_depth: usize, capacity: usize) {
        let depth = peak_depth.max(64);
        let mut rng = self.tb.rng.stream("bench-event", 0);
        // BGP's delay mix: mostly sub-4 s (L0), MRAI-scale tens of seconds
        // (L1), and a few beyond the 73-minute L1 horizon (overflow).
        let mut delay = move || -> u64 {
            match rng.gen_range(0..100u32) {
                0..=69 => rng.gen_range(100_000..4_000_000_000u64),
                70..=96 => rng.gen_range(4_000_000_000..120_000_000_000u64),
                _ => rng.gen_range(4_500_000_000_000..9_000_000_000_000u64),
            }
        };
        let mut q: EventQueue<u64> = EventQueue::with_capacity(depth);
        for i in 0..depth {
            q.push(SimTime::ZERO + SimDuration::from_nanos(delay()), i as u64);
        }
        let ops = 400_000usize;
        let delays: Vec<u64> = (0..ops).map(|_| delay()).collect();
        let s = self.span("event", "EventQueue push+pop", || {
            secs(|| {
                for d in &delays {
                    let (at, e) = q.pop().expect("queue holds its depth");
                    q.push(at + SimDuration::from_nanos(*d), black_box(e));
                }
            })
        });
        self.put("event.push_pop_ns", s * 1e9 / ops as f64, "ns");

        // Tie runs: bursts of same-instant events drained by `pop_if_at`,
        // as the engine batches them.
        let run = 32usize;
        let runs = 4_000usize;
        let mut q: EventQueue<u64> = EventQueue::with_capacity(depth);
        let mut pops = 0usize;
        let s = self.span("event", "EventQueue pop_if_at", || {
            let mut pop_s = 0.0;
            for r in 0..runs {
                let at = SimTime::ZERO + SimDuration::from_millis(7 * (r as u64 + 1));
                for i in 0..run {
                    q.push(at, i as u64);
                }
                pop_s += secs(|| {
                    let (t, _) = q.pop().expect("just pushed");
                    pops += 1;
                    while let Some(e) = q.pop_if_at(t) {
                        black_box(e);
                        pops += 1;
                    }
                });
            }
            pop_s
        });
        self.put("event.tie_run_pop_ns", s * 1e9 / pops.max(1) as f64, "ns");
        self.put("event.peak_queue_depth", peak_depth as f64, "count");
        self.put("event.queue_capacity", capacity as f64, "count");
    }

    /// `net`: AS-path interning on the paths a converged network holds,
    /// and the FIB's prefix trie on the address plan.
    pub fn net(&mut self, path_table_len: usize) {
        let tb = self.tb;
        let (converged, _) = converge(tb, &Technique::Anycast, SiteId(0), 0);
        let prefix = tb.cfg.plan.specific;
        let paths: Vec<(Vec<Asn>, Asn)> = tb
            .topo
            .ids()
            .filter_map(|id| {
                let best = converged.sim().best(id, &prefix)?;
                Some((best.attrs.path.hops(), tb.topo.node(id).asn))
            })
            .collect();
        let reps = 200;
        let s = self.span("net", "PathTable::intern", || {
            median_secs(5, || {
                PathTable::with(|t| {
                    for _ in 0..reps {
                        for (hops, _) in &paths {
                            black_box(t.intern(hops));
                        }
                    }
                })
            })
        });
        let per = (reps * paths.len()).max(1) as f64;
        self.put("net.path_intern_ns", s * 1e9 / per, "ns");
        let s = self.span("net", "PathTable::prepend", || {
            median_secs(5, || {
                PathTable::with(|t| {
                    for _ in 0..reps {
                        for (hops, asn) in &paths {
                            let base = t.intern(hops);
                            black_box(t.prepend(base, *asn, 1));
                        }
                    }
                })
            })
        });
        // The intern of the base is paid in both loops; what is left is
        // the prepend.
        let prepend_ns = (s * 1e9 / per - self.out["net.path_intern_ns"].value).max(0.0);
        self.put("net.path_prepend_ns", prepend_ns, "ns");
        self.put("net.path_table_len", path_table_len as f64, "count");

        let plan = &tb.cfg.plan;
        let mut prefixes: Vec<Prefix> = vec![
            plan.covering,
            plan.specific,
            plan.rtt_probe,
            plan.anycast_probe,
        ];
        prefixes.extend((0..tb.cdn.num_sites()).map(|i| plan.site_prefix(i)));
        let reps = 2_000;
        let s = self.span("net", "PrefixTrie::insert", || {
            median_secs(5, || {
                for _ in 0..reps {
                    let mut trie = PrefixTrie::new();
                    for (i, p) in prefixes.iter().enumerate() {
                        trie.insert(*p, i as u32);
                    }
                    black_box(trie);
                }
            })
        });
        self.put(
            "net.trie_insert_ns",
            s * 1e9 / (reps * prefixes.len()) as f64,
            "ns",
        );
        let mut trie = PrefixTrie::new();
        for (i, p) in prefixes.iter().enumerate() {
            trie.insert(*p, i as u32);
        }
        let addrs: Vec<u32> = prefixes.iter().map(|p| p.addr_at(10)).collect();
        let reps = 20_000;
        let s = self.span("net", "PrefixTrie::lookup", || {
            median_secs(5, || {
                for _ in 0..reps {
                    for a in &addrs {
                        black_box(trie.lookup(*a));
                    }
                }
            })
        });
        self.put(
            "net.trie_lpm_ns",
            s * 1e9 / (reps * addrs.len()) as f64,
            "ns",
        );
    }

    /// `scenario::compile` of every catalog scenario against this testbed.
    pub fn scenario(&mut self, catalog: &[Scenario], catalog_load_s: f64) {
        let tb = self.tb;
        let s = self.span("scenario", "compile", || {
            median_secs(15, || {
                for sc in catalog {
                    let site = match sc.site.as_str() {
                        "$site" => SiteId(0),
                        name => tb.cdn.by_name(name).unwrap_or(SiteId(0)),
                    };
                    black_box(
                        bobw_scenario::compile(sc, &tb.topo, &tb.cdn, &tb.rng, site, true).ok(),
                    );
                }
            })
        });
        self.put("scenario.load_catalog_ms", catalog_load_s * 1e3, "ms");
        self.put(
            "scenario.compile_us",
            s * 1e6 / catalog.len().max(1) as f64,
            "us",
        );
    }

    /// `session`: establishing every adjacency message-level, the RFC
    /// 4271 codec on a fixed corpus, and a pure FSM pair. Returns the
    /// establishment time in ms.
    pub fn session(&mut self) -> f64 {
        let tb = self.tb;
        let mut sim = Standalone::new(&tb.topo, tb.cfg.timing.clone(), &tb.rng);
        let s = self.span("session", "enable_message_level+run_to_idle", || {
            secs(|| {
                sim.enable_message_level();
                sim.run_to_idle(MAX_EVENTS);
            })
        });
        self.put("session.establish_ms", s * 1e3, "ms");
        self.put(
            "session.establish_events",
            sim.events_processed() as f64,
            "count",
        );
        self.put(
            "session.msgs",
            sim.sim().stats().session_msgs as f64,
            "count",
        );

        let open = SessionPayload::Open {
            asn: 65_001,
            hold_time_s: 90,
            gr_restart_s: 120,
        };
        let corpus = [
            open.to_message(7),
            BgpMessage::Update(UpdateMsg {
                withdrawn: Vec::new(),
                attrs: Some(UpdateAttrs {
                    as_path: vec![Asn(65_001), Asn(3_356), Asn(47_065)],
                    med: 0,
                    origin_node: 7,
                    no_export: false,
                }),
                nlri: vec![tb.cfg.plan.specific],
            }),
            BgpMessage::Update(UpdateMsg {
                withdrawn: vec![tb.cfg.plan.specific],
                attrs: None,
                nlri: Vec::new(),
            }),
            BgpMessage::Keepalive,
            BgpMessage::Notification(NotificationMsg {
                code: CEASE,
                subcode: 2,
                data: Vec::new(),
            }),
        ];
        let reps = 20_000;
        let s = self.span("session", "codec::encode", || {
            median_secs(5, || {
                for _ in 0..reps {
                    for m in &corpus {
                        black_box(encode(m).expect("corpus encodes"));
                    }
                }
            })
        });
        let per = (reps * corpus.len()) as f64;
        self.put("session.codec_encode_ns", s * 1e9 / per, "ns");
        let wire: Vec<Vec<u8>> = corpus
            .iter()
            .map(|m| encode(m).expect("corpus encodes"))
            .collect();
        let s = self.span("session", "codec::decode", || {
            median_secs(5, || {
                for _ in 0..reps {
                    for w in &wire {
                        black_box(decode(w).expect("corpus decodes"));
                    }
                }
            })
        });
        self.put("session.codec_decode_ns", s * 1e9 / per, "ns");
        self.put(
            "session.codec_bytes_per_msg",
            wire.iter().map(Vec::len).sum::<usize>() as f64 / wire.len() as f64,
            "B",
        );

        let reps = 5_000;
        let mut events = 0usize;
        let s = self.span("session", "PeerFsm::step", || {
            secs(|| {
                for _ in 0..reps {
                    events += fsm_pair_lifecycle();
                }
            })
        });
        self.put(
            "session.fsm_ns_per_event",
            s * 1e9 / events.max(1) as f64,
            "ns",
        );
        self.out["session.establish_ms"].value
    }

    /// `measure` and `dist`: folding one pass's results as the figure
    /// bins do, and moving them over the wire codec.
    pub fn fold_and_wire(&mut self, groups: &[Group], outputs: &[Vec<Option<CellOutput>>]) {
        let techniques = six_techniques();
        let s = self.span("measure", "TechniqueSeries+Cdf+to_string_pretty", || {
            secs(|| {
                for (group, row) in groups.iter().zip(outputs) {
                    let series: Vec<TechniqueSeries> = techniques
                        .iter()
                        .map(|t| TechniqueSeries::from_results(t, &results_of(group, row, t)))
                        .collect();
                    for s in &series {
                        for q in [0.5, 0.9, 0.99] {
                            black_box(s.reconnection_cdf().quantile(q));
                            black_box(s.failover_cdf().quantile(q));
                        }
                    }
                    black_box(serde_json::to_string_pretty(&series).expect("series serialize"));
                }
            })
        });
        self.put("measure.fold_ms", s * 1e3, "ms");

        let flat: Vec<CellOutput> = outputs.iter().flatten().flatten().cloned().collect();
        let cells = flat.len().max(1) as f64;
        let mut bytes = Vec::new();
        let s = self.span("dist", "encode_vec", || {
            median_secs(5, || bytes = encode_vec(&flat))
        });
        self.put("dist.encode_us_per_cell", s * 1e6 / cells, "us");
        self.put("dist.wire_bytes_per_cell", bytes.len() as f64 / cells, "B");
        let s = self.span("dist", "decode_exact", || {
            median_secs(5, || {
                black_box(decode_exact::<Vec<CellOutput>>(&bytes).expect("own encoding decodes"));
            })
        });
        self.put("dist.decode_us_per_cell", s * 1e6 / cells, "us");

        // A config that carries a scenario, as every catalog job ships.
        let mut cfg = self.tb.cfg.clone();
        if cfg.scenario.is_none() {
            cfg.scenario = Some(Scenario::site_failure(
                cfg.detection_delay.as_secs_f64(),
                cfg.pre_failure_flaps,
            ));
        }
        let mut bytes = Vec::new();
        let s = self.span("dist", "encode_vec(config)", || {
            median_secs(25, || bytes = encode_vec(&cfg))
        });
        self.put("dist.config_encode_us", s * 1e6, "us");
        self.put("dist.config_wire_bytes", bytes.len() as f64, "B");
    }

    /// The grid through the parallel runner at two threads against one —
    /// informational on a shared two-core host.
    pub fn runner_speedup(&mut self, group: &Group) {
        let run = |jobs: usize| {
            secs(|| {
                black_box(run_cells(&group.cells, jobs, |_, c| {
                    execute_cell(&group.testbed, c).is_ok()
                }));
            })
        };
        let one = self.span("bench", "run_cells jobs=1", || run(1));
        let two = self.span("bench", "run_cells jobs=2", || run(2));
        self.put("bench.runner_jobs2_speedup", one / two.max(1e-9), "x");
    }
}

/// Drives a pair of pure FSMs through connect, OPEN exchange, a round of
/// keepalives and a Cease; returns the number of `step` calls.
fn fsm_pair_lifecycle() -> usize {
    let cfg = |asn| SessionConfig {
        hold_time_s: 90,
        connect_retry_s: 1.0,
        gr_restart_s: 120,
        asn,
    };
    let mut fsms = [PeerFsm::new(cfg(65_001)), PeerFsm::new(cfg(65_002))];
    // (recipient, input) in arrival order; the emulated wire is instant.
    let mut inbox: std::collections::VecDeque<(usize, FsmInput)> = Default::default();
    inbox.push_back((0, FsmInput::Start));
    let mut out = Vec::with_capacity(8);
    let mut steps = 0;
    let mut script = vec![
        (1, bobw_session::fsm::stop_with_cease(2)),
        (1, FsmInput::Timer(TimerKind::Keepalive)),
        (0, FsmInput::Timer(TimerKind::Keepalive)),
    ];
    loop {
        let Some((who, input)) = inbox.pop_front().or_else(|| script.pop()) else {
            return steps;
        };
        out.clear();
        fsms[who].step(input, &mut out);
        steps += 1;
        for o in &out {
            match *o {
                FsmOutput::Send(payload) => inbox.push_back((1 - who, FsmInput::Recv(payload))),
                FsmOutput::AttemptConnect => inbox.push_back((who, FsmInput::TcpUp)),
                FsmOutput::Arm(..) | FsmOutput::Up { .. } | FsmOutput::Down { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsm_pair_establishes_and_closes() {
        // Start, TcpUp, the OPEN/KEEPALIVE exchange, two keepalive timers
        // and their deliveries, the Cease and its delivery.
        let steps = fsm_pair_lifecycle();
        assert!(steps >= 10, "only {steps} steps");
        assert_eq!(
            steps,
            fsm_pair_lifecycle(),
            "the lifecycle is deterministic"
        );
    }
}
