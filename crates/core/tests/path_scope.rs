//! Every cell interns its AS paths in a table of its own: after any number
//! of cells a thread's path table is exactly what it was before them, and
//! routes converged outside the cells still read back the same hops.

use bobw_bgp::{OriginConfig, Standalone};
use bobw_core::{measure_control, run_failover, ExperimentConfig, Technique, Testbed};
use bobw_net::{Asn, PathTable};

/// Eight cells — six failover, two Table 1 control — on the caller's thread.
fn run_eight_cells(tb: &Testbed) {
    let failover = [
        (Technique::Anycast, "bos"),
        (Technique::ReactiveAnycast, "atl"),
        (Technique::ProactiveSuperprefix, "ams"),
        (Technique::Combined, "bos"),
        (
            Technique::ProactivePrepending {
                prepends: 3,
                selective: false,
            },
            "atl",
        ),
        (Technique::Unicast, "ams"),
    ];
    for (technique, site) in &failover {
        run_failover(tb, technique, tb.site(site)).expect("cell runs");
    }
    for site in ["bos", "atl"] {
        measure_control(tb, tb.site(site), &[3]);
    }
}

#[test]
fn cells_leave_the_threads_path_table_as_they_found_it() {
    // A thread of its own, so its table starts holding only the empty path.
    std::thread::spawn(|| {
        let tb = Testbed::new(ExperimentConfig::quick(42));
        run_eight_cells(&tb);
        assert_eq!(PathTable::with(|t| t.len()), 1);

        let mut held = Standalone::new(&tb.topo, tb.cfg.timing.clone(), &tb.rng);
        let prefix = tb.cfg.plan.anycast_probe;
        for site in tb.cdn.sites() {
            held.announce(tb.cdn.node(site), prefix, OriginConfig::plain());
        }
        held.run_to_idle(tb.cfg.max_events);
        let best_hops = |s: &Standalone| -> Vec<Option<Vec<Asn>>> {
            tb.topo
                .ids()
                .map(|id| s.sim().best(id, &prefix).map(|r| r.attrs.path.hops()))
                .collect()
        };
        let before = best_hops(&held);
        let len_before = PathTable::with(|t| t.len());
        assert!(before.iter().flatten().any(|h| h.len() > 1));

        run_eight_cells(&tb);
        assert_eq!(best_hops(&held), before);
        assert_eq!(PathTable::with(|t| t.len()), len_before);
    })
    .join()
    .expect("cells run");
}
