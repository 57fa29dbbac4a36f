//! Runs the complete paper reproduction — every table and figure — and
//! writes a markdown summary (`results/SUMMARY.md`) plus per-experiment
//! JSON files. This is the binary behind EXPERIMENTS.md.
//!
//! Run: `cargo run --release -p bobw-bench --bin repro_all [--scale quick]`

use std::fmt::Write as _;

use bobw_bench::appendix::{
    announcement_propagation_instrumented, withdrawal_convergence_instrumented,
};
use bobw_bench::{
    compute_appc1, compute_table1_dispatch, grid_sites, parse_cli, run_cells,
    run_failover_grid_dispatch, run_or_exit, unicast_dns_insim, write_json, PerfLog, Scale,
    TechniqueSeries,
};
use bobw_core::{derive_tradeoffs, MeasuredTechnique, Technique, Testbed};
use bobw_dns::{ClientPopulation, DnsFailoverConfig};
use bobw_event::RngFactory;
use bobw_measure::{cdf_row, markdown_table, percent, Cdf};
use bobw_topology::OriginProfile;

fn main() {
    let cli = parse_cli();
    let mut dispatch = cli.dispatch();
    let testbed = Testbed::new(cli.scale.config(cli.seed));
    let cfg = &testbed.cfg;
    // Perf counters from every stage, summarized at the end of SUMMARY.md
    // (NOT in results/*.json, which must be byte-identical across --jobs
    // and hosts).
    let mut perf = PerfLog::new(cli.jobs);
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# Reproduction summary (scale {:?}, seed {}, topology {} nodes / {} links)\n",
        cli.scale,
        cli.seed,
        testbed.topo.len(),
        testbed.topo.link_count()
    );

    // ---------------- Figure 2 (+ combined) ----------------
    eprintln!("[1/8] figure 2 ({} jobs) ...", cli.jobs);
    let mut techniques = Technique::figure2_set();
    techniques.push(Technique::Combined);
    let (grouped, p) = run_or_exit(run_failover_grid_dispatch(
        &testbed,
        &techniques,
        &grid_sites(&testbed),
        &mut dispatch,
    ));
    perf.merge(p);
    let mut fig2 = Vec::new();
    for (t, results) in techniques.iter().zip(&grouped) {
        fig2.push(TechniqueSeries::from_results(t, results));
    }
    let _ = writeln!(md, "## Figure 2 — reconnection / failover CDFs\n");
    let _ = writeln!(md, "```");
    for s in &fig2 {
        let _ = writeln!(
            md,
            "{}",
            cdf_row(&format!("{} recon", s.technique), &s.reconnection_cdf())
        );
        let _ = writeln!(
            md,
            "{}",
            cdf_row(&format!("{} failover", s.technique), &s.failover_cdf())
        );
    }
    let _ = writeln!(md, "```\n");
    write_json(&cli, "fig2", &fig2);

    let median_of = |name: &str, failover: bool| -> f64 {
        fig2.iter()
            .find(|s| s.technique == name)
            .map(|s| {
                if failover {
                    s.failover_cdf().median().unwrap_or(f64::NAN)
                } else {
                    s.reconnection_cdf().median().unwrap_or(f64::NAN)
                }
            })
            .unwrap_or(f64::NAN)
    };

    // ---------------- Figure 5 ----------------
    eprintln!("[2/8] figure 5 ...");
    let fig5_techniques: Vec<Technique> = [3u8, 5u8]
        .iter()
        .map(|&prepends| Technique::ProactivePrepending {
            prepends,
            selective: false,
        })
        .collect();
    let (grouped, p) = run_or_exit(run_failover_grid_dispatch(
        &testbed,
        &fig5_techniques,
        &grid_sites(&testbed),
        &mut dispatch,
    ));
    perf.merge(p);
    let fig5: Vec<TechniqueSeries> = fig5_techniques
        .iter()
        .zip(&grouped)
        .map(|(t, results)| TechniqueSeries::from_results(t, results))
        .collect();
    let _ = writeln!(md, "## Figure 5 — prepend 3 vs 5\n```");
    for s in &fig5 {
        let _ = writeln!(
            md,
            "{}",
            cdf_row(&format!("{} recon", s.technique), &s.reconnection_cdf())
        );
        let _ = writeln!(
            md,
            "{}",
            cdf_row(&format!("{} failover", s.technique), &s.failover_cdf())
        );
    }
    let _ = writeln!(md, "```\n");
    write_json(&cli, "fig5", &fig5);

    // ---------------- Table 1 ----------------
    eprintln!("[3/8] table 1 ...");
    let (t1, p) = run_or_exit(compute_table1_dispatch(&testbed, &[3, 5], &mut dispatch));
    perf.merge(p);
    let mut rows = Vec::new();
    let mk_row = |label: &str, f: &dyn Fn(&str) -> String| -> Vec<String> {
        let mut row = vec![label.to_string()];
        row.extend(t1.site_order.iter().map(|n| f(n)));
        row
    };
    rows.push(mk_row("not routed by anycast", &|n| percent(t1.rows[n].0)));
    rows.push(mk_row("prepend 3", &|n| percent(t1.rows[n].1[0].1)));
    rows.push(mk_row("prepend 5", &|n| percent(t1.rows[n].1[1].1)));
    let mut header: Vec<String> = vec!["".into()];
    header.extend(t1.site_order.clone());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let _ = writeln!(md, "## Table 1 — traffic control\n");
    let _ = writeln!(md, "{}", markdown_table(&header_refs, &rows));
    write_json(&cli, "table1", &t1);

    // ---------------- Table 2 ----------------
    eprintln!("[4/8] table 2 ...");
    let anycast_median = median_of("anycast", true);
    let prepending_control =
        t1.rows.values().map(|(_, s)| s[0].1).sum::<f64>() / t1.rows.len().max(1) as f64;
    let measured = vec![
        MeasuredTechnique {
            technique: Technique::ProactivePrepending {
                prepends: 3,
                selective: false,
            },
            control_fraction: prepending_control,
            failover_median_s: Some(median_of("proactive-prepending-3", true)),
        },
        MeasuredTechnique {
            technique: Technique::ReactiveAnycast,
            control_fraction: 1.0,
            failover_median_s: Some(median_of("reactive-anycast", true)),
        },
        MeasuredTechnique {
            technique: Technique::ProactiveSuperprefix,
            control_fraction: 1.0,
            failover_median_s: Some(median_of("proactive-superprefix", true)),
        },
        MeasuredTechnique {
            technique: Technique::Anycast,
            control_fraction: 0.0,
            failover_median_s: Some(anycast_median),
        },
        MeasuredTechnique {
            technique: Technique::Unicast,
            control_fraction: 1.0,
            failover_median_s: None,
        },
    ];
    let t2 = derive_tradeoffs(&measured, anycast_median);
    let t2_rows: Vec<Vec<String>> = t2
        .iter()
        .map(|r| {
            vec![
                r.technique.clone(),
                r.control.to_string(),
                r.availability.to_string(),
                r.risk.to_string(),
            ]
        })
        .collect();
    let _ = writeln!(md, "## Table 2 — tradeoffs (derived)\n");
    let _ = writeln!(
        md,
        "{}",
        markdown_table(&["Technique", "Control", "Availability", "Risk"], &t2_rows)
    );
    write_json(&cli, "table2", &t2);

    // ---------------- Figures 3 & 4 ----------------
    let instances = match cli.scale {
        Scale::Quick => 6,
        Scale::Eval => 16,
        Scale::Large => 24,
    };
    eprintln!("[5/8] figure 3 ...");
    let stage = std::time::Instant::now();
    let (f3h, ph) = withdrawal_convergence_instrumented(
        cfg,
        &cfg.timing,
        OriginProfile::Hypergiant,
        instances,
        cli.jobs,
    );
    let (f3p, pp) = withdrawal_convergence_instrumented(
        cfg,
        &cfg.timing,
        OriginProfile::PeeringTestbed,
        instances,
        cli.jobs,
    );
    perf.elapsed_micros += stage.elapsed().as_micros() as u64;
    for p in ph.into_iter().chain(pp) {
        perf.push("fig3-withdrawal", p);
    }
    let _ = writeln!(md, "## Figure 3 — withdrawal convergence\n```");
    let _ = writeln!(
        md,
        "{}",
        cdf_row("hypergiant", &Cdf::new(f3h.samples.clone()))
    );
    let _ = writeln!(md, "{}", cdf_row("peering", &Cdf::new(f3p.samples.clone())));
    let _ = writeln!(md, "```\n");
    write_json(&cli, "fig3", &vec![f3h, f3p]);

    eprintln!("[6/8] figure 4 ...");
    let stage = std::time::Instant::now();
    let (f4m, pm) = announcement_propagation_instrumented(
        cfg,
        &cfg.timing,
        OriginProfile::Hypergiant,
        3,
        instances,
        cli.jobs,
    );
    let (f4p, pp) = announcement_propagation_instrumented(
        cfg,
        &cfg.timing,
        OriginProfile::PeeringTestbed,
        1,
        instances,
        cli.jobs,
    );
    perf.elapsed_micros += stage.elapsed().as_micros() as u64;
    for p in pm.into_iter().chain(pp) {
        perf.push("fig4-propagation", p);
    }
    let _ = writeln!(md, "## Figure 4 — announcement propagation\n```");
    let _ = writeln!(
        md,
        "{}",
        cdf_row("manycast2-like", &Cdf::new(f4m.samples.clone()))
    );
    let _ = writeln!(md, "{}", cdf_row("peering", &Cdf::new(f4p.samples.clone())));
    let _ = writeln!(md, "```\n");
    write_json(&cli, "fig4", &vec![f4m, f4p]);

    // ---------------- Appendix C.1 ----------------
    eprintln!("[7/8] appendix C.1 ...");
    let _ = writeln!(md, "## Appendix C.1 — divergence classification\n");
    // Sites fan over --jobs runner threads; run_cells returns them in
    // site order, so the table (and JSON) is jobs-independent.
    let stage = std::time::Instant::now();
    let c1_sites = ["sea1", "sea2", "ams", "msn"];
    let c1 = run_cells(&c1_sites, cli.jobs, |_, site| {
        compute_appc1(&testbed, site, 5)
    });
    perf.elapsed_micros += stage.elapsed().as_micros() as u64;
    let c1_rows: Vec<Vec<String>> = c1
        .iter()
        .map(|r| {
            vec![
                r.site_name.clone(),
                r.measured_pairs.to_string(),
                percent(r.frac_to_intended()),
                percent(r.frac_business_pref()),
                percent(r.frac_via_rne()),
            ]
        })
        .collect();
    let _ = writeln!(
        md,
        "{}",
        markdown_table(
            &["site", "pairs", "to intended", "business pref", "via R&E"],
            &c1_rows
        )
    );
    write_json(&cli, "appc1", &c1);

    // ---------------- DNS baseline ----------------
    eprintln!("[8/8] unicast DNS baseline ...");
    let rng = RngFactory::new(cli.seed);
    let pop = ClientPopulation::sample(&DnsFailoverConfig::default(), 20_000, &rng);
    let dns_cdf = Cdf::new(pop.sorted_secs());
    // In-simulation cross-check over a few sites: the unicast technique
    // under the built-in DNS failover scenario.
    let insim: Vec<f64> = run_or_exit(unicast_dns_insim(cfg))
        .iter()
        .flat_map(|r| r.reconnection_secs())
        .collect();
    let insim_cdf = Cdf::new(insim);
    let _ = writeln!(md, "## Unicast DNS-bound failover baseline\n```");
    let _ = writeln!(md, "{}", cdf_row("unicast analytic (ttl 600s)", &dns_cdf));
    let _ = writeln!(md, "{}", cdf_row("unicast in-sim (ttl 600s)", &insim_cdf));
    let _ = writeln!(md, "```\n");

    // ---------------- Runner perf trajectory ----------------
    let _ = writeln!(md, "{}", perf.markdown_section());

    // ---------------- Write summary ----------------
    let path = cli.out_dir.join("SUMMARY.md");
    let _ = std::fs::create_dir_all(&cli.out_dir);
    std::fs::write(&path, &md).expect("write summary");
    println!("{md}");
    eprintln!("summary written to {}", path.display());
    dispatch.finish();
}
