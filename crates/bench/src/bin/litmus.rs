//! §4.5 verification campaign summary (the Murphi-substitute run).
//!
//! Runs every litmus shape under every placement for CORD (six provisioning
//! stress configurations), source ordering, mixed CORD/SO, and message
//! passing, then prints the campaign totals — including the MP violations
//! the paper's §3.2 predicts. Placements within each shape are explored in
//! parallel (`CORD_THREADS`).
//!
//! A final phase re-runs the CORD suite and the scaling fixtures through
//! [`explore_with`] on one thread, with symmetry reduction on and off, and
//! checks each entry's states, peak frontier, level count and symmetry
//! group order against the exact record `results/records/litmus.txt`
//! ([`cord_bench::gate`]; `CORD_UPDATE_GOLDEN=1` re-records). The sharded
//! explorer's thread-count independence is pinned by the checker's own
//! tests, and its wall time by the benchmark package's `check` workload.

use cord_bench::{gate, print_table};
use cord_sim::obs::Progress;

use cord_check::{
    campaign_entries, classic_suite, explore, explore_all_placements, explore_with,
    narrate_violation, scaling_suite, stress_configs, weak_suite, CheckConfig, ExploreOpts, Litmus,
    Report, ThreadProto, Verdict,
};

const CAP: usize = 2_000_000;

fn explore_counted(prog: &Progress, cfg: &CheckConfig, lit: &Litmus) -> Vec<(Vec<u8>, Report)> {
    let out = explore_all_placements(cfg, lit, CAP);
    prog.inc(1);
    out
}

/// Runs every campaign entry through [`explore_with`] at fixed `opts` and
/// returns one record line per entry, `<tag>/<entry>` followed by the
/// deterministic search-shape counters.
fn check_pass(
    entries: &[(String, CheckConfig, Litmus, Vec<u8>)],
    opts: ExploreOpts,
    tag: &str,
) -> Vec<String> {
    entries
        .iter()
        .map(|(label, cfg, lit, placement)| {
            let (report, stats) = explore_with(cfg, lit, placement, CAP, opts);
            format!(
                "{tag}/{} states={} peak_frontier={} levels={} sym_order={}",
                label.replace(' ', ""),
                report.states,
                stats.peak_frontier,
                stats.levels,
                stats.symmetry_order
            )
        })
        .collect()
}

fn main() {
    // One progress unit per (system, shape) exploration: every stress
    // config, SO, mixed, and MP over the classic suite, plus the weak suite.
    let units = (stress_configs().len() + 3) * classic_suite().len() + weak_suite().len();
    let prog = Progress::new("litmus", units as u64);
    let mut rows = Vec::new();
    let mut total_checks = 0usize;
    let mut total_states = 0usize;

    let mut total_inconclusive = 0usize;

    // CORD under all stress configurations.
    for (cfg_name, mk) in stress_configs() {
        let mut checks = 0;
        let mut states = 0;
        let mut failures = 0;
        let mut inconclusive = 0;
        for lit in classic_suite() {
            let cfg = mk(lit.thread_count(), 3);
            for (_, report) in explore_counted(&prog, &cfg, &lit) {
                checks += 1;
                states += report.states;
                match report.verdict(&lit) {
                    Verdict::Pass => {}
                    Verdict::Inconclusive => inconclusive += 1,
                    Verdict::Fail => failures += 1,
                }
            }
        }
        rows.push(vec![
            format!("CORD [{cfg_name}]"),
            checks.to_string(),
            states.to_string(),
            failures.to_string(),
            inconclusive.to_string(),
        ]);
        total_checks += checks;
        total_states += states;
        total_inconclusive += inconclusive;
    }

    // Source ordering and mixed systems.
    for (name, protos) in [("SO", 0usize), ("mixed CORD/SO", 1)] {
        let mut checks = 0;
        let mut states = 0;
        let mut failures = 0;
        let mut inconclusive = 0;
        for lit in classic_suite() {
            let n = lit.thread_count();
            let cfg = if protos == 0 {
                CheckConfig::so(n, 3)
            } else {
                CheckConfig {
                    protos: (0..n)
                        .map(|i| {
                            if i % 2 == 0 {
                                ThreadProto::Cord
                            } else {
                                ThreadProto::So
                            }
                        })
                        .collect(),
                    ..CheckConfig::cord(n, 3)
                }
            };
            for (_, report) in explore_counted(&prog, &cfg, &lit) {
                checks += 1;
                states += report.states;
                match report.verdict(&lit) {
                    Verdict::Pass => {}
                    Verdict::Inconclusive => inconclusive += 1,
                    Verdict::Fail => failures += 1,
                }
            }
        }
        rows.push(vec![
            name.into(),
            checks.to_string(),
            states.to_string(),
            failures.to_string(),
            inconclusive.to_string(),
        ]);
        total_checks += checks;
        total_states += states;
        total_inconclusive += inconclusive;
    }

    // Message passing: violations are the expected (paper §3.2) outcome.
    let mut mp_checks = 0;
    let mut mp_violating_shapes = Vec::new();
    for lit in classic_suite() {
        let mut bad = false;
        let cfg = CheckConfig::mp(lit.thread_count(), 3);
        for (_, report) in explore_counted(&prog, &cfg, &lit) {
            mp_checks += 1;
            bad |= !report.violations(&lit).is_empty();
        }
        if bad {
            mp_violating_shapes.push(lit.name);
        }
    }
    rows.push(vec![
        "MP (violations expected)".into(),
        mp_checks.to_string(),
        String::new(),
        mp_violating_shapes.len().to_string(),
        String::new(),
    ]);
    total_checks += mp_checks;

    print_table(
        "Litmus campaign (§4.5): forbidden-outcome + deadlock-freedom checks",
        &[
            "system",
            "checks",
            "states explored",
            "failures/violations",
            "inconclusive",
        ],
        &rows,
    );

    println!("\nMP violates release consistency on: {mp_violating_shapes:?}");
    if total_inconclusive > 0 {
        println!(
            "WARNING: {total_inconclusive} check(s) inconclusive — the state cap \
             truncated the search before completion; raise CAP to settle them"
        );
    }

    // Weak-outcome reachability (not accidentally SC).
    let mut weak_ok = 0;
    for (lit, must_see) in weak_suite() {
        let mut seen = false;
        let cfg = CheckConfig::cord(lit.thread_count(), 3);
        for (_, report) in explore_counted(&prog, &cfg, &lit) {
            seen |= report.outcomes.iter().any(|flat| {
                let split = flat.len() - lit.vars as usize;
                let (reg_flat, mem) = flat.split_at(split);
                must_see.matches_flat(reg_flat, mem)
            });
        }
        if seen {
            weak_ok += 1;
        }
    }
    prog.finish(&format!(
        "litmus: {total_checks} checks, {total_states} states explored"
    ));
    println!(
        "Weak (RC-allowed) outcomes reachable: {weak_ok}/{}",
        weak_suite().len()
    );
    println!("Total checks: {total_checks}; total states: {total_states}");
    println!("Murphi-substitute campaign complete");

    // A final ISA2 spot check mirroring paper Fig. 3.
    let isa2 = classic_suite()
        .into_iter()
        .find(|l| l.name == "ISA2")
        .unwrap();
    let mp = explore(&CheckConfig::mp(3, 3), &isa2, &[2, 1, 2], CAP);
    let cord = explore(&CheckConfig::cord(3, 3), &isa2, &[2, 1, 2], CAP);
    println!(
        "ISA2 (X,Z on T2's memory; Y on T1's): MP forbidden outcome reachable = {}, CORD = {}",
        !mp.violations(&isa2).is_empty(),
        !cord.violations(&isa2).is_empty()
    );

    // Narrate one shortest MP counterexample so the §3.2 failure is not
    // just a boolean: an ordered, tracer-style event listing.
    if let Some(n) = narrate_violation(&CheckConfig::mp(3, 3), &isa2, &[2, 1, 2], CAP) {
        println!(
            "\nShortest MP/ISA2 counterexample ({} steps):",
            n.steps.len()
        );
        println!("{}", n.render());
        println!(
            "forbidden outcome (regs thread-major, then memory): {:?}",
            n.outcome
        );
    }

    // Exact record: the CORD suite plus the heavyweight scaling fixtures
    // through the explorer on one thread, symmetry on and off.
    let mut entries = campaign_entries();
    entries.extend(scaling_suite());
    let sym = ExploreOpts {
        threads: 1,
        symmetry: true,
        audit: false,
    };
    let raw = ExploreOpts {
        symmetry: false,
        ..sym
    };
    let mut record = check_pass(&entries, sym, "sym");
    record.extend(check_pass(&entries, raw, "raw"));
    gate::enforce("litmus", record);
}
