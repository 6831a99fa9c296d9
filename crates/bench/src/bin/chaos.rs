//! Chaos campaign: seeded fault-injection runs across every engine.
//!
//! Each cell of the campaign matrix runs a producer/consumer handshake
//! workload on a fabric that drops, duplicates, and delays messages
//! according to a deterministic [`cord_sim::fault::FaultPlan`], with the
//! reliable transport and liveness watchdog armed. For every run the
//! campaign asserts the release-consistency invariant (every value read
//! after a flag wait equals the fault-free value) and termination (no
//! watchdog trip, no event-cap blowout), then records timings into
//! `results/BENCH_chaos.json` (override with `CORD_BENCH_JSON`).
//!
//! The matrix has two tiers: `fabric` (message-level loss, duplication,
//! reordering, degradation bursts) and `crash` (node-scoped resets — a
//! directory controller loses its ordering tables mid-run, a host
//! transport loses its retransmission bookkeeping — which the CORD
//! recovery protocol must mask and every other engine must degrade
//! through gracefully). Crash-tier cells arm the flight recorder; a
//! failing cell dumps its last-seen trace ring to
//! `results/flight/chaos-<cell>.txt` for post-mortem (CI uploads these as
//! artifacts).
//!
//! The final stanza is a *negative* check: it re-runs a multi-directory
//! CORD release with every notification dropped on an unreliable transport
//! and demands the liveness watchdog catch the hang with a readable
//! narrative.
//!
//! Usage: `chaos [--quick] [--tier fabric|crash] [--engines CORD,SO,...]`
//! — `--quick` runs one seed per plan; the filters select a subset of the
//! matrix (CI shards the campaign across them).

use std::time::Instant;

use cord::{RunConfig, RunError, RunResult, System};
use cord_bench::print_table;
use cord_bench::sweep::{json_path, Recorder};
use cord_proto::{Program, ProtocolKind, SystemConfig};
use cord_sim::obs::{render_flight, Progress};
use cord_sim::Time;
use cord_workloads::handshake::{multi_dir, single_dst};

/// Engines under test; engines without global release consistency
/// ([`ProtocolKind::global_rc`]) are excluded from the multi-directory
/// workload — MP's posted writes (paper §3.2) and SEQ's per-directory
/// sequence streams (§4.1) make no cross-destination ordering promise, so
/// a reordering fabric can legitimately commit the flag before the data.
const ENGINES: [ProtocolKind; 5] = [
    ProtocolKind::Cord,
    ProtocolKind::So,
    ProtocolKind::Mp,
    ProtocolKind::Wb,
    ProtocolKind::Seq { bits: 8 },
];

/// Message-level fault plans (the `fabric` tier): (name, spec). Every spec
/// gets the per-run seed prepended. Addresses in the workloads are fresh
/// per round, so reordering plans are safe for every protocol: the
/// transport restores FIFO order for the protocols that need it.
const FABRIC_PLANS: [(&str, &str); 5] = [
    ("light", "drop=0.02; dup=0.02; jitter=50"),
    ("heavy", "drop=0.15; dup=0.10; jitter=200; rto=800"),
    ("reorder", "jitter=400"),
    ("burst", "drop=0.03; jitter=100; window=2000..6000x5"),
    ("notify", "drop.Notify=0.4; drop.ReqNotify=0.4; drop=0.02"),
];

/// Node-scoped crash plans (the `crash` tier). Directory resets wipe
/// ATA/CNT tables and pending notifications mid-run; transport resets
/// open a new session epoch and replay the unacked buffer. CORD must
/// recover to fault-free results, other engines must no-op the directory
/// crash (graceful degradation) while their transports still replay. The
/// `storm` plan uses the hashed rate form: each (degradation window,
/// host) pair crashes independently with the given probability.
const CRASH_PLANS: [(&str, &str); 3] = [
    ("dirreset", "jitter=50; crash.dir.0=900; crash.dir.1=1800"),
    (
        "xportreset",
        "drop=0.05; rto=800; crash.xport.0=1000; crash.xport.1=2200",
    ),
    (
        "storm",
        "drop=0.02; rto=900; crash.dir=0.4; crash.xport.1=1500; window=600..2600x2",
    ),
];

/// A boxed workload generator, so the single- and multi-directory shapes
/// share one campaign loop.
type ProgramsFor = Box<dyn Fn(&SystemConfig) -> Vec<Program>>;

struct Cell {
    label: String,
    outcome: Result<RunResult, RunError>,
    wall_ms: f64,
    /// Consumer register file from the fault-free reference run.
    baseline: [u64; 16],
    consumer: usize,
}

fn run_cell(
    kind: ProtocolKind,
    hosts: u32,
    programs_for: &dyn Fn(&SystemConfig) -> Vec<Program>,
    spec: Option<&str>,
    flight: bool,
) -> (Result<RunResult, RunError>, f64, usize, Option<String>) {
    let cfg = SystemConfig::cxl(kind, hosts);
    let tph = cfg.noc.tiles_per_host as usize;
    let consumer = if hosts > 2 { 3 * tph } else { tph };
    let programs = programs_for(&cfg);
    let mut sys = System::new(cfg, programs);
    if let Some(s) = spec {
        sys.set_fault_spec(s)
            .unwrap_or_else(|e| panic!("bad spec {s:?}: {e}"));
    }
    if flight {
        // Crash-tier cells keep a post-mortem ring: big enough to retain
        // the crash injection itself even when the failure is a late hang.
        sys.tracer_mut().arm_flight(16384);
        sys.set_watchdog(Some(Time::from_us(200)));
    }
    let start = Instant::now();
    let out = sys.try_run();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let dump = match &out {
        Err(e) if flight => {
            let rings = sys.take_flight_rings();
            (!rings.is_empty()).then(|| render_flight(&e.to_string(), &rings))
        }
        _ => None,
    };
    (out, wall_ms, consumer, dump)
}

/// Writes a failing crash-tier cell's flight dump under `results/flight/`
/// so CI can collect it as an artifact.
fn write_flight_dump(label: &str, text: &str) {
    let dir = std::path::Path::new("results/flight");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("flight dump: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("chaos-{}.txt", label.replace('/', "-")));
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("flight dump: {}", path.display()),
        Err(e) => eprintln!("flight dump: cannot write {}: {e}", path.display()),
    }
}

fn main() {
    RunConfig::from_env_or_exit().install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut tier_filter: Option<String> = None;
    let mut engine_filter: Option<Vec<String>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tier" => {
                let v = args.get(i + 1).expect("--tier needs a value");
                tier_filter = Some(v.to_lowercase());
                i += 2;
            }
            "--engines" => {
                let v = args.get(i + 1).expect("--engines needs a value");
                engine_filter = Some(v.split(',').map(|s| s.trim().to_uppercase()).collect());
                i += 2;
            }
            _ => i += 1,
        }
    }
    let tiers: Vec<(&str, &[(&str, &str)])> =
        [("fabric", &FABRIC_PLANS[..]), ("crash", &CRASH_PLANS[..])]
            .into_iter()
            .filter(|(name, _)| tier_filter.as_deref().is_none_or(|t| t == *name))
            .collect();
    assert!(
        !tiers.is_empty(),
        "--tier {:?} matches nothing (want fabric or crash)",
        tier_filter
    );
    let engines: Vec<ProtocolKind> = ENGINES
        .into_iter()
        .filter(|k| {
            engine_filter
                .as_ref()
                .is_none_or(|f| f.iter().any(|e| *e == k.label()))
        })
        .collect();
    assert!(
        !engines.is_empty(),
        "--engines {:?} matches nothing (labels: {:?})",
        engine_filter,
        ENGINES.map(ProtocolKind::label)
    );

    let seeds: &[u64] = if quick { &[7] } else { &[7, 41, 1234] };
    let (rounds, words) = if quick { (4, 8) } else { (8, 16) };

    let mut rec = Recorder::new("chaos").at_path(json_path("results/BENCH_chaos.json"));
    // Campaign size, counted up front for the status line: engines × their
    // eligible workloads × plans in selected tiers × seeds.
    let workloads_for = |kind: ProtocolKind| if kind.global_rc() { 2u64 } else { 1 };
    let plan_count: u64 = tiers.iter().map(|(_, p)| p.len() as u64).sum();
    let units: u64 =
        engines.iter().map(|&k| workloads_for(k)).sum::<u64>() * plan_count * seeds.len() as u64;
    let prog = Progress::new("chaos", units);
    let mut cells: Vec<Cell> = Vec::new();
    for &kind in &engines {
        for workload in ["single", "multi"] {
            if workload == "multi" && !kind.global_rc() {
                continue; // no cross-destination RC promise (MP, SEQ)
            }
            let hosts = if workload == "multi" { 4 } else { 2 };
            let programs_for: ProgramsFor = if workload == "multi" {
                Box::new(move |cfg| multi_dir(cfg, rounds))
            } else {
                Box::new(move |cfg| single_dst(cfg, rounds, words))
            };
            // Fault-free reference for the RC invariant.
            let (base, _, consumer, _) = run_cell(kind, hosts, programs_for.as_ref(), None, false);
            let baseline = base.expect("fault-free reference must complete").regs[consumer];
            for &(tier, plans) in &tiers {
                let flight = tier == "crash";
                for &(plan, spec) in plans {
                    for &seed in seeds {
                        let full = format!("seed={seed}; {spec}");
                        let label = format!("{}/{workload}/{plan}/s{seed}", kind.label());
                        let (outcome, wall_ms, consumer, dump) =
                            run_cell(kind, hosts, programs_for.as_ref(), Some(&full), flight);
                        match &outcome {
                            Ok(r) => rec.record(&label, wall_ms, r.completion().as_ns_f64()),
                            Err(_) => {
                                prog.flag();
                                if let Some(text) = &dump {
                                    write_flight_dump(&label, text);
                                }
                            }
                        }
                        prog.inc(1);
                        cells.push(Cell {
                            label,
                            outcome,
                            wall_ms,
                            baseline,
                            consumer,
                        });
                    }
                }
            }
        }
    }

    prog.finish(&format!("chaos: {} cell(s) run", cells.len()));
    let mut rows = Vec::new();
    let mut failures = 0u32;
    for cell in &cells {
        let verdict = match &cell.outcome {
            Ok(r) if r.regs[cell.consumer] != cell.baseline => {
                failures += 1;
                "RC VIOLATION".to_string()
            }
            Ok(r) => {
                let f = r.traffic.faults;
                if f.sessions_reset > 0 || f.replayed > 0 {
                    format!(
                        "ok ({} drop, {} rexmt, {} sess reset, {} replay)",
                        f.dropped, f.retransmits, f.sessions_reset, f.replayed
                    )
                } else {
                    format!(
                        "ok ({} drop, {} dup, {} rexmt)",
                        f.dropped, f.duplicated, f.retransmits
                    )
                }
            }
            Err(e) => {
                failures += 1;
                let first = e.to_string();
                format!("FAILED: {}", first.lines().next().unwrap_or("?"))
            }
        };
        rows.push(vec![
            cell.label.clone(),
            format!("{:.1}", cell.wall_ms),
            verdict,
        ]);
    }
    print_table(
        "Chaos campaign: RC invariants under a faulty fabric",
        &["run", "wall (ms)", "verdict"],
        &rows,
    );
    rec.finish();

    // Negative check: a lost Notify with retransmission disabled must be
    // caught by the liveness watchdog, with a narrative naming the hang.
    // Skipped when the engine filter excludes CORD (the demo is CORD-only).
    if engines.contains(&ProtocolKind::Cord) {
        let cfg = SystemConfig::cxl(ProtocolKind::Cord, 4);
        let programs = multi_dir(&cfg, 2);
        let mut sys = System::new(cfg, programs);
        sys.set_fault_spec("seed=1; drop.Notify=1.0; unreliable")
            .expect("demo spec parses");
        sys.set_watchdog(Some(Time::from_us(200)));
        match sys.try_run() {
            Err(RunError::NoProgress { narrative, .. }) => {
                println!("\n== Watchdog demo: lost Notify without retransmission ==");
                print!("{narrative}");
            }
            other => {
                failures += 1;
                eprintln!(
                    "watchdog demo FAILED: expected NoProgress, got {:?}",
                    other.map(|r| r.makespan)
                );
            }
        }
    }

    if failures > 0 {
        eprintln!("\n{failures} chaos run(s) failed");
        std::process::exit(1);
    }
    println!("\nall {} chaos runs passed", cells.len());
}
