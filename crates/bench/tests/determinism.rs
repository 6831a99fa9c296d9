//! The sweep engine's hard invariant: parallel execution is bit-for-bit
//! identical to serial execution. Parallelism may only change wall-clock
//! time — every `RunResult` and every checker `Report` must be exactly the
//! run the serial loop would have produced, in the same order.

use cord::{RunResult, System};
use cord_bench::{config, Fabric};
use cord_check::{classic_suite, explore, explore_all_placements, CheckConfig, Litmus, Report};
use cord_noc::TrafficStats;
use cord_proto::{ConsistencyModel, ProtocolKind};
use cord_sim::par;
use cord_workloads::AppSpec;

/// Everything observable about a run, in a comparable shape (`RunResult`
/// holds a `HashMap`, so its stalls are canonicalized by sorting).
#[derive(Debug, Clone, PartialEq)]
struct Digest {
    makespan_ps: u64,
    drained_ps: u64,
    events: u64,
    polls: u64,
    traffic: TrafficStats,
    regs: Vec<[u64; 16]>,
    stalls: Vec<(String, u64)>,
}

fn digest(r: &RunResult) -> Digest {
    let mut stalls: Vec<(String, u64)> = r
        .stalls
        .iter()
        .map(|(c, t)| (format!("{c:?}"), t.as_ps()))
        .collect();
    stalls.sort();
    Digest {
        makespan_ps: r.makespan.as_ps(),
        drained_ps: r.drained.as_ps(),
        events: r.events,
        polls: r.polls,
        traffic: r.traffic,
        regs: r.regs.clone(),
        stalls,
    }
}

/// A fig7-style sweep (app × scheme grid) over two distinct run seeds:
/// serial (1 worker) and parallel (2/4/8 workers) must return identical
/// `RunResult`s in identical order.
#[test]
fn sweep_parallel_matches_serial_across_seeds() {
    let mut app = AppSpec::by_name("MOCFE").expect("known app");
    app.iters = 2;
    let schemes = [
        ProtocolKind::Cord,
        ProtocolKind::Mp,
        ProtocolKind::So,
        ProtocolKind::Wb,
    ];
    let grid: Vec<(u64, ProtocolKind)> = [0xC04Du64, 0x5EED2]
        .into_iter()
        .flat_map(|seed| schemes.iter().map(move |&k| (seed, k)))
        .collect();

    let run = |&(seed, kind): &(u64, ProtocolKind)| {
        let mut cfg = config(kind, Fabric::Cxl, 4, ConsistencyModel::Rc);
        cfg.seed = seed;
        let programs = app.programs(&cfg);
        digest(&System::new(cfg, programs).run())
    };

    let serial = par::run_parallel_on(1, &grid, run);
    assert_eq!(serial.len(), grid.len());
    for threads in [2, 4, 8] {
        let parallel = par::run_parallel_on(threads, &grid, run);
        assert_eq!(parallel, serial, "RunResults diverged at {threads} workers");
    }
}

/// Serial reference for `explore_all_placements`: a plain loop over the
/// same clamped placements.
fn explore_serial(cfg: &CheckConfig, lit: &Litmus, cap: usize) -> Vec<(Vec<u8>, Report)> {
    lit.placements()
        .into_iter()
        .map(|p| p.into_iter().map(|d| d % cfg.dirs).collect::<Vec<u8>>())
        .map(|p| {
            let r = explore(cfg, lit, &p, cap);
            (p, r)
        })
        .collect()
}

/// The parallel placement campaign must produce exactly the serial loop's
/// `(placement, Report)` pairs — same outcome sets, same state counts, same
/// order — for MP, SO, and CORD systems on the ISA2 and MP litmus shapes.
/// `CORD_THREADS` is pinned so the parallel path is exercised even on a
/// single-core machine (this file's other test does not read it).
// `CORD_THREADS` is the campaign pool's own knob, read by `cord_sim::par`
// and outside `cord::RunConfig`, so pinning it takes an env write.
#[allow(clippy::disallowed_methods)]
#[test]
fn placement_campaign_parallel_matches_serial() {
    const CAP: usize = 1_000_000;
    std::env::set_var("CORD_THREADS", "8");
    let suite = classic_suite();
    for name in ["ISA2", "MP"] {
        let lit = suite
            .iter()
            .find(|l| l.name == name)
            .expect("shape in classic suite");
        let n = lit.thread_count();
        for cfg in [
            CheckConfig::cord(n, 3),
            CheckConfig::so(n, 3),
            CheckConfig::mp(n, 3),
        ] {
            let parallel = explore_all_placements(&cfg, lit, CAP);
            let serial = explore_serial(&cfg, lit, CAP);
            assert!(!serial.is_empty(), "{name}: no placements");
            assert_eq!(
                parallel, serial,
                "{name}: reports diverged under parallel campaign"
            );
        }
    }
    std::env::remove_var("CORD_THREADS");
}
