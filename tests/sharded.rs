//! Sharded-engine determinism: the conservative-lookahead parallel runner
//! must produce bit-identical results, traces, and metrics for every worker
//! count (the partition count is fixed at the host count; workers only
//! decide what executes concurrently).

use cord_repro::cord::{RunResult, System};
use cord_repro::cord_proto::{ConsistencyModel, ProtocolKind, SystemConfig};
use cord_repro::cord_sim::coverage::CoverageMap;
use cord_repro::cord_sim::trace::{render_event, MetricsRecorder, RingSink, Shared};
use cord_repro::cord_sim::Time;
use cord_repro::cord_workloads::{AppSpec, MicroBench};

const FAULT_SPEC: &str = "seed=11; drop=0.04; dup=0.02; jitter=200";

fn micro_system(kind: ProtocolKind, hosts: u32, faults: bool) -> System {
    let cfg = SystemConfig::cxl(kind, hosts).with_model(ConsistencyModel::Rc);
    let programs = MicroBench::new(256, 4096, hosts - 1)
        .with_iters(2)
        .programs(&cfg);
    let mut sys = System::new(cfg, programs);
    if faults {
        sys.set_fault_spec(FAULT_SPEC).expect("fault spec");
    }
    sys
}

fn app_system(name: &str, hosts: u32, faults: bool) -> System {
    let cfg = SystemConfig::cxl(ProtocolKind::Cord, hosts);
    let mut app = AppSpec::by_name(name).expect("known app");
    app.iters = 2;
    let programs = app.programs(&cfg);
    let mut sys = System::new(cfg, programs);
    if faults {
        sys.set_fault_spec(FAULT_SPEC).expect("fault spec");
    }
    sys
}

/// Everything observable about a run, rendered to a comparable string.
fn fingerprint(r: &RunResult) -> String {
    let mut stalls: Vec<_> = r.stalls.iter().map(|(c, t)| format!("{c:?}={t}")).collect();
    stalls.sort();
    format!(
        "makespan={} drained={} events={} polls={} regs={:?} stalls=[{}] \
         traffic={:?} proc={:?} dir={:?}",
        r.makespan,
        r.drained,
        r.events,
        r.polls,
        r.regs,
        stalls.join(","),
        r.traffic,
        r.proc_storages,
        r.dir_storages,
    )
}

fn run_with_workers(mut sys: System, workers: usize) -> RunResult {
    sys.set_sim_threads(Some(workers));
    sys.try_run().expect("sharded run")
}

#[test]
fn results_identical_across_worker_counts() {
    for kind in [ProtocolKind::Cord, ProtocolKind::So] {
        let base = fingerprint(&run_with_workers(micro_system(kind, 8, false), 1));
        for workers in [2, 3, 8] {
            let got = fingerprint(&run_with_workers(micro_system(kind, 8, false), workers));
            assert_eq!(base, got, "{kind:?} diverged at {workers} workers");
        }
    }
}

#[test]
fn results_identical_across_worker_counts_under_faults() {
    let base = fingerprint(&run_with_workers(
        micro_system(ProtocolKind::Cord, 8, true),
        1,
    ));
    for workers in [2, 8] {
        let got = fingerprint(&run_with_workers(
            micro_system(ProtocolKind::Cord, 8, true),
            workers,
        ));
        assert_eq!(base, got, "faulted run diverged at {workers} workers");
    }
}

/// Crash faults are host-scoped and scheduled per partition; the schedule
/// is a pure function of the plan, so recovery must replay bit-identically
/// at every worker count (ISSUE: `CORD_SIM_THREADS` ∈ {1, 2, 4}).
#[test]
fn results_identical_across_worker_counts_under_crash_faults() {
    const CRASH_SPEC: &str =
        "seed=11; drop=0.02; jitter=150; crash.dir.1=700; crash.xport.3=1200; crash.dir.5=2000";
    let crash_system = || {
        let mut sys = micro_system(ProtocolKind::Cord, 8, false);
        sys.set_fault_spec(CRASH_SPEC).expect("crash spec");
        sys
    };
    let base = fingerprint(&run_with_workers(crash_system(), 1));
    assert!(
        base.contains("sessions_reset: 1"),
        "transport reset missing from fingerprint: {base}"
    );
    for workers in [2, 4, 8] {
        let got = fingerprint(&run_with_workers(crash_system(), workers));
        assert_eq!(base, got, "crash-faulted run diverged at {workers} workers");
    }
}

#[test]
fn app_results_identical_across_worker_counts() {
    let base = fingerprint(&run_with_workers(app_system("MOCFE", 4, false), 1));
    for workers in [2, 4] {
        let got = fingerprint(&run_with_workers(app_system("MOCFE", 4, false), workers));
        assert_eq!(base, got, "MOCFE diverged at {workers} workers");
    }
}

/// Runs with the tracer + metrics attached and returns every trace line plus
/// the rendered metrics report.
fn traced_run(mut sys: System, workers: usize) -> (Vec<String>, String) {
    sys.set_sim_threads(Some(workers));
    let ring = Shared::new(RingSink::new(usize::MAX));
    sys.tracer_mut().install(Box::new(ring.clone()));
    sys.tracer_mut().attach_metrics(MetricsRecorder::default());
    let r = sys.try_run().expect("traced sharded run");
    let metrics = r.metrics.expect("metrics recorded").render_text();
    let lines = ring.with(|r| r.events().map(render_event).collect());
    (lines, metrics)
}

#[test]
fn traces_and_metrics_identical_across_worker_counts() {
    let (base_trace, base_metrics) = traced_run(micro_system(ProtocolKind::Cord, 8, false), 1);
    assert!(!base_trace.is_empty());
    for workers in [2, 8] {
        let (trace, metrics) = traced_run(micro_system(ProtocolKind::Cord, 8, false), workers);
        assert_eq!(base_trace, trace, "trace diverged at {workers} workers");
        assert_eq!(
            base_metrics, metrics,
            "metrics diverged at {workers} workers"
        );
    }
}

#[test]
fn traces_identical_across_worker_counts_under_faults() {
    let (base_trace, base_metrics) = traced_run(micro_system(ProtocolKind::Cord, 8, true), 1);
    assert!(
        base_trace.iter().any(|l| l.contains("fabric:")),
        "fault injections should appear in the trace"
    );
    for workers in [2, 8] {
        let (trace, metrics) = traced_run(micro_system(ProtocolKind::Cord, 8, true), workers);
        assert_eq!(
            base_trace, trace,
            "faulted trace diverged at {workers} workers"
        );
        assert_eq!(base_metrics, metrics);
    }
}

/// The sharded engine must agree with the monolithic engine on the
/// *semantics* of a run: final memory/register observations and program
/// completion. (Trace interleavings legitimately differ — cross-host sends
/// are logged at port arrival rather than final delivery.)
#[test]
fn sharded_matches_monolithic_observations() {
    for kind in [ProtocolKind::Cord, ProtocolKind::So, ProtocolKind::Wb] {
        let mono = micro_system(kind, 8, false).try_run().expect("monolithic");
        let shard = run_with_workers(micro_system(kind, 8, false), 8);
        assert_eq!(mono.regs, shard.regs, "{kind:?} observations diverged");
        assert!(shard.makespan > Time::ZERO);
    }
}

/// Both engines send through one path and number fault decisions per
/// `(src host, dst host)` channel, so one fault spec drops, duplicates and
/// delays the same messages in either engine. Where ingress contention
/// also resolves alike, a faulted monolithic run and a one-worker sharded
/// run agree on observations, makespan and traffic (fault counters
/// included). The engines still differ in where a single copy pays
/// ingress: monolithic at its clean port arrival, in send order, with any
/// injected delay carried past the port; sharded at its delayed port
/// arrival, in arrival order. Where that changes a port's contention (CORD
/// on 8 hosts, SO on 2 and 8 hosts) the timing differs; those cases are
/// left out.
#[test]
fn faulted_engines_agree_on_fault_decisions() {
    for (kind, hosts) in [
        (ProtocolKind::Cord, 2),
        (ProtocolKind::Cord, 4),
        (ProtocolKind::So, 4),
        (ProtocolKind::Mp, 2),
        (ProtocolKind::Mp, 4),
        (ProtocolKind::Mp, 8),
    ] {
        let mono = micro_system(kind, hosts, true)
            .try_run()
            .expect("monolithic");
        let shard = run_with_workers(micro_system(kind, hosts, true), 1);
        assert!(
            mono.traffic.faults.any(),
            "{kind:?}/{hosts}: no fault injected"
        );
        assert_eq!(mono.regs, shard.regs, "{kind:?}/{hosts}: observations");
        assert_eq!(mono.makespan, shard.makespan, "{kind:?}/{hosts}: makespan");
        assert_eq!(mono.traffic, shard.traffic, "{kind:?}/{hosts}: traffic");
    }
}

/// Single-host systems have no cross-partition edges; the one partition
/// runs to completion in a single round.
#[test]
fn single_host_runs_in_one_partition() {
    let one_host = || {
        let cfg = SystemConfig::cxl(ProtocolKind::Cord, 1);
        let data = cfg.map.addr_on_host(0, 0);
        let flag = cfg.map.addr_on_host(0, 4096);
        let mut programs = vec![cord_repro::cord_proto::Program::new(); cfg.total_tiles() as usize];
        programs[0] = cord_repro::cord_proto::Program::build()
            .bulk_store(data, 2048, 64, 3)
            .store_release(flag, 1)
            .finish();
        programs[1] = cord_repro::cord_proto::Program::build()
            .wait_value(flag, 1)
            .load(data, 8, cord_repro::cord_proto::LoadOrd::Acquire, 1)
            .finish();
        System::new(cfg, programs)
    };
    let base = fingerprint(&run_with_workers(one_host(), 1));
    let got = fingerprint(&run_with_workers(one_host(), 4));
    assert_eq!(base, got);
}

/// Replays the committed fuzzer repro corpus through the sharded engine:
/// for every scenario (baseline and faulted phase alike) the outcome —
/// success fingerprint or error — and the rendered coverage map must be
/// identical at 1, 2 and 4 workers. The corpus is the diversity net here:
/// protocols, host counts, fault specs, and event-cap/hang scenarios the
/// fuzzer has actually found. Coverage is the fuzzer's novelty signal, so
/// it must not depend on the worker count either.
#[test]
fn repro_corpus_outcomes_identical_across_worker_counts() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/repros must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "repro"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "corpus unexpectedly small");

    let outcome =
        |scenario: &cord_repro::cord_fuzz::Scenario, faulted: bool, workers: usize| -> String {
            let run = std::panic::catch_unwind(|| {
                let cfg = scenario.config();
                let programs = scenario.programs(&cfg);
                let mut sys = System::new(cfg, programs);
                sys.set_sim_threads(Some(workers));
                sys.set_max_events(scenario.max_events);
                sys.tracer_mut().attach_coverage(CoverageMap::new());
                if faulted {
                    let spec = scenario.faults.as_deref().expect("faulted phase");
                    sys.set_fault_spec(spec).expect("corpus spec parses");
                }
                let out = match sys.try_run() {
                    Ok(r) => format!("ok {}", fingerprint(&r)),
                    Err(e) => format!("err {e}"),
                };
                let cov = sys.tracer_mut().take_coverage().expect("coverage attached");
                format!("{out}\n{} edge(s)\n{}", cov.distinct(), cov.render())
            });
            run.unwrap_or_else(|p| {
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".into());
                format!("panic {msg}")
            })
        };

    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let repro = cord_repro::cord_fuzz::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        for faulted in [false, true] {
            if faulted && repro.scenario.faults.is_none() {
                continue;
            }
            let base = outcome(&repro.scenario, faulted, 1);
            let empty = base.contains("\n0 edge(s)\n");
            assert!(!empty, "{name} (faulted={faulted}): no coverage observed");
            for workers in [2, 4] {
                let got = outcome(&repro.scenario, faulted, workers);
                assert_eq!(
                    base, got,
                    "{name} (faulted={faulted}): diverged between 1 and {workers} workers"
                );
            }
        }
    }
}

/// The liveness watchdog still fires under the sharded engine, with a
/// narrative that names the stuck cores, and identically at any worker
/// count.
#[test]
fn sharded_watchdog_reports_stuck_cores() {
    let hang = |workers: usize| {
        let cfg = SystemConfig::cxl(ProtocolKind::Cord, 2);
        let flag = cfg.map.addr_on_host(1, 4096);
        let mut programs = vec![cord_repro::cord_proto::Program::new(); cfg.total_tiles() as usize];
        // Waits on a flag nobody ever publishes.
        programs[0] = cord_repro::cord_proto::Program::build()
            .wait_value(flag, 1)
            .finish();
        let mut sys = System::new(cfg, programs);
        sys.set_sim_threads(Some(workers));
        sys.set_watchdog(Some(Time::from_us(10)));
        sys.try_run().expect_err("must hang").to_string()
    };
    let base = hang(1);
    assert!(base.contains("stuck at pc"), "narrative was: {base}");
    assert_eq!(base, hang(2), "watchdog verdict diverged across workers");
}
