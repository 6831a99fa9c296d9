//! Observability-layer integration: the sampled metrics time-series must be
//! bit-identical at every sharded worker count and every sweep parallelism,
//! the Prometheus rendering is pinned by a golden snapshot, the flight
//! recorder survives a forced `RunError` and round-trips through its text
//! format, and the checker's frontier series is thread-count independent.

use cord_repro::cord::{RunResult, System};
use cord_repro::cord_check::{classic_suite, explore_with, CheckConfig, ExploreOpts};
use cord_repro::cord_proto::{ConsistencyModel, Program, ProtocolKind, SystemConfig};
use cord_repro::cord_sim::coverage::CoverageMap;
use cord_repro::cord_sim::obs::{self, ProfileSummary, SeriesSet};
use cord_repro::cord_sim::trace::{render_event, MetricsRecorder, RingSink, Shared};
use cord_repro::cord_sim::{par, Time};
use cord_repro::cord_workloads::MicroBench;

/// Store-heavy multi-host workload with cross-host traffic on every
/// partition boundary, so the series have content in both partitions.
fn sampled_system(hosts: u32) -> System {
    let cfg = SystemConfig::cxl(ProtocolKind::Cord, hosts).with_model(ConsistencyModel::Rc);
    let programs = MicroBench::new(256, 4096, hosts - 1)
        .with_iters(2)
        .programs(&cfg);
    let mut sys = System::new(cfg, programs);
    sys.set_sampling(Some(Time::from_ns(500)));
    sys
}

fn run_sampled(workers: Option<usize>) -> RunResult {
    let mut sys = sampled_system(4);
    sys.set_sim_threads(workers);
    sys.tracer_mut().attach_metrics(MetricsRecorder::default());
    sys.try_run().expect("sampled run")
}

/// Sim-time sampling is keyed to the deterministic per-partition event
/// order, so the series — and both renderings — are byte-identical at 1, 2,
/// and 4 sharded workers.
#[test]
fn series_identical_across_sim_workers() {
    let base = run_sampled(Some(1));
    let base_obs = base.obs.as_ref().expect("sampling was enabled");
    assert!(!base_obs.is_empty(), "no samples taken");
    let base_json = obs::render_json(base_obs, base.metrics.as_ref());
    let base_prom = obs::render_prometheus(base_obs, base.metrics.as_ref());
    for workers in [2usize, 4] {
        let got = run_sampled(Some(workers));
        let got_obs = got.obs.as_ref().expect("sampling was enabled");
        assert_eq!(base_obs, got_obs, "series diverged at {workers} workers");
        assert_eq!(
            base_json,
            obs::render_json(got_obs, got.metrics.as_ref()),
            "JSON rendering diverged at {workers} workers"
        );
        assert_eq!(
            base_prom,
            obs::render_prometheus(got_obs, got.metrics.as_ref()),
            "Prometheus rendering diverged at {workers} workers"
        );
    }
}

/// Sampling inside runs that are themselves fanned out over the sweep
/// worker pool (`CORD_THREADS` territory) stays deterministic: the series
/// depend only on each run's own event order, never on pool scheduling.
#[test]
fn series_identical_across_sweep_parallelism() {
    let items: Vec<u32> = vec![2, 4];
    let run_all = |pool: usize| -> Vec<String> {
        par::run_parallel_on(pool, &items, |&hosts| {
            let mut sys = sampled_system(hosts);
            let r = sys.try_run().expect("sampled run");
            obs::render_json(r.obs.as_ref().expect("sampling on"), r.metrics.as_ref())
        })
    };
    assert_eq!(
        run_all(1),
        run_all(2),
        "series depended on sweep parallelism"
    );
}

/// Everything one fully armed run observed, rendered for comparison.
struct Observed {
    trace: Vec<String>,
    metrics: String,
    coverage: String,
    series: String,
    flight: String,
    profile: ProfileSummary,
}

/// Arms every observer at once — sink, metrics, coverage, flight ring,
/// sampling and profiling — and runs through the sharded engine, so each
/// one goes through the partition fork and the merge.
fn run_fully_observed(workers: usize) -> Observed {
    let mut sys = sampled_system(4);
    sys.set_sim_threads(Some(workers));
    sys.set_profiling(true);
    let ring = Shared::new(RingSink::new(usize::MAX));
    sys.tracer_mut().install(Box::new(ring.clone()));
    sys.tracer_mut().attach_metrics(MetricsRecorder::default());
    sys.tracer_mut().attach_coverage(CoverageMap::new());
    sys.tracer_mut().arm_flight(32);
    let r = sys.try_run().expect("fully observed run");
    let series = r.obs.as_ref().expect("sampling armed");
    Observed {
        trace: ring.with(|r| r.events().map(render_event).collect()),
        metrics: r.metrics.as_ref().expect("metrics attached").render_text(),
        coverage: sys.tracer_mut().take_coverage().expect("coverage").render(),
        series: obs::render_json(series, r.metrics.as_ref()),
        flight: obs::render_flight("", &sys.take_flight_rings()),
        profile: r.profile.expect("profiling armed"),
    }
}

/// With all six observers armed together, every deterministic output is
/// identical at 1, 2 and 4 workers, and the merged profile holds both the
/// per-event classes and the per-round phases.
#[test]
fn all_observers_armed_identical_across_sim_workers() {
    let base = run_fully_observed(1);
    assert!(!base.trace.is_empty(), "no trace events");
    assert!(!base.coverage.is_empty(), "no coverage");
    assert!(base.flight.contains("# partition 3:"), "{}", base.flight);
    let has = |rows: &[(String, u64, u64)], label: &str| rows.iter().any(|(k, _, _)| k == label);
    assert!(
        has(&base.profile.classes, "core_step"),
        "{:?}",
        base.profile
    );
    assert!(has(&base.profile.phases, "execute"), "{:?}", base.profile);
    for workers in [2, 4] {
        let got = run_fully_observed(workers);
        assert_eq!(base.trace, got.trace, "trace diverged at {workers} workers");
        assert_eq!(base.metrics, got.metrics, "metrics diverged at {workers}");
        assert_eq!(
            base.coverage, got.coverage,
            "coverage diverged at {workers}"
        );
        assert_eq!(base.series, got.series, "series diverged at {workers}");
        assert_eq!(
            base.flight, got.flight,
            "flight rings diverged at {workers}"
        );
    }
}

/// Pins the Prometheus text exposition byte-for-byte. Regenerate with
/// `CORD_UPDATE_GOLDEN=1 cargo test -q --test obs`.
#[test]
fn prometheus_rendering_matches_golden() {
    let r = run_sampled(None); // monolithic: unprefixed series names
    let prom = obs::render_prometheus(r.obs.as_ref().expect("sampling on"), r.metrics.as_ref());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/obs.prom");
    if std::env::var_os("CORD_UPDATE_GOLDEN").is_some() {
        obs::write_output(path, &prom).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file (CORD_UPDATE_GOLDEN=1 to create)");
    assert_eq!(
        want, prom,
        "Prometheus rendering drifted from tests/golden/obs.prom \
         (CORD_UPDATE_GOLDEN=1 to re-record)"
    );
}

/// A deadlocked sharded run leaves per-partition flight rings on the parent
/// system; the rendered dump round-trips through `parse_flight` with the
/// merged event order preserved, and replays cleanly into a fresh recorder
/// (what `trace --flight` does).
#[test]
fn flight_recorder_survives_watchdog_hang() {
    let cfg = SystemConfig::cxl(ProtocolKind::Cord, 2);
    let flag = cfg.map.addr_on_host(1, 4096);
    let mut programs = vec![Program::new(); cfg.total_tiles() as usize];
    // Waits on a flag nobody ever publishes — the PR-3 deadlock fixture.
    programs[0] = Program::build().wait_value(flag, 1).finish();
    let mut sys = System::new(cfg, programs);
    sys.set_sim_threads(Some(2));
    sys.set_watchdog(Some(Time::from_us(10)));
    sys.tracer_mut().arm_flight(64);
    let err = sys.try_run().expect_err("must hang").to_string();

    let rings = sys.take_flight_rings();
    assert!(!rings.is_empty(), "no flight rings retained");
    let total: usize = rings.iter().map(|(_, r)| r.len()).sum();
    assert!(total > 0, "flight rings were empty");

    let text = obs::render_flight(&err, &rings);
    assert!(text.starts_with("# cord-flight v1"), "bad header:\n{text}");
    let dump = obs::parse_flight(&text).expect("dump parses");
    assert!(dump.error.contains("no progress") || !dump.error.is_empty());
    let merged = dump.merged();
    assert_eq!(merged.len(), total, "events lost in the round-trip");
    assert!(
        merged.windows(2).all(|w| {
            let a = (w[0].1.at, w[0].0, w[0].1.seq);
            let b = (w[1].1.at, w[1].0, w[1].1.seq);
            a <= b
        }),
        "merged dump out of order"
    );

    // Replay through a fresh recorder, as `trace --flight` does.
    let mut tracer = cord_repro::cord_sim::trace::Tracer::default();
    tracer.attach_metrics(MetricsRecorder::default());
    for (_, ev) in &merged {
        tracer.emit(ev.at, ev.data);
    }
    tracer.finish();
    let snap = tracer
        .take_metrics()
        .map(|m| m.snapshot())
        .expect("metrics");
    assert_eq!(snap.events, total as u64, "replay dropped events");
}

/// The crash error path keeps the flight recorder: a run that injects a
/// directory crash and then trips the watchdog retains rings whose crash
/// and recovery events survive the render → parse → replay round-trip.
#[test]
fn flight_recorder_round_trips_crash_events() {
    let cfg = SystemConfig::cxl(ProtocolKind::Cord, 2);
    let flag = cfg.map.addr_on_host(1, 4096);
    let mut programs = vec![Program::new(); cfg.total_tiles() as usize];
    // Publishes one epoch, then waits on a flag nobody ever publishes; the
    // directory crash lands while the core is stuck, so the ring holds the
    // full crash → recover-begin → recover-end sequence before the hang.
    programs[0] = Program::build()
        .store(
            cfg.map.addr_on_host(1, 0),
            8,
            7,
            cord_repro::cord_proto::StoreOrd::Release,
        )
        .wait_value(flag, 1)
        .finish();
    let mut sys = System::new(cfg, programs);
    sys.set_fault_spec("seed=4; crash.dir.1=3000")
        .expect("crash spec");
    sys.set_watchdog(Some(Time::from_us(50)));
    // Large enough to retain the whole run: the crash lands at 3µs but the
    // hang is detected hundreds of µs later, after much polling traffic.
    sys.tracer_mut().arm_flight(16384);
    let err = sys.try_run().expect_err("must hang").to_string();
    assert!(
        err.contains("fault plan:") && err.contains("dir reset"),
        "hang narrative must summarize the crash plan: {err}"
    );

    let rings = sys.take_flight_rings();
    assert!(!rings.is_empty(), "no flight rings retained");
    let text = obs::render_flight(&err, &rings);
    let dump = obs::parse_flight(&text).expect("crash dump parses");
    let merged = dump.merged();
    let total: usize = rings.iter().map(|(_, r)| r.len()).sum();
    assert_eq!(merged.len(), total, "events lost in the round-trip");
    use cord_repro::cord_sim::trace::TraceData;
    let has = |f: &dyn Fn(&TraceData) -> bool| merged.iter().any(|(_, ev)| f(&ev.data));
    assert!(
        has(&|d| matches!(d, TraceData::CrashInject { kind: "dir", .. })),
        "crash injection missing from dump:\n{text}"
    );
    assert!(
        has(&|d| matches!(d, TraceData::RecoverBegin { .. }))
            && has(&|d| matches!(d, TraceData::RecoverEnd { .. })),
        "recovery events missing from dump:\n{text}"
    );
}

/// The per-level frontier series from the model checker is part of its
/// deterministic search shape: identical at any shard count, with and
/// without symmetry consistent with its own peak/level counters.
#[test]
fn checker_frontier_series_thread_independent() {
    let lit = classic_suite()
        .into_iter()
        .find(|l| l.name == "MP")
        .expect("classic suite has MP");
    let cfg = CheckConfig::cord(lit.thread_count(), 3);
    let placement = vec![1u8; lit.thread_count()];
    let run = |threads: usize| {
        let opts = ExploreOpts {
            threads,
            symmetry: true,
            audit: false,
        };
        explore_with(&cfg, &lit, &placement, 1_000_000, opts).1
    };
    let base = run(1);
    assert_eq!(base.levels, base.frontier.len());
    assert_eq!(
        base.peak_frontier as u64,
        base.frontier.iter().copied().max().unwrap_or(0)
    );
    for threads in [2usize, 4] {
        assert_eq!(base, run(threads), "search shape diverged at {threads}");
    }
}

/// `absorb_prefixed` (the sharded merge) namespaces without reordering.
#[test]
fn absorb_prefixed_namespaces_series() {
    let mut a = SeriesSet::default();
    let mut b = SeriesSet {
        interval_ps: 1000,
        ..SeriesSet::default()
    };
    b.record("queue_depth", 0, 3);
    b.record("queue_depth", 1000, 5);
    a.absorb_prefixed("p1.", b);
    assert_eq!(a.interval_ps, 1000);
    assert_eq!(
        a.series.get("p1.queue_depth"),
        Some(&vec![(0, 3), (1000, 5)])
    );
}
