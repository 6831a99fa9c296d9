//! Trace-subsystem invariants: traces are byte-for-byte deterministic
//! (same seed → same file, regardless of sweep worker count), a small
//! reference run matches its committed golden trace, and metrics ride the
//! `RunResult` when a recorder is attached.
//!
//! Regenerate the golden trace after an intentional format or protocol
//! change with `CORD_UPDATE_GOLDEN=1 cargo test -p cord-bench --test
//! trace_determinism`.

use cord::System;
use cord_bench::{config, Fabric};
use cord_proto::{ConsistencyModel, ProtocolKind, SystemConfig};
use cord_sim::par;
use cord_sim::trace::{ChromeTraceWriter, MetricsRecorder, RingSink, Shared};
use cord_workloads::{AppSpec, MicroBench};

/// Runs one traced system and returns the complete Chrome-trace JSON.
fn traced_run(cfg: SystemConfig, programs: Vec<cord_proto::Program>, tag: &str) -> String {
    traced_run_with(cfg, programs, tag, None)
}

/// Like [`traced_run`], with an optional fault-injection spec armed.
fn traced_run_with(
    cfg: SystemConfig,
    programs: Vec<cord_proto::Program>,
    tag: &str,
    faults: Option<&str>,
) -> String {
    let dir = std::env::temp_dir().join("cord_trace_determinism");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{tag}.json"));
    let path_str = path.to_str().expect("utf-8 temp path");
    let mut sys = System::new(cfg, programs);
    if let Some(spec) = faults {
        sys.set_fault_spec(spec).expect("fault spec parses");
    }
    sys.tracer_mut()
        .install(Box::new(ChromeTraceWriter::create(path_str).unwrap()));
    let _ = sys.run();
    // Dropping the system drops the tracer and its writer, closing the
    // JSON array.
    drop(sys);
    let text = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    text
}

/// The same traced grid must produce byte-identical trace files whether the
/// sweep runs on 1 worker or 8 — tracing must not observe scheduling.
#[test]
fn trace_bytes_identical_across_worker_counts() {
    let mut app = AppSpec::by_name("MOCFE").expect("known app");
    app.iters = 1;
    let grid: Vec<(usize, ProtocolKind)> = [ProtocolKind::Cord, ProtocolKind::So]
        .into_iter()
        .enumerate()
        .collect();
    let run_at = |threads: usize| {
        par::run_parallel_on(threads, &grid, |&(i, kind)| {
            let cfg = config(kind, Fabric::Cxl, 2, ConsistencyModel::Rc);
            let programs = app.programs(&cfg);
            traced_run(cfg, programs, &format!("w{threads}_{i}"))
        })
    };
    let serial = run_at(1);
    let parallel = run_at(8);
    assert!(serial.iter().all(|t| t.len() > 2), "traces are non-trivial");
    assert_eq!(
        serial, parallel,
        "trace bytes diverged across worker counts"
    );
}

/// Fault injection must not break determinism: with the same seeded
/// `FaultPlan` (drops, duplicates, jitter) and the reliable transport armed,
/// the traced run — including `FaultInject` and `XportRetrans` events —
/// is byte-identical at 1 and 8 sweep workers. Fault decisions hash the
/// per-fabric message counter, never wall clock or scheduling.
#[test]
fn faulted_trace_bytes_identical_across_worker_counts() {
    let mut app = AppSpec::by_name("MOCFE").expect("known app");
    app.iters = 1;
    // CORD tolerates reordering; WB exercises the FIFO hold-back path.
    let grid: Vec<(usize, ProtocolKind)> = [ProtocolKind::Cord, ProtocolKind::Wb]
        .into_iter()
        .enumerate()
        .collect();
    let spec = "seed=97; drop=0.03; dup=0.03; jitter=80";
    let run_at = |threads: usize| {
        par::run_parallel_on(threads, &grid, |&(i, kind)| {
            let cfg = config(kind, Fabric::Cxl, 2, ConsistencyModel::Rc);
            let programs = app.programs(&cfg);
            traced_run_with(cfg, programs, &format!("f{threads}_{i}"), Some(spec))
        })
    };
    let serial = run_at(1);
    let parallel = run_at(8);
    assert!(
        serial.iter().any(|t| t.contains("\"fault:")),
        "faults fired and were traced"
    );
    assert_eq!(
        serial, parallel,
        "faulted trace bytes diverged across worker counts"
    );
}

/// A small producer→consumer (message-passing shape) run under CORD matches
/// the committed golden trace byte for byte.
#[test]
fn golden_mp_micro_trace() {
    let cfg = config(ProtocolKind::Cord, Fabric::Cxl, 2, ConsistencyModel::Rc);
    let mb = MicroBench::new(64, 256, 1).with_iters(1);
    let programs = mb.programs(&cfg);
    let actual = traced_run(cfg, programs, "golden_candidate");
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/mp_micro_trace.json"
    );
    if std::env::var_os("CORD_UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &actual).expect("re-record golden trace");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden trace present (regenerate with CORD_UPDATE_GOLDEN=1)");
    assert_eq!(
        actual, golden,
        "trace drifted from the golden file; if intentional, regenerate \
         with CORD_UPDATE_GOLDEN=1"
    );
}

/// With a ring sink and a metrics recorder attached, the run captures
/// events in memory and the `RunResult` carries a populated snapshot.
#[test]
fn ring_and_metrics_ride_the_run_result() {
    let cfg = config(ProtocolKind::Cord, Fabric::Cxl, 2, ConsistencyModel::Rc);
    let mb = MicroBench::new(64, 256, 1).with_iters(1);
    let programs = mb.programs(&cfg);
    let ring = Shared::new(RingSink::new(64));
    let mut sys = System::new(cfg, programs);
    sys.tracer_mut().install(Box::new(ring.clone()));
    sys.tracer_mut().attach_metrics(MetricsRecorder::default());
    let r = sys.run();
    assert!(ring.with(|s| s.len()) > 0, "ring captured events");
    let m = r.metrics.expect("metrics snapshot present");
    assert!(m.events > 0);
    assert!(m.latency_ns.count > 0, "store commits were latency-matched");
    let json = m.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
}

/// An untraced run must carry no metrics (the zero-cost default).
#[test]
fn untraced_run_has_no_metrics() {
    let cfg = config(ProtocolKind::Cord, Fabric::Cxl, 2, ConsistencyModel::Rc);
    let mb = MicroBench::new(64, 256, 1).with_iters(1);
    let programs = mb.programs(&cfg);
    let r = System::new(cfg, programs).run();
    assert!(r.metrics.is_none());
}
