//! Scale-out determinism: the causal-KV workload on many-host, multi-tier
//! fabrics must produce bit-identical results, traces, and metrics at every
//! `CORD_SIM_THREADS` worker count (ISSUE: workers ∈ {1, 2, 4, 8}).
//!
//! Partition count is always the host count; the worker count only decides
//! what executes concurrently, so 64 hosts on 1 worker and 64 hosts on 8
//! workers must be indistinguishable byte for byte.

use cord_repro::cord::{RunResult, System};
use cord_repro::cord_noc::{Fabric, NocConfig};
use cord_repro::cord_proto::{ConsistencyModel, ProtocolKind, SystemConfig};
use cord_repro::cord_sim::trace::{render_event, MetricsRecorder, RingSink, Shared};
use cord_repro::cord_workloads::KvSpec;

/// A small KV tier: one client per host keeps 64-host traced runs fast
/// while still spraying puts across remote key partitions.
fn kv_spec() -> KvSpec {
    KvSpec {
        clients_per_host: 1,
        sessions: 2,
        puts_per_session: 2,
        value_bytes: 8,
        keyspace: 1 << 12,
        seed: 3,
    }
}

fn kv_system(hosts: u32, fabric: &str) -> System {
    kv_system_with(hosts, fabric, &kv_spec(), None)
}

/// The benchmark's `faults-64` input at seed 1: the scale spec's four
/// clients per host for 64 sessions, under drops, duplicates, jitter, a
/// directory crash on host 5 at 20 µs and a transport crash on host 9 at
/// 40 µs.
const FAULTS_64: &str =
    "seed=1; drop=0.02; dup=0.02; jitter=50; crash.dir.5=20000; crash.xport.9=40000";

fn faults_64_spec() -> KvSpec {
    KvSpec {
        sessions: 64,
        ..KvSpec::scale()
    }
}

fn kv_system_with(hosts: u32, fabric: &str, spec: &KvSpec, faults: Option<&str>) -> System {
    let noc = NocConfig::cxl(hosts, 8).with_fabric(Fabric::parse(fabric).expect("fabric parses"));
    let cfg = SystemConfig::with_noc(ProtocolKind::Cord, noc).with_model(ConsistencyModel::Rc);
    let programs = spec.programs(&cfg);
    let mut sys = System::new(cfg, programs);
    sys.set_pair_accounting(true);
    if let Some(f) = faults {
        sys.set_fault_spec(f).expect("fault spec parses");
    }
    sys
}

/// Everything observable about a run, rendered to a comparable string —
/// including the sparse per-host-pair traffic ledger the scale bench reads.
fn fingerprint(r: &RunResult) -> String {
    let mut stalls: Vec<_> = r.stalls.iter().map(|(c, t)| format!("{c:?}={t}")).collect();
    stalls.sort();
    format!(
        "makespan={} drained={} events={} polls={} regs={:?} stalls=[{}] \
         traffic={:?} proc={:?} dir={:?} pairs={:?}",
        r.makespan,
        r.drained,
        r.events,
        r.polls,
        r.regs,
        stalls.join(","),
        r.traffic,
        r.proc_storages,
        r.dir_storages,
        r.pair_flows,
    )
}

fn run_with_workers(mut sys: System, workers: usize) -> RunResult {
    sys.set_sim_threads(Some(workers));
    sys.try_run().expect("sharded run")
}

/// Runs with the tracer + metrics attached and returns every trace line
/// plus the rendered metrics report.
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

/// Asserts that a faulted run's transport paid for the fabric's losses,
/// not for its traffic: timer events within 5% of all events and
/// retransmissions within twice the fabric's drops.
fn assert_pays_for_loss(r: &RunResult, engine: &str) {
    let f = &r.traffic.faults;
    assert!(
        f.dropped > 0 && f.sessions_reset > 0,
        "{engine}: fault plan inactive: {f:?}"
    );
    let timers = r
        .profile
        .as_ref()
        .expect("profile armed")
        .classes
        .iter()
        .find(|(class, _, _)| class == "xport_timeout")
        .map_or(0, |&(_, n, _)| n);
    assert!(
        timers * 20 <= r.events,
        "{engine}: {timers} timer events of {}",
        r.events
    );
    assert!(
        f.retransmits <= 2 * f.dropped,
        "{engine}: {} retransmissions for {} drops",
        f.retransmits,
        f.dropped
    );
}

/// The clean KV tier and the benchmark's `faults-64` run are identical at
/// every worker count, and the faulted run pays for loss, not for traffic,
/// on the sharded engine and on the default (monolithic) engine that the
/// benchmark runs.
#[test]
fn kv_results_identical_at_64_hosts_across_worker_counts() {
    for (spec, faults) in [(kv_spec(), None), (faults_64_spec(), Some(FAULTS_64))] {
        let system = || {
            let mut sys = kv_system_with(64, "fattree 8 2 40 120 400", &spec, faults);
            sys.set_profiling(true);
            sys
        };
        let r = run_with_workers(system(), 1);
        let base = fingerprint(&r);
        for workers in [2, 4, 8] {
            assert_eq!(
                base,
                fingerprint(&run_with_workers(system(), workers)),
                "64-host KV run (faults {faults:?}) diverged at {workers} workers"
            );
        }
        if faults.is_none() {
            continue;
        }
        assert_pays_for_loss(&r, "sharded");
        let mut sys = system();
        sys.set_sim_threads(None);
        assert_pays_for_loss(&sys.try_run().expect("monolithic run"), "monolithic");
    }
}

#[test]
fn kv_traces_and_metrics_identical_at_64_hosts() {
    let (base_trace, base_metrics) = traced_run(kv_system(64, "dragonfly 8 50 400"), 1);
    assert!(!base_trace.is_empty());
    for workers in [2, 4, 8] {
        let (trace, metrics) = traced_run(kv_system(64, "dragonfly 8 50 400"), workers);
        assert_eq!(base_trace, trace, "KV trace diverged at {workers} workers");
        assert_eq!(
            base_metrics, metrics,
            "KV metrics diverged at {workers} workers"
        );
    }
}

/// A pods fabric crosses the sharded engine's conservative lookahead with a
/// two-tier latency table: pod-local pairs bound the lookahead while
/// cross-pod notifications arrive much later.
#[test]
fn kv_results_identical_on_pods_fabric() {
    let base = fingerprint(&run_with_workers(kv_system(16, "pods 4 200 600"), 1));
    for workers in [2, 8] {
        let got = fingerprint(&run_with_workers(kv_system(16, "pods 4 200 600"), workers));
        assert_eq!(
            base, got,
            "pods-fabric KV run diverged at {workers} workers"
        );
    }
}

/// The sharded engine must agree with the monolithic engine on the run's
/// semantics (final registers) on a multi-tier fabric too; event accounting
/// legitimately differs (cross-host sends split into egress + port arrival).
#[test]
fn kv_sharded_matches_monolithic_observations() {
    let mono = kv_system(16, "fattree 4 2 40 120 400")
        .try_run()
        .expect("monolithic");
    let shard = run_with_workers(kv_system(16, "fattree 4 2 40 120 400"), 4);
    assert_eq!(mono.regs, shard.regs, "KV observations diverged");
}
