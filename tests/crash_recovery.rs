//! Crash–restart fault injection end to end.
//!
//! `CORD_FAULTS` crash directives reset node-scoped state mid-run: a
//! directory controller loses its ATA/CNT tables and pending
//! cross-directory notifications (`crash.dir`), or a host's transport
//! loses its retransmission bookkeeping (`crash.xport`). The CORD engines
//! must *recover* — conservatively re-fence in-flight epochs, re-register
//! with the wiped directories, replay unacked transport buffers into a new
//! session epoch — and still produce exactly the fault-free architectural
//! results. Non-CORD engines have no recoverable directory state, so a
//! `crash.dir` must degrade gracefully into a traced no-op.

use cord_repro::cord::{RunResult, System};
use cord_repro::cord_fuzz::{parse, run_scenario_cov, Scenario};
use cord_repro::cord_proto::{ProtocolKind, SystemConfig};
use cord_repro::cord_sim::coverage::Edge;
use cord_repro::cord_workloads::MicroBench;

/// An 8-host CORD micro-benchmark (makespan a few µs, so nanosecond crash
/// times land mid-run) with the given fault spec, or a clean baseline.
fn micro(kind: ProtocolKind, faults: Option<&str>) -> System {
    let cfg = SystemConfig::cxl(kind, 8);
    let programs = MicroBench::new(256, 4096, 7).with_iters(8).programs(&cfg);
    let mut sys = System::new(cfg, programs);
    if let Some(spec) = faults {
        sys.set_fault_spec(spec).expect("fault spec");
    }
    sys
}

fn run(mut sys: System) -> RunResult {
    sys.try_run().expect("run completes")
}

/// A cross-host fuzz scenario whose verdict compares the faulted run's
/// final memory against a fault-free baseline (the RC oracle).
fn scenario(faults: &str) -> Scenario {
    let text = format!(
        "cord-fuzz repro v1\nengine CORD\ntopo cxl\nhosts 4\ntph 2\n\
         tables 8 8 8 16 64\nmax_events 4000000\nfaults {faults}\n\
         pair 0 6\nround 3:0 1:0 2:1\nround 3:1 1:2 2:3\nround 3:2 1:4r 2:5\n"
    );
    parse(&text).expect("test scenario parses").scenario
}

#[test]
fn dir_crash_mid_run_recovers_with_fault_free_results() {
    let clean = run(micro(ProtocolKind::Cord, None));
    // Two directory crashes on different hosts while epochs are in flight.
    let crashed = run(micro(
        ProtocolKind::Cord,
        Some("seed=11; crash.dir.1=700; crash.dir.3=1400"),
    ));
    assert_eq!(
        clean.regs, crashed.regs,
        "directory-crash recovery changed architectural results"
    );
}

#[test]
fn xport_crash_replays_unacked_and_preserves_results() {
    let clean = run(micro(ProtocolKind::Cord, None));
    // Ack loss keeps unacked buffers populated; the transport resets must
    // replay them into a new session without double delivery.
    let crashed = run(micro(
        ProtocolKind::Cord,
        Some("seed=7; drop.Ack=0.3; rto=800; crash.xport.0=900; crash.xport.2=1600"),
    ));
    assert_eq!(
        clean.regs, crashed.regs,
        "transport-reset replay changed architectural results"
    );
    let f = crashed.traffic.faults;
    assert!(f.sessions_reset > 0, "no send channel was actually reset");
}

#[test]
fn dir_crash_passes_rc_oracle_with_recovery_coverage() {
    let sc = scenario("seed=3; crash.dir.1=4000; jitter=100; rto=1500");
    let (report, cov) = run_scenario_cov(&sc, false);
    assert_eq!(report.verdict.class(), "pass", "{}", report.verdict);
    assert!(
        cov.covers(&Edge::Crash { kind: "dir" }),
        "crash edge missing\n{}",
        cov.render()
    );
    // Every core re-fenced: recovery-duration and re-fence fan-out edges.
    let fams = cov.families();
    assert!(
        fams.contains_key("recover_dur"),
        "no recovery completed\n{}",
        cov.render()
    );
    assert!(
        fams.contains_key("refence"),
        "no re-fence fan-out recorded\n{}",
        cov.render()
    );
}

#[test]
fn xport_crash_passes_rc_oracle() {
    let sc = scenario("seed=9; drop=0.2; rto=900; crash.xport.0=6000; crash.xport.1=9000");
    let (report, cov) = run_scenario_cov(&sc, false);
    assert_eq!(report.verdict.class(), "pass", "{}", report.verdict);
    assert!(
        cov.covers(&Edge::Crash { kind: "xport" }),
        "xport crash edge missing\n{}",
        cov.render()
    );
}

#[test]
fn non_cord_engines_degrade_gracefully_on_dir_crash() {
    for kind in [ProtocolKind::So, ProtocolKind::Mp] {
        let clean = run(micro(kind, None));
        let crashed = run(micro(kind, Some("seed=5; crash.dir.1=700")));
        assert_eq!(
            clean.regs, crashed.regs,
            "{kind:?}: ignored crash still changed results"
        );
        // No recovery activity: the crash is a traced no-op.
        let f = crashed.traffic.faults;
        assert_eq!(
            (f.sessions_reset, f.replayed),
            (0, 0),
            "{kind:?}: a dir crash must not touch the transport"
        );
    }
}

#[test]
fn repeated_dir_crashes_on_one_host_still_recover() {
    let clean = run(micro(ProtocolKind::Cord, None));
    let crashed = run(micro(
        ProtocolKind::Cord,
        Some("seed=2; crash.dir.1=700; crash.dir.1=1100; crash.dir.1=1900"),
    ));
    assert_eq!(
        clean.regs, crashed.regs,
        "repeated crash-recovery changed architectural results"
    );
}
