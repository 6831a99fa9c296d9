//! Transport-layer fault-recovery edges, asserted through the coverage map.
//!
//! `cord_proto::transport` implements per-host-pair-link retransmission
//! with exponential backoff (capped at `max_backoff_exp`) and duplicate
//! suppression. These behaviors previously had no direct test: they were
//! exercised incidentally by fault campaigns but nothing pinned the
//! *specific* recovery edges. The trace-derived [`CoverageMap`] makes them
//! first-class observable events, so this file drives the transport into
//! its deep corners with heavy deterministic fault plans and asserts the
//! exact edges appear:
//!
//! * the backoff cap is **reached and held** — some message fires a
//!   retransmission at least two attempts past delay saturation
//!   (`Edge::RetransCapHeld`), with the log₂ attempt ladder
//!   (`Edge::Retrans`) populated below it;
//! * the **duplicate-after-retransmit race** — an ACK loss forces a
//!   retransmission of a message the receiver already handled, and the
//!   receiver's duplicate suppression (`Edge::DupDrop { after_retrans:
//!   true }`) absorbs it.
//!
//! One `#[test]` per concern.

use cord_repro::cord_fuzz::{parse, run_scenario_cov, Scenario};
use cord_repro::cord_sim::coverage::Edge;

/// A CORD scenario with enough cross-host rounds to put a steady message
/// stream on the wire, with the given fault plan.
fn scenario(faults: &str) -> Scenario {
    let text = format!(
        "cord-fuzz repro v1\nengine CORD\ntopo cxl\nhosts 4\ntph 2\n\
         tables 8 8 8 16 64\nmax_events 4000000\nfaults {faults}\n\
         pair 0 6\nround 3:0 1:0 2:1\nround 3:1 1:2 2:3\nround 3:2 1:4r 2:5\n"
    );
    parse(&text).expect("test scenario parses").scenario
}

#[test]
fn backoff_cap_is_reached_and_held() {
    // 85% loss with a short RTO: expected attempts per delivery ≈ 6.7 with
    // a heavy tail, so with dozens of messages some channel climbs well
    // past the default cap (max_backoff_exp = 6 ⇒ saturation at attempt 7,
    // "held" from attempt 8). Deterministic: the plan seed fixes every
    // drop decision.
    let sc = scenario("seed=12; drop=0.85; rto=800");
    let (report, cov) = run_scenario_cov(&sc, false);
    assert_eq!(report.verdict.class(), "pass", "{}", report.verdict);

    // The attempt ladder is populated from the bottom (the first
    // retransmission is attempt 2, so bucket 0 never occurs)...
    for bucket in 1..=2 {
        assert!(
            cov.covers(&Edge::Retrans { bucket }),
            "missing retrans bucket {bucket}\n{}",
            cov.render()
        );
    }
    // ...and the cap was not just touched but held past saturation.
    assert!(
        cov.covers(&Edge::Retrans { bucket: 3 }),
        "no retransmission reached attempt 8+\n{}",
        cov.render()
    );
    assert!(
        cov.covers(&Edge::RetransCapHeld),
        "backoff cap never held\n{}",
        cov.render()
    );
}

#[test]
fn duplicate_suppression_after_a_retransmit_race() {
    // Dropping ACKs (not payloads) is the race recipe: the receiver
    // handles the original, the sender never learns and retransmits, and
    // the receiver's dedup must absorb the echo.
    let sc = scenario("seed=5; drop.Ack=0.50; rto=800");
    let (report, cov) = run_scenario_cov(&sc, false);
    assert_eq!(report.verdict.class(), "pass", "{}", report.verdict);
    assert!(
        cov.covers(&Edge::DupDrop {
            after_retrans: true
        }),
        "no duplicate was suppressed after a retransmission\n{}",
        cov.render()
    );
    // The retransmissions that caused the race are themselves visible.
    assert!(cov.covers(&Edge::Retrans { bucket: 1 }), "{}", cov.render());
}

#[test]
fn clean_runs_produce_no_transport_recovery_edges() {
    // Fault-free control: the recovery families must be absent, so the
    // assertions above measure the transport, not coverage-map noise.
    let mut sc = scenario("seed=1; drop=0.85; rto=800");
    sc.faults = None;
    let (report, cov) = run_scenario_cov(&sc, false);
    assert_eq!(report.verdict.class(), "pass", "{}", report.verdict);
    let fams = cov.families();
    for family in ["retrans", "retrans_cap_held", "dup_drop", "inject"] {
        assert!(
            !fams.contains_key(family),
            "unexpected {family} edges in a fault-free run\n{}",
            cov.render()
        );
    }
}
