//! Replays the committed fuzzer repro corpus (`tests/repros/*.repro`).
//!
//! Every file must carry an `expect` line; the test re-runs the scenario
//! through the full oracle stack and asserts the verdict class still
//! matches, then pins the repro format itself: parsing is stable under
//! re-serialization, and serialization is canonical (a second
//! serialize/parse round trip is byte-identical).
//!
//! The corpus is the fuzzer's seed set and its regression net at once:
//! when a campaign finds a failure, the shrunk repro lands here so the
//! bug stays fixed. `cord_capacity1.repro`, for example, pinned an
//! abstract-model crash on capacity-1 directory tables the day it was
//! written.

use cord_repro::cord::System;
use cord_repro::cord_fuzz::{parse, run_scenario};
use cord_repro::cord_sim::obs::render_flight;

/// One test for the whole corpus.
#[test]
fn every_committed_repro_still_reproduces() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/repros must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "repro"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 6,
        "corpus unexpectedly small: {} files",
        files.len()
    );

    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let repro = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let expect = repro
            .expect
            .as_deref()
            .unwrap_or_else(|| panic!("{name}: corpus files must carry an expect line"));

        // Verdict regression: the oracle stack must still classify the
        // scenario the way the file records.
        let report = run_scenario(&repro.scenario);
        assert_eq!(
            report.verdict.class(),
            expect,
            "{name}: verdict drifted — got {}",
            report.verdict
        );

        // Format round trip: serialize(parse(file)) is canonical.
        let canon = repro.scenario.serialize(Some(expect));
        let reparsed = parse(&canon).unwrap_or_else(|e| panic!("{name}: re-parse failed: {e}"));
        assert_eq!(
            reparsed.scenario, repro.scenario,
            "{name}: round trip drifted"
        );
        assert_eq!(reparsed.expect.as_deref(), Some(expect));
        assert_eq!(
            reparsed.scenario.serialize(Some(expect)),
            canon,
            "{name}: serialization is not canonical"
        );
    }
}

/// Pins the complete failure text of two monolithic runs: the `RunError`
/// display (verdict line plus narrative) and the header of the flight dump
/// each would write. One repro trips the liveness watchdog, the other the
/// event cap. Re-record with `CORD_UPDATE_GOLDEN=1` after an intentional
/// change to the narrative.
#[test]
fn failure_text_matches_golden() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut got = String::new();
    for name in ["cord_notify_drop_hang.repro", "cord_event_cap.repro"] {
        let text = std::fs::read_to_string(root.join("tests/repros").join(name)).unwrap();
        let s = parse(&text)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .scenario;
        let cfg = s.config();
        let programs = s.programs(&cfg);
        let mut sys = System::new(cfg, programs);
        sys.set_max_events(s.max_events);
        if let Some(spec) = &s.faults {
            sys.set_fault_spec(spec).expect("repro spec parses");
        }
        sys.tracer_mut().arm_flight(64);
        let err = sys.try_run().expect_err("repro must fail").to_string();
        let dump = render_flight(&err, &sys.take_flight_rings());
        got.push_str(&format!("== {name}\n{err}\n-- flight header\n"));
        for line in dump.lines().take_while(|l| l.starts_with('#')) {
            got.push_str(line);
            got.push('\n');
        }
    }
    let path = root.join("tests/golden/failure_text.txt");
    if std::env::var_os("CORD_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want =
        std::fs::read_to_string(&path).expect("golden file (CORD_UPDATE_GOLDEN=1 to create)");
    assert_eq!(
        want, got,
        "failure text drifted from tests/golden/failure_text.txt \
         (CORD_UPDATE_GOLDEN=1 to re-record)"
    );
}
