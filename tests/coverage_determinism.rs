//! Coverage-map determinism across shard widths and pool widths.
//!
//! The coverage map is the fuzzer's novelty signal: if its bytes depended
//! on the within-run shard width or on the campaign worker pool, corpus
//! admission — and therefore the whole guided campaign — would be
//! machine-dependent. This test replays the committed repro corpus and
//! asserts the rendered map is **byte-identical**
//!
//! * across the host-sharded engine at 1, 2 and 4 workers, with each
//!   repro's baseline and faulted runs merged as the fuzz oracle merges
//!   them — sharded runs emit traces per partition and replay them merged
//!   in `(time, partition, emission)` order, so the merged stream (and with
//!   it every order-sensitive `pair` edge) is a pure function of the
//!   scenario, not of how many threads executed the partitions; and
//! * between campaign worker pools of width 1 and 4 (`replay_union` with
//!   explicit worker counts), where per-scenario maps are merged in input
//!   order regardless of completion order.
//!
//! The *monolithic* engine is a different execution engine with its own —
//! equally deterministic — trace interleaving; on multi-host runs its
//! event-pair edges can differ from the sharded merge. That is why `fuzz
//! --serve` and `fuzz --check-coverage` pin the engine before recording or
//! comparing coverage numbers.

use cord_repro::cord::System;
use cord_repro::cord_fuzz::{replay_union, Scenario};
use cord_repro::cord_sim::coverage::CoverageMap;

/// The merged coverage of `scenario`'s baseline run and, when it has a
/// fault spec, its faulted run, on the sharded engine with `workers`
/// workers. A panicking run contributes no coverage, as in the oracle.
fn sharded_coverage(scenario: &Scenario, workers: usize) -> CoverageMap {
    let mut union = CoverageMap::new();
    let phases = std::iter::once(None).chain(scenario.faults.as_deref().map(Some));
    for faults in phases {
        let run = std::panic::catch_unwind(|| {
            let cfg = scenario.config();
            let programs = scenario.programs(&cfg);
            let mut sys = System::new(cfg, programs);
            sys.set_sim_threads(Some(workers));
            sys.set_max_events(scenario.max_events);
            sys.tracer_mut().attach_coverage(CoverageMap::new());
            if let Some(spec) = faults {
                sys.set_fault_spec(spec).expect("corpus spec parses");
            }
            let _ = sys.try_run();
            sys.tracer_mut().take_coverage().expect("coverage attached")
        });
        if let Ok(cov) = run {
            union.merge(&cov);
        }
    }
    union
}

#[test]
fn coverage_is_identical_across_shard_and_pool_widths() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros");
    let (seeds, warnings) =
        cord_repro::cord_fuzz::corpus::load_dir(&dir).expect("committed corpus");
    assert!(warnings.is_empty(), "unparsable repros: {warnings:?}");
    assert!(seeds.len() >= 6, "corpus shrank to {}", seeds.len());

    // Per-repro maps under each shard width.
    for (name, repro) in &seeds {
        let base = sharded_coverage(&repro.scenario, 1);
        assert!(base.distinct() > 0, "{name}: no coverage observed");
        for w in [2, 4] {
            let sharded = sharded_coverage(&repro.scenario, w);
            assert_eq!(
                base.render(),
                sharded.render(),
                "{name}: coverage diverged at {w} shard workers"
            );
        }
    }

    // Whole-corpus union under different campaign pool widths (every run
    // on the same engine, so the only varying dimension is the pool).
    let narrow = replay_union(&seeds, Some(1));
    let wide = replay_union(&seeds, Some(4));
    assert_eq!(
        narrow.render(),
        wide.render(),
        "corpus union coverage depends on the worker pool width"
    );
    assert!(narrow.distinct() > 0);
}
