//! The coverage-guided campaign loop.
//!
//! Where [`crate::campaign`] runs a fixed batch of blind-generated
//! scenarios, [`run_guided`] closes the feedback loop: every scenario's
//! oracle runs produce a [`CoverageMap`], novel maps admit the scenario
//! into the [`Corpus`], and subsequent iterations mostly *mutate*
//! energy-scheduled corpus entries instead of generating from scratch
//! (a small blind share keeps exploration alive).
//!
//! Determinism: scenarios are chosen and admitted in iteration order, runs
//! fan out in fixed-size batches through the deterministic worker pool
//! (results collected in input order), and every random draw descends from
//! the campaign seed — so the corpus, the union map, the edges-over-time
//! curve, and every shrunk counterexample are identical at any worker
//! count and on any host. Wall-clock enters only through the optional
//! deadline, which stops the loop at a batch boundary; everything recorded
//! per completed iteration is still a pure function of `(seed, that
//! iteration count)`.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cord_sim::coverage::CoverageMap;
use cord_sim::{obs, par, DetRng};

use crate::campaign::Failure;
use crate::corpus::Corpus;
use crate::gen::generate;
use crate::mutate::mutate;
use crate::oracle::{run_scenario_cov, run_scenario_opts};
use crate::scenario::{Repro, Scenario};
use crate::shrink::shrink;

/// Iterations dispatched per parallel batch. Fixed (not worker-count
/// derived!) so scheduling decisions — which see only completed batches —
/// are identical at any worker count.
pub const BATCH: u64 = 8;

/// Share of iterations that ignore the corpus and generate blind, keeping
/// exploration alive once the corpus saturates.
const BLIND_SHARE: f64 = 0.15;

/// Guided-campaign parameters.
#[derive(Debug, Clone)]
pub struct GuidedConfig {
    /// Root seed for scheduling, mutation, and blind generation.
    pub seed: u64,
    /// Iteration budget (scenarios run, not counting seed replays).
    pub iterations: u64,
    /// DES event cap per run.
    pub max_events: u64,
    /// Run the differential model check on every scenario.
    pub model_check: bool,
    /// Worker count; `None` uses `CORD_THREADS`/available parallelism.
    pub workers: Option<usize>,
}

impl Default for GuidedConfig {
    fn default() -> Self {
        GuidedConfig {
            seed: 1,
            iterations: 200,
            max_events: 2_000_000,
            model_check: true,
            workers: None,
        }
    }
}

/// A finished (or deadline-stopped) guided campaign.
#[derive(Debug, Clone)]
pub struct GuidedCampaign {
    /// The corpus after the final iteration (seed entries included).
    pub corpus: Corpus,
    /// Shrunk *new* counterexamples (seed replays are never counted as
    /// failures — known counterexamples in the seed set are corpus
    /// entries, not discoveries), deduplicated by shrunk repro bytes.
    pub failures: Vec<Failure>,
    /// Iterations actually completed (< `iterations` only on deadline).
    pub iterations: u64,
    /// How many iterations ran a corpus mutant vs a blind generation.
    pub mutated: u64,
    /// Blind iterations (corpus empty, or the exploration share).
    pub blind: u64,
    /// Distinct-edge count of the corpus union after each batch,
    /// `(iterations completed, distinct edges)`; first entry is the
    /// post-seed state at iteration 0.
    pub edges_over_time: Vec<(u64, usize)>,
    /// Union coverage per engine label, over every run the campaign made.
    pub per_engine: BTreeMap<String, CoverageMap>,
}

/// Runs a coverage-guided campaign from `seeds` (replayed first, in the
/// given order, to populate the corpus). `deadline` optionally stops the
/// loop early at the next batch boundary.
pub fn run_guided(
    cfg: &GuidedConfig,
    seeds: &[(String, Repro)],
    deadline: Option<Instant>,
) -> GuidedCampaign {
    let workers = cfg.workers.unwrap_or_else(par::thread_count);
    let root = DetRng::new(cfg.seed);
    let prog = obs::Progress::new("fuzz-guided", seeds.len() as u64 + cfg.iterations);
    let mut out = GuidedCampaign {
        corpus: Corpus::new(),
        failures: Vec::new(),
        iterations: 0,
        mutated: 0,
        blind: 0,
        edges_over_time: Vec::new(),
        per_engine: BTreeMap::new(),
    };

    // Seed replays: parallel runs, serial admission in seed order.
    let seed_reports = par::run_parallel_on(workers, seeds, |(_, r)| {
        let res = run_scenario_cov(&r.scenario, cfg.model_check);
        prog.inc(1);
        res
    });
    for ((_, repro), (report, cov)) in seeds.iter().zip(seed_reports) {
        out.per_engine
            .entry(repro.scenario.engine.label())
            .or_default()
            .merge(&cov);
        out.corpus
            .admit(repro.scenario.clone(), report.verdict.class(), cov);
    }
    out.edges_over_time.push((0, out.corpus.union.distinct()));

    let mut seen = BTreeSet::new();
    while out.iterations < cfg.iterations {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let n = BATCH.min(cfg.iterations - out.iterations);
        // Scheduling sees the corpus as of the previous batch; within a
        // batch, picks are independent (classic corpus-fuzzer batching).
        let batch: Vec<(u64, Scenario, bool)> = (0..n)
            .map(|k| {
                let idx = out.iterations + k;
                // Stream 3 of the per-index root: disjoint from both the
                // generator's (0, 1) and the mutator's (2) streams.
                let mut rng = root.stream(idx).stream(3);
                let blind = rng.chance(BLIND_SHARE);
                let parent = if blind {
                    None
                } else {
                    out.corpus.schedule(&mut rng).map(|e| e.scenario.clone())
                };
                match parent {
                    Some(p) => (idx, mutate(&p, cfg.seed, idx), false),
                    None => (idx, generate(cfg.seed, idx, cfg.max_events), true),
                }
            })
            .collect();
        let reports = par::run_parallel_on(workers, &batch, |(_, s, _)| {
            let res = run_scenario_cov(s, cfg.model_check);
            if res.0.verdict.is_failure() {
                prog.flag();
            }
            prog.inc(1);
            res
        });
        for ((idx, scenario, blind), (report, cov)) in batch.into_iter().zip(reports) {
            if blind {
                out.blind += 1;
            } else {
                out.mutated += 1;
            }
            out.per_engine
                .entry(scenario.engine.label())
                .or_default()
                .merge(&cov);
            if report.verdict.is_failure() {
                let class = report.verdict.class();
                let (shrunk, stats) = shrink(&scenario, class);
                let shrunk_verdict =
                    run_scenario_opts(&shrunk, class == "model-divergence").verdict;
                // One report per distinct 1-minimal counterexample.
                if seen.insert(shrunk.serialize(Some(shrunk_verdict.class()))) {
                    out.failures.push(Failure {
                        index: idx,
                        scenario: scenario.clone(),
                        verdict: report.verdict.clone(),
                        shrunk,
                        shrunk_verdict,
                        stats,
                    });
                }
            }
            out.corpus.admit(scenario, report.verdict.class(), cov);
        }
        out.iterations += n;
        out.edges_over_time
            .push((out.iterations, out.corpus.union.distinct()));
    }
    prog.finish(&format!(
        "fuzz-guided: {} iteration(s), corpus {} entr(ies), {} distinct edge(s), {} new failure(s)",
        out.iterations,
        out.corpus.entries.len(),
        out.corpus.union.distinct(),
        out.failures.len()
    ));
    out
}

/// The blind baseline at equal iteration count: the union coverage of
/// `generate(seed, 0..iterations)` — exactly what the pre-guided fuzzer
/// would have explored. Used for the guided-vs-blind comparison that
/// `fuzz --serve` checks and records in `results/records/fuzz-serve*.txt`.
pub fn blind_union(cfg: &GuidedConfig) -> CoverageMap {
    let workers = cfg.workers.unwrap_or_else(par::thread_count);
    let scenarios: Vec<Scenario> = (0..cfg.iterations)
        .map(|i| generate(cfg.seed, i, cfg.max_events))
        .collect();
    let prog = obs::Progress::new("fuzz-blind", cfg.iterations);
    // Model checking never touches the DES trace, so coverage is identical
    // with it off; skip it for speed.
    let maps = par::run_parallel_on(workers, &scenarios, |s| {
        let (_, cov) = run_scenario_cov(s, false);
        prog.inc(1);
        cov
    });
    let mut union = CoverageMap::new();
    for m in &maps {
        union.merge(m);
    }
    prog.finish(&format!(
        "fuzz-blind: {} scenario(s), {} distinct edge(s)",
        cfg.iterations,
        union.distinct()
    ));
    union
}

/// Union coverage of replaying a fixed repro set (no generation, no
/// mutation): the coverage value of a corpus *as committed*. This is what
/// `fuzz --check-coverage` recomputes and compares exactly with the
/// `cov/corpus` line of `results/records/fuzz-serve-quick.txt`.
pub fn replay_union(seeds: &[(String, Repro)], workers: Option<usize>) -> CoverageMap {
    let workers = workers.unwrap_or_else(par::thread_count);
    let prog = obs::Progress::new("fuzz-cov", seeds.len() as u64);
    let maps = par::run_parallel_on(workers, seeds, |(_, r)| {
        let (_, cov) = run_scenario_cov(&r.scenario, false);
        prog.inc(1);
        cov
    });
    let mut union = CoverageMap::new();
    for m in &maps {
        union.merge(m);
    }
    prog.finish(&format!(
        "fuzz-cov: {} repro(s), {} distinct edge(s)",
        seeds.len(),
        union.distinct()
    ));
    union
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed_seeds() -> Vec<(String, Repro)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/repros");
        let (seeds, warnings) = crate::corpus::load_dir(&dir).expect("committed corpus");
        assert!(warnings.is_empty(), "{warnings:?}");
        assert!(seeds.len() >= 6);
        seeds
    }

    #[test]
    fn guided_is_worker_count_independent() {
        let seeds = committed_seeds();
        let mk = |workers| GuidedConfig {
            seed: 31,
            iterations: 12,
            model_check: false,
            workers: Some(workers),
            ..GuidedConfig::default()
        };
        let serial = run_guided(&mk(1), &seeds, None);
        let wide = run_guided(&mk(4), &seeds, None);
        assert_eq!(serial.edges_over_time, wide.edges_over_time);
        assert_eq!(serial.corpus.union.render(), wide.corpus.union.render());
        assert_eq!(serial.corpus.entries.len(), wide.corpus.entries.len());
        assert_eq!(serial.failures.len(), wide.failures.len());
        let counters = |c: &GuidedCampaign| (c.iterations, c.mutated, c.blind);
        assert_eq!(counters(&serial), counters(&wide));
        let ids = |c: &GuidedCampaign| c.corpus.entries.iter().map(|e| e.id).collect::<Vec<_>>();
        assert_eq!(ids(&serial), ids(&wide));
        // Replaying the committed corpus merges per-scenario maps in input
        // order, whatever the pool width.
        let narrow = replay_union(&seeds, Some(1));
        assert!(narrow.distinct() > 0);
        assert_eq!(narrow.render(), replay_union(&seeds, Some(4)).render());
    }

    /// The headline acceptance property at unit-test scale: seeded with the
    /// committed corpus, the guided scheduler covers strictly more distinct
    /// edges than blind generation at equal iteration count.
    #[test]
    fn guided_beats_blind_at_equal_iterations() {
        let seeds = committed_seeds();
        let cfg = GuidedConfig {
            seed: 99,
            iterations: 24,
            model_check: false,
            ..GuidedConfig::default()
        };
        let guided = run_guided(&cfg, &seeds, None);
        let blind = blind_union(&cfg);
        assert!(
            guided.corpus.union.distinct() > blind.distinct(),
            "guided {} edges vs blind {} edges",
            guided.corpus.union.distinct(),
            blind.distinct()
        );
        // The guided run actually used the corpus (not just blind luck).
        assert!(guided.mutated > 0);
        // Energy flowed: the seed corpus made at least one schedulable
        // entry, so mutation parents existed from iteration 0.
        assert!(guided.corpus.total_energy() > 0);
    }

    #[test]
    fn deadline_stops_at_a_batch_boundary() {
        let cfg = GuidedConfig {
            seed: 7,
            iterations: 1_000_000,
            model_check: false,
            ..GuidedConfig::default()
        };
        let past = Instant::now() - std::time::Duration::from_secs(1);
        let out = run_guided(&cfg, &[], Some(past));
        assert_eq!(out.iterations, 0);
        assert_eq!(out.edges_over_time, vec![(0, 0)]);
    }
}
