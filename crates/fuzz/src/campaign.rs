//! The fuzz campaign driver: generate → run oracles → shrink failures.
//!
//! Scenario runs fan out across the deterministic worker pool
//! ([`cord_sim::par`]); results come back in index order and shrinking is
//! serial, so the campaign's outputs — verdicts, shrunk scenarios, repro
//! bytes — are identical at any worker count. All scenario-derived numbers
//! are simulated quantities; wall-clock never enters the results.

use cord_sim::{obs, par};

use crate::gen::generate;
use crate::oracle::{run_scenario_opts, RunReport, Verdict};
use crate::scenario::Scenario;
use crate::shrink::{shrink, ShrinkStats};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Root seed: scenario `i` is `generate(seed, i, max_events)`.
    pub seed: u64,
    /// Number of scenarios.
    pub count: u64,
    /// DES event cap per run.
    pub max_events: u64,
    /// Run the differential model check (oracle 3).
    pub model_check: bool,
    /// Worker count; `None` uses `CORD_THREADS`/available parallelism.
    pub workers: Option<usize>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 1,
            count: 256,
            max_events: 2_000_000,
            model_check: true,
            workers: None,
        }
    }
}

/// One scenario's campaign outcome.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario index within the campaign.
    pub index: u64,
    /// `s<index>/<engine>/<verdict-class>`, the cell name in the exact
    /// campaign record.
    pub label: String,
    /// Oracle verdict and simulated duration.
    pub report: RunReport,
}

/// A failing scenario together with its shrunk counterexample.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Scenario index within the campaign.
    pub index: u64,
    /// The original (unshrunk) failing scenario.
    pub scenario: Scenario,
    /// The original verdict.
    pub verdict: Verdict,
    /// The 1-minimal shrunk scenario.
    pub shrunk: Scenario,
    /// The shrunk scenario's verdict (same class as `verdict`).
    pub shrunk_verdict: Verdict,
    /// Shrink counters.
    pub stats: ShrinkStats,
}

impl Failure {
    /// The shrunk counterexample as a committable repro file, with the
    /// campaign provenance in a comment header.
    pub fn repro_text(&self, seed: u64) -> String {
        format!(
            "# found by `fuzz --seed {seed}` (scenario {idx}, verdict {class});\n\
             # shrunk from {from} to {to} ops in {n} oracle runs\n{body}",
            idx = self.index,
            class = self.verdict.class(),
            from = self.scenario.op_count(),
            to = self.shrunk.op_count(),
            n = self.stats.attempts,
            body = self.shrunk.serialize(Some(self.shrunk_verdict.class())),
        )
    }
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Per-scenario outcomes, in index order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Shrunk failures, in index order.
    pub failures: Vec<Failure>,
}

impl Campaign {
    /// Total shrink attempts (oracle re-runs) across all failures.
    pub fn shrink_attempts(&self) -> u64 {
        self.failures.iter().map(|f| f.stats.attempts).sum()
    }

    /// Campaign counters as one JSON object.
    pub fn stats_json(&self, cfg: &CampaignConfig) -> String {
        format!(
            "{{\"seed\":{},\"scenarios\":{},\"failures\":{},\"shrink_iterations\":{}}}",
            cfg.seed,
            self.outcomes.len(),
            self.failures.len(),
            self.shrink_attempts()
        )
    }
}

/// Runs the campaign described by `cfg`.
pub fn run_campaign(cfg: &CampaignConfig) -> Campaign {
    let scenarios: Vec<(u64, Scenario)> = (0..cfg.count)
        .map(|i| (i, generate(cfg.seed, i, cfg.max_events)))
        .collect();
    let workers = cfg.workers.unwrap_or_else(par::thread_count);
    // Live status line on stderr (TTY-gated; `CORD_PROGRESS` overrides).
    // Ticked from worker closures — results are still collected in input
    // order, so the campaign itself stays worker-count independent.
    let prog = obs::Progress::new("fuzz", cfg.count);
    let reports = par::run_parallel_on(workers, &scenarios, |(_, s)| {
        let r = run_scenario_opts(s, cfg.model_check);
        if r.verdict.is_failure() {
            prog.flag();
        }
        prog.inc(1);
        r
    });

    let mut outcomes = Vec::with_capacity(scenarios.len());
    let mut failures = Vec::new();
    for ((index, scenario), report) in scenarios.into_iter().zip(reports) {
        let label = format!(
            "s{index:04}/{}/{}",
            scenario.engine.label(),
            report.verdict.class()
        );
        if report.verdict.is_failure() {
            let class = report.verdict.class();
            let (shrunk, stats) = shrink(&scenario, class);
            let shrunk_verdict = run_scenario_opts(&shrunk, class == "model-divergence").verdict;
            failures.push(Failure {
                index,
                scenario,
                verdict: report.verdict.clone(),
                shrunk,
                shrunk_verdict,
                stats,
            });
        }
        outcomes.push(ScenarioOutcome {
            index,
            label,
            report,
        });
    }
    let campaign = Campaign { outcomes, failures };
    prog.finish(&format!(
        "fuzz: {} scenario(s), {} failure(s), {} shrink run(s)",
        campaign.outcomes.len(),
        campaign.failures.len(),
        campaign.shrink_attempts()
    ));
    campaign
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed, same budget ⇒ identical campaign at any worker count:
    /// labels, simulated times, and repro bytes all match between a serial
    /// and a 4-worker run.
    #[test]
    fn campaign_is_worker_count_independent() {
        let mk = |workers| CampaignConfig {
            seed: 11,
            count: 10,
            workers: Some(workers),
            ..CampaignConfig::default()
        };
        let serial = run_campaign(&mk(1));
        let wide = run_campaign(&mk(4));
        assert_eq!(serial.outcomes.len(), wide.outcomes.len());
        for (a, b) in serial.outcomes.iter().zip(&wide.outcomes) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.report, b.report);
        }
        assert_eq!(serial.failures.len(), wide.failures.len());
        for (a, b) in serial.failures.iter().zip(&wide.failures) {
            assert_eq!(a.repro_text(11), b.repro_text(11));
        }
        assert_eq!(serial.stats_json(&mk(1)), wide.stats_json(&mk(4)));
    }

    /// The quick slice of the default campaign passes on the current tree.
    #[test]
    fn default_campaign_slice_is_clean() {
        let cfg = CampaignConfig {
            count: 16,
            ..CampaignConfig::default()
        };
        let campaign = run_campaign(&cfg);
        let bad: Vec<&str> = campaign
            .failures
            .iter()
            .map(|f| f.verdict.class())
            .collect();
        assert!(
            campaign.failures.is_empty(),
            "unexpected failures: {bad:?}\n{}",
            campaign.failures[0].scenario.serialize(None)
        );
    }
}
