//! Scenario oracles: what counts as a failure.
//!
//! Every scenario is judged against four oracles:
//!
//! 1. **Termination** — `System::try_run` must complete: a structured
//!    [`RunError`] (deadlock, liveness-watchdog no-progress, event-cap
//!    blowout) is a failure, as is any panic (caught via `catch_unwind`,
//!    e.g. a table overflow assertion).
//! 2. **Release consistency vs the fault-free baseline** — the workload
//!    shape is deterministic modulo faults, so the faulted run's consumer
//!    register files must equal the fault-free run's exactly.
//! 3. **Differential model check** — for engines with an abstract
//!    operational model in `cord-check` (CORD, SO, MP), the baseline DES
//!    outcome must be contained in the model's exhaustively-enumerated
//!    outcome set (skipped when the scenario is too large to explore or the
//!    search truncates). The exploration goes through [`explore`], so it
//!    honors `CORD_CHECK_THREADS` (sharded parallel search within one
//!    scenario — useful when a single fat scenario dominates a shrink) and
//!    `CORD_CHECK_SYM` (symmetry reduction; outcome sets are exact either
//!    way, so the containment check is unaffected). Campaign runs already
//!    parallelize across scenarios via `CORD_THREADS` — leave
//!    `CORD_CHECK_THREADS` at its default of 1 there to avoid
//!    oversubscription.
//! 4. **Baseline sanity** — the fault-free run itself must pass oracles 1
//!    and 3; a baseline failure is a simulator bug regardless of faults.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cord::{RunError, RunResult, System};
use cord_check::dsl::{r, w, wacq, wrel};
use cord_check::{explore, narrate_violation, CheckConfig, Cond, Litmus, ThreadProto};
use cord_mem::Addr;
use cord_sim::coverage::CoverageMap;

use crate::scenario::Scenario;

/// State-count cap for the differential model check; a truncated search is
/// treated as "too large, skip" rather than a verdict.
const MODEL_CAP: usize = 200_000;
/// Scenario size limits beyond which the model check is skipped.
const MODEL_MAX_VARS: usize = 6;
const MODEL_MAX_OPS: usize = 14;

/// Which run of a scenario a verdict refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The fault-free reference run.
    Baseline,
    /// The run with the scenario's fault spec armed.
    Faulted,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Phase::Baseline => "baseline",
            Phase::Faulted => "faulted",
        })
    }
}

/// Outcome of running one scenario through every oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every oracle satisfied.
    Pass,
    /// A deadlock or liveness-watchdog trip.
    Hang {
        /// Which run hung.
        phase: Phase,
        /// First line of the structured [`RunError`].
        detail: String,
    },
    /// The DES event cap was exhausted.
    EventCap {
        /// Which run blew the cap.
        phase: Phase,
    },
    /// The simulator panicked (e.g. a table-overflow assertion).
    Panic {
        /// Which run panicked.
        phase: Phase,
        /// The panic payload.
        detail: String,
    },
    /// A faulted run's consumer observed values diverging from the
    /// fault-free baseline.
    RcViolation {
        /// Index of the offending pair within the scenario.
        pair: usize,
        /// Consumer tile.
        consumer: u32,
        /// Observed consumer registers 0..4.
        got: Vec<u64>,
        /// Fault-free consumer registers 0..4.
        want: Vec<u64>,
    },
    /// The baseline DES outcome is not reachable in the abstract model
    /// (or the model itself panicked).
    ModelDivergence {
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl Verdict {
    /// Stable, shrinker-facing failure class. Shrinking preserves the
    /// class, not the full detail (a smaller scenario hangs at a different
    /// simulated time but is still the same kind of bug).
    pub fn class(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Hang { .. } => "hang",
            Verdict::EventCap { .. } => "event-cap",
            Verdict::Panic { .. } => "panic",
            Verdict::RcViolation { .. } => "rc-violation",
            Verdict::ModelDivergence { .. } => "model-divergence",
        }
    }

    /// Whether this verdict is a failure.
    pub fn is_failure(&self) -> bool {
        !matches!(self, Verdict::Pass)
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Pass => write!(f, "pass"),
            Verdict::Hang { phase, detail } => write!(f, "hang ({phase}): {detail}"),
            Verdict::EventCap { phase } => write!(f, "event-cap ({phase})"),
            Verdict::Panic { phase, detail } => write!(f, "panic ({phase}): {detail}"),
            Verdict::RcViolation {
                pair,
                consumer,
                got,
                want,
            } => write!(
                f,
                "rc-violation: pair {pair} consumer tile {consumer} read {got:?}, \
                 fault-free baseline read {want:?}"
            ),
            Verdict::ModelDivergence { detail } => write!(f, "model-divergence: {detail}"),
        }
    }
}

/// A scenario's verdict plus the simulated duration of its longest
/// completed run (0 when nothing completed).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The oracle verdict.
    pub verdict: Verdict,
    /// Simulated nanoseconds of the last completed run.
    pub sim_ns: f64,
}

/// One shared variable of the scenario, in canonical order (per pair, per
/// round: data slots then the flag).
struct Var {
    addr: Addr,
    host: u32,
}

fn collect_vars(s: &Scenario) -> Vec<Var> {
    let cfg = s.config();
    let mut vars = Vec::new();
    for pair in &s.pairs {
        for round in &pair.rounds {
            for d in &round.data {
                vars.push(Var {
                    addr: d.slot.data_addr(&cfg),
                    host: d.slot.host,
                });
            }
            vars.push(Var {
                addr: round.flag.flag_addr(&cfg),
                host: round.flag.host,
            });
        }
    }
    vars
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn first_line(s: &str) -> String {
    s.lines().next().unwrap_or("?").to_string()
}

/// Runs the scenario once (with or without its fault spec), catching
/// panics. Returns the run outcome plus the final memory value of every
/// scenario variable, and — when `coverage` is set — the run's coverage
/// map (recovered on both clean exits and structured [`RunError`]s; only
/// a panic loses it, since the `System` unwinds with the payload).
#[allow(clippy::type_complexity)]
fn exec(
    s: &Scenario,
    faults: Option<&str>,
    vars: &[Var],
    coverage: bool,
) -> Result<(Result<RunResult, RunError>, Vec<u64>, Option<CoverageMap>), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let cfg = s.config();
        let programs = s.programs(&cfg);
        let mut sys = System::new(cfg, programs);
        sys.set_max_events(s.max_events);
        if coverage {
            sys.tracer_mut().attach_coverage(CoverageMap::new());
        }
        if let Some(spec) = faults {
            sys.set_fault_spec(spec).expect("scenario validated");
        }
        let out = sys.try_run();
        let mem = vars.iter().map(|v| sys.mem_peek(v.addr)).collect();
        let cov = sys.tracer_mut().take_coverage();
        (out, mem, cov)
    }))
    .map_err(panic_message)
}

/// Folds one run's coverage into the accumulator, when both exist.
fn absorb(acc: &mut Option<&mut CoverageMap>, cov: Option<CoverageMap>) {
    if let (Some(acc), Some(cov)) = (acc.as_deref_mut(), cov) {
        acc.merge(&cov);
    }
}

/// The scenario rendered as a litmus test for the abstract checker, when
/// the engine has a model and the scenario is small enough. Returns the
/// check configuration, test, and variable placement.
fn as_litmus(s: &Scenario, forbidden: Vec<Cond>) -> Option<(CheckConfig, Litmus, Vec<u8>)> {
    let proto = match s.engine {
        cord_proto::ProtocolKind::Cord => ThreadProto::Cord,
        cord_proto::ProtocolKind::So => ThreadProto::So,
        cord_proto::ProtocolKind::Mp => ThreadProto::Mp,
        _ => return None,
    };
    let vars = collect_vars(s);
    if vars.len() > MODEL_MAX_VARS || s.op_count() > MODEL_MAX_OPS {
        return None;
    }
    // Thread order: pair 0 producer, pair 0 consumer, pair 1 producer, …
    let mut threads = Vec::new();
    let mut var_idx = 0u8;
    for pair in &s.pairs {
        let mut p = Vec::new();
        let mut c = Vec::new();
        let mut reg = 0u64;
        for round in &pair.rounds {
            let flag_var = var_idx + round.data.len() as u8;
            for (i, d) in round.data.iter().enumerate() {
                let v = var_idx + i as u8;
                p.push(if d.release {
                    wrel(v, d.slot.data_value())
                } else {
                    w(v, d.slot.data_value())
                });
                c.push(r(v, (reg % 4) as u8));
                reg += 1;
            }
            p.push(wrel(flag_var, 1));
            c.insert(c.len() - round.data.len(), wacq(flag_var, 1));
            var_idx = flag_var + 1;
        }
        threads.push(p);
        threads.push(c);
    }
    let placement: Vec<u8> = vars.iter().map(|v| v.host as u8).collect();
    let cfg = CheckConfig {
        protos: vec![proto; threads.len()],
        dirs: s.hosts as u8,
        epoch_modulus: 256,
        cnt_modulus: 1 << 32,
        proc_unacked_cap: s.tables.proc_unacked,
        dir_cnt_cap: s.tables.dir_cnt_per_proc,
        dir_noti_cap: s.tables.dir_noti_per_proc,
        tso: false,
    };
    let lit = Litmus::new("fuzz", threads, vars.len() as u8, forbidden);
    Some((cfg, lit, placement))
}

/// Checks the baseline DES outcome against the abstract model's outcome
/// set. `None` means consistent (or not checkable).
fn model_divergence(s: &Scenario, base: &RunResult, mem: &[u64]) -> Option<Verdict> {
    let (cfg, lit, placement) = as_litmus(s, Vec::new())?;
    let report = match catch_unwind(AssertUnwindSafe(|| {
        explore(&cfg, &lit, &placement, MODEL_CAP)
    })) {
        Ok(rep) => rep,
        Err(p) => {
            return Some(Verdict::ModelDivergence {
                detail: format!("abstract model panicked: {}", panic_message(p)),
            })
        }
    };
    if report.truncated {
        return None; // too large to settle — not evidence either way
    }
    let mut outcome = Vec::new();
    for pair in &s.pairs {
        for tile in [pair.producer, pair.consumer] {
            outcome.extend_from_slice(&base.regs[tile as usize][..4]);
        }
    }
    outcome.extend_from_slice(mem);
    if report.outcomes.contains(&outcome) {
        None
    } else {
        Some(Verdict::ModelDivergence {
            detail: format!(
                "DES outcome {outcome:?} (regs thread-major, then memory) is not \
                 among the model's {} reachable outcomes",
                report.outcomes.len()
            ),
        })
    }
}

/// Runs every oracle against `s`. `model_check` enables the differential
/// model comparison (oracle 3); disable it for speed when shrinking a
/// non-model failure class. The baseline run is fault-free only when the
/// process installed no [`RunConfig`](cord::RunConfig) faults; the `fuzz`
/// binary installs none.
///
/// # Panics
///
/// Panics if `s` fails [`Scenario::validate`].
pub fn run_scenario_opts(s: &Scenario, model_check: bool) -> RunReport {
    run_oracles(s, model_check, None)
}

/// [`run_scenario_opts`] that additionally collects the trace-derived
/// [`CoverageMap`] of every DES run the oracles perform (baseline plus
/// faulted, merged). Coverage observation rides the tracer, so the runs
/// themselves are bit-identical to the uninstrumented ones; a panicking
/// run contributes no coverage (the map unwinds with the `System`).
pub fn run_scenario_cov(s: &Scenario, model_check: bool) -> (RunReport, CoverageMap) {
    let mut cov = CoverageMap::new();
    let report = run_oracles(s, model_check, Some(&mut cov));
    (report, cov)
}

fn run_oracles(s: &Scenario, model_check: bool, mut cov: Option<&mut CoverageMap>) -> RunReport {
    s.validate().expect("scenario must validate");
    let vars = collect_vars(s);
    let want_cov = cov.is_some();
    let report = |verdict, sim_ns| RunReport { verdict, sim_ns };

    let (base, base_mem) = match exec(s, None, &vars, want_cov) {
        Err(detail) => {
            return report(
                Verdict::Panic {
                    phase: Phase::Baseline,
                    detail,
                },
                0.0,
            )
        }
        Ok((Err(e), _, c)) => {
            absorb(&mut cov, c);
            let v = match e {
                RunError::EventCap { .. } => Verdict::EventCap {
                    phase: Phase::Baseline,
                },
                other => Verdict::Hang {
                    phase: Phase::Baseline,
                    detail: first_line(&other.to_string()),
                },
            };
            return report(v, 0.0);
        }
        Ok((Ok(res), mem, c)) => {
            absorb(&mut cov, c);
            (res, mem)
        }
    };
    let mut sim_ns = base.completion().as_ns_f64();

    if model_check {
        if let Some(v) = model_divergence(s, &base, &base_mem) {
            return report(v, sim_ns);
        }
    }

    let Some(spec) = &s.faults else {
        return report(Verdict::Pass, sim_ns);
    };
    let faulted = match exec(s, Some(spec), &vars, want_cov) {
        Err(detail) => {
            return report(
                Verdict::Panic {
                    phase: Phase::Faulted,
                    detail,
                },
                sim_ns,
            )
        }
        Ok((Err(e), _, c)) => {
            absorb(&mut cov, c);
            let v = match e {
                RunError::EventCap { .. } => Verdict::EventCap {
                    phase: Phase::Faulted,
                },
                other => Verdict::Hang {
                    phase: Phase::Faulted,
                    detail: first_line(&other.to_string()),
                },
            };
            return report(v, sim_ns);
        }
        Ok((Ok(res), _, c)) => {
            absorb(&mut cov, c);
            res
        }
    };
    sim_ns = faulted.completion().as_ns_f64();

    for (pi, pair) in s.pairs.iter().enumerate() {
        let c = pair.consumer as usize;
        if faulted.regs[c][..4] != base.regs[c][..4] {
            return report(
                Verdict::RcViolation {
                    pair: pi,
                    consumer: pair.consumer,
                    got: faulted.regs[c][..4].to_vec(),
                    want: base.regs[c][..4].to_vec(),
                },
                sim_ns,
            );
        }
    }
    report(Verdict::Pass, sim_ns)
}

/// [`run_scenario_opts`] with the model check enabled.
pub fn run_scenario(s: &Scenario) -> RunReport {
    run_scenario_opts(s, true)
}

/// For an [`Verdict::RcViolation`], asks the abstract checker for a
/// shortest event path reaching the observed (wrong) consumer registers.
/// `None` when the engine has no model, the scenario is too large, or the
/// model cannot reach the outcome at all (a DES-only divergence).
pub fn narrate_rc_violation(s: &Scenario, verdict: &Verdict) -> Option<String> {
    let Verdict::RcViolation {
        pair, got, want, ..
    } = verdict
    else {
        return None;
    };
    let thread = (pair * 2 + 1) as u8;
    let atoms: Vec<(u8, u8, u64)> = (0..4)
        .filter(|&i| got[i] != want[i])
        .map(|i| (thread, i as u8, got[i]))
        .collect();
    let (cfg, lit, placement) = as_litmus(s, vec![Cond::regs(atoms)])?;
    let n = narrate_violation(&cfg, &lit, &placement, MODEL_CAP)?;
    Some(format!(
        "shortest abstract-model path to the observed outcome ({} steps):\n{}",
        n.steps.len(),
        n.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::scenario::parse;

    fn quiet_scenario(engine: &str, faults: Option<&str>) -> Scenario {
        let f = faults.map(|f| format!("faults {f}\n")).unwrap_or_default();
        let text = format!(
            "cord-fuzz repro v1\nengine {engine}\ntopo cxl\nhosts 4\ntph 2\n\
             tables 8 8 8 16 64\nmax_events 2000000\n{f}\
             pair 0 6\nround 3:0 1:0 2:1\nround 3:1 1:2r\n"
        );
        parse(&text).unwrap().scenario
    }

    #[test]
    fn fault_free_cord_passes_with_model_check() {
        let rep = run_scenario(&quiet_scenario("CORD", None));
        assert_eq!(rep.verdict, Verdict::Pass, "{}", rep.verdict);
        assert!(rep.sim_ns > 0.0);
    }

    #[test]
    fn faulted_cord_still_passes() {
        let sc = quiet_scenario("CORD", Some("seed=9; drop=0.10; dup=0.05; jitter=200"));
        let rep = run_scenario(&sc);
        assert_eq!(rep.verdict, Verdict::Pass, "{}", rep.verdict);
    }

    #[test]
    fn lost_notifies_without_retransmission_hang() {
        let sc = quiet_scenario("CORD", Some("drop.Notify=1.0; unreliable"));
        let rep = run_scenario(&sc);
        assert_eq!(rep.verdict.class(), "hang", "{}", rep.verdict);
        assert!(matches!(
            rep.verdict,
            Verdict::Hang {
                phase: Phase::Faulted,
                ..
            }
        ));
    }

    #[test]
    fn tiny_event_cap_is_reported_as_event_cap() {
        let mut sc = quiet_scenario("CORD", None);
        sc.max_events = 10;
        let rep = run_scenario(&sc);
        assert_eq!(rep.verdict.class(), "event-cap");
    }

    #[test]
    fn generated_sample_passes_all_oracles() {
        // A slice of the real campaign: whatever the generator produces for
        // these indices must pass on the current tree.
        for i in 0..12 {
            let sc = generate(2026, i, 2_000_000);
            let rep = run_scenario(&sc);
            assert_eq!(
                rep.verdict,
                Verdict::Pass,
                "seed 2026 index {i}: {}\n{}",
                rep.verdict,
                sc.serialize(None)
            );
        }
    }
}
