//! The five workloads, their correctness oracles and the result digest.
//!
//! Sim workloads are lists of [`Cell`]s — one `System` each — built from the
//! seed; a round generates every cell's programs, builds its system, runs it
//! and checks the outcome. The `check` workload runs the model checker over
//! fixed entry lists. Every call into a layer is wrapped in a span.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cord::{RunResult, System};
use cord_check::{campaign_entries, explore_with, scaling_suite, ExploreOpts, Verdict};
use cord_noc::{Fabric, NocConfig};
use cord_proto::{ConsistencyModel, Program, ProtocolKind, StallCause, SystemConfig};
use cord_workloads::{table2_apps, AppSpec, KvSpec, Region};

use crate::spans::{Ctx, Spans};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8 hosts, flat switch: the small-fabric baseline of the KV tier.
    Kv8,
    /// 512 hosts, dragonfly: the same op count as `kv-8` on 64× the hosts.
    Kv512,
    /// Every Table 2 application under every scheme, 8 hosts over CXL.
    Apps8,
    /// 64-host KV under drops, duplicates, jitter and two crashes.
    Faults64,
    /// The model checker over the classic campaign and the scaling fixtures.
    Check,
}

impl Workload {
    /// Round-robin order within a round.
    pub const ALL: [Workload; 5] = [
        Workload::Kv8,
        Workload::Kv512,
        Workload::Apps8,
        Workload::Faults64,
        Workload::Check,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Kv8 => "kv-8",
            Workload::Kv512 => "kv-512",
            Workload::Apps8 => "apps-8",
            Workload::Faults64 => "faults-64",
            Workload::Check => "check",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the simulator (every one but `check`).
    pub fn is_sim(self) -> bool {
        self != Workload::Check
    }

    /// Whether the workload runs on the clean fabric, where every message
    /// send and delivery can be replayed through the NoC and the queue.
    pub fn is_clean(self) -> bool {
        matches!(self, Workload::Kv8 | Workload::Kv512 | Workload::Apps8)
    }
}

/// The checker's three groups: name, span name, symmetry reduction, and the
/// states it must visit. The classic campaign runs with reduction; the
/// scaling fixtures run with it and without.
pub const CHECK_GROUPS: [(&str, &str, bool, u64); 3] = [
    ("campaign_sym", "check.campaign_sym", true, 1_713),
    ("scaling_sym", "check.scaling_sym", true, 5_265),
    ("scaling_raw", "check.scaling_raw", false, 70_060),
];

/// Checker state cap per exploration, as in the `litmus` bin.
const CHECK_CAP: usize = 2_000_000;

/// How a cell's programs are generated.
#[derive(Debug, Clone)]
enum Gen {
    Kv(KvSpec),
    App(AppSpec),
}

/// One simulation of a sim workload.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    pub cfg: SystemConfig,
    gen: Gen,
    pub pair_accounting: bool,
    faults: Option<String>,
}

impl Cell {
    pub fn kv(hosts: u32, fabric: &str, sessions: u32, seed: u64, faults: Option<String>) -> Cell {
        let fabric = Fabric::parse(fabric).expect("benchmark fabric grammar");
        let noc = NocConfig::cxl(hosts, 8).with_fabric(fabric);
        let cfg = SystemConfig::with_noc(ProtocolKind::Cord, noc).with_model(ConsistencyModel::Rc);
        Cell {
            label: format!("kv/{hosts}"),
            cfg,
            gen: Gen::Kv(KvSpec {
                sessions,
                seed,
                ..KvSpec::scale()
            }),
            pair_accounting: true,
            faults,
        }
    }

    fn app(app: &AppSpec, kind: ProtocolKind) -> Cell {
        Cell {
            label: format!("{}/{kind:?}", app.name),
            cfg: SystemConfig::cxl(kind, 8).with_model(ConsistencyModel::Rc),
            gen: Gen::App(*app),
            pair_accounting: false,
            faults: None,
        }
    }

    /// Generates the cell's programs from its inputs.
    pub fn programs(&self) -> Vec<Program> {
        match &self.gen {
            Gen::Kv(kv) => kv.programs(&self.cfg),
            Gen::App(app) => app.programs(&self.cfg),
        }
    }

    /// Builds the system with the cell's pair-accounting and fault settings.
    pub fn system(&self, programs: Vec<Program>) -> System {
        let mut sys = System::new(self.cfg.clone(), programs);
        sys.set_pair_accounting(self.pair_accounting);
        if let Some(spec) = &self.faults {
            sys.set_fault_spec(spec)
                .expect("benchmark fault spec grammar");
        }
        sys
    }

    /// The outcome checks that need the finished system: every KV client's
    /// session log holds its last session's version, and the faulted run
    /// really dropped messages and reset a transport session.
    fn check(&self, sys: &System, r: &RunResult) -> Result<(), String> {
        let Gen::Kv(kv) = &self.gen else {
            return Ok(());
        };
        let map = &self.cfg.map;
        let slices = map.slices_per_host();
        let log_region = Region::regions_per_slice(map) - 1;
        for h in 0..self.cfg.noc.hosts {
            for c in 0..kv.clients_per_host {
                let flag = Region::new(map, h, c % slices, log_region).flag(map);
                let got = sys.mem_peek(flag);
                if got != kv.sessions as u64 {
                    return Err(format!(
                        "{}: host {h} client {c} session log reads {got}, want {}",
                        self.label, kv.sessions
                    ));
                }
            }
        }
        if self.faults.is_some() {
            let f = &r.traffic.faults;
            if f.dropped == 0 || f.sessions_reset == 0 {
                return Err(format!(
                    "{}: fault plan inactive ({} dropped, {} sessions reset)",
                    self.label, f.dropped, f.sessions_reset
                ));
            }
        }
        Ok(())
    }
}

/// The cells of a sim workload (empty for `check`).
pub fn cells(w: Workload, seed: u64) -> Vec<Cell> {
    match w {
        Workload::Kv8 => vec![Cell::kv(8, "flat", 4096, seed, None)],
        Workload::Kv512 => vec![Cell::kv(512, "dragonfly 16 50 400", 64, seed, None)],
        Workload::Faults64 => vec![Cell::kv(
            64,
            "fattree 8 2 40 120 400",
            64,
            seed,
            Some(format!(
                "seed={seed}; drop=0.02; dup=0.02; jitter=50; crash.dir.5=20000; crash.xport.9=40000"
            )),
        )],
        Workload::Apps8 => table2_apps()
            .iter()
            .flat_map(|app| {
                let mut kinds = vec![ProtocolKind::Cord];
                if app.mp_compatible {
                    kinds.push(ProtocolKind::Mp);
                }
                kinds.extend([ProtocolKind::So, ProtocolKind::Wb]);
                kinds.into_iter().map(move |k| Cell::app(app, k))
            })
            .collect(),
        Workload::Check => Vec::new(),
    }
}

/// Every stall cause, in a fixed order.
pub const STALL_CAUSES: [StallCause; 7] = [
    StallCause::AckWait,
    StallCause::StoreWindow,
    StallCause::TableFull,
    StallCause::Overflow,
    StallCause::StoreBuffer,
    StallCause::Recovery,
    StallCause::Other,
];

/// Metric-name suffix of a stall cause. The match is exhaustive, so a new
/// cause fails to compile here until it is named and added above.
pub fn stall_name(c: StallCause) -> &'static str {
    match c {
        StallCause::AckWait => "ack_wait",
        StallCause::StoreWindow => "store_window",
        StallCause::TableFull => "table_full",
        StallCause::Overflow => "overflow",
        StallCause::StoreBuffer => "store_buffer",
        StallCause::Recovery => "recovery",
        StallCause::Other => "other",
    }
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The largest per-PU storage peak: processor plus directory tables.
pub fn storage_b(r: &RunResult) -> u64 {
    r.proc_storage_peak().peak_total() + r.dir_storage_peak().peak_total()
}

/// Digest of what a run computed: completion, registers, traffic, stalls
/// and storage. Event counts are left out, since they belong to the engine's
/// event model, not to the simulated outcome.
pub fn digest(r: &RunResult) -> u64 {
    let mut h = Fnv::new();
    h.word(r.completion().as_ps());
    for regs in &r.regs {
        regs.iter().for_each(|&x| h.word(x));
    }
    for (_, c) in r.traffic.iter() {
        for x in [c.inter_bytes, c.inter_msgs, c.intra_bytes, c.intra_msgs] {
            h.word(x);
        }
    }
    let f = &r.traffic.faults;
    for x in [
        f.dropped,
        f.duplicated,
        f.delayed,
        f.retransmits,
        f.spurious_retransmits,
        f.dup_dropped,
        f.sessions_reset,
        f.replayed,
        f.stale_rejected,
    ] {
        h.word(x);
    }
    for c in STALL_CAUSES {
        h.word(r.stall(c).as_ps());
    }
    h.word(r.proc_storage_peak().peak_total());
    h.word(r.dir_storage_peak().peak_total());
    h.0
}

/// What one cell produced.
#[derive(Debug)]
pub struct CellRun {
    pub result: RunResult,
    /// Σ `Program::len()` over the cell's programs.
    pub ops: u64,
    pub gen_s: f64,
    pub new_s: f64,
    pub run_s: f64,
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".into())
}

/// Generates, builds, runs and checks one cell. `arm` may install observers
/// on the system before it runs. A `RunError`, a panic or a failed check is
/// an `Err` naming the cell.
pub fn run_cell(
    cell: &Cell,
    spans: &mut Spans,
    ctx: Ctx,
    arm: &mut dyn FnMut(&mut System),
) -> Result<CellRun, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (programs, gen_s) = spans.time("gen", ctx, || cell.programs());
        let ops = programs.iter().map(|p| p.len() as u64).sum();
        let (mut sys, new_s) = spans.time("new", ctx, || cell.system(programs));
        arm(&mut sys);
        let (result, run_s) = spans.time("run", ctx, || sys.try_run());
        let result = result.map_err(|e| format!("{}: {e}", cell.label))?;
        cell.check(&sys, &result)?;
        Ok(CellRun {
            result,
            ops,
            gen_s,
            new_s,
            run_s,
        })
    }));
    outcome.unwrap_or_else(|p| Err(format!("{}: panicked: {}", cell.label, panic_text(&*p))))
}

/// Totals of a sim round (the paper's three axes plus the event count).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTotals {
    /// Σ `RunResult::completion()` in simulated ns.
    pub time_ns: f64,
    /// Σ inter-host bytes.
    pub inter_bytes: u64,
    /// Largest per-PU storage peak over the round's runs.
    pub storage_b: u64,
    pub events: u64,
}

/// Totals of a checker round, per [`CHECK_GROUPS`] entry.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckTotals {
    pub states: [u64; 3],
    pub secs: [f64; 3],
    /// Σ BFS levels over every exploration.
    pub levels: u64,
    /// Largest BFS level.
    pub peak_frontier: u64,
    /// Largest symmetry group used.
    pub sym_order: u64,
}

/// One workload's measurements from one round.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub gen_s: f64,
    pub new_s: f64,
    pub run_s: f64,
    /// Simulated ops (sim workloads) or visited states (`check`).
    pub work: u64,
    pub digest: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub sim: SimTotals,
    pub check: CheckTotals,
}

impl Round {
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.new_s
    }
}

/// Runs every cell of a sim workload once. `arm` prepares each system and
/// `after` sees each successful cell (the traced passes hook in here).
pub fn sim_round(
    cells: &[Cell],
    spans: &mut Spans,
    ctx: Ctx,
    arm: &mut dyn FnMut(&mut System),
    after: &mut dyn FnMut(&Cell, &CellRun, &mut Spans),
) -> Round {
    let mut round = Round::default();
    let mut h = Fnv::new();
    // Final registers per app, for the cross-scheme agreement check.
    let mut app_regs: Vec<(&str, Vec<[u64; 16]>)> = Vec::new();
    for cell in cells {
        round.attempted += 1;
        let run = match run_cell(cell, spans, ctx, arm) {
            Ok(run) => run,
            Err(e) => {
                round.failures.push(e);
                continue;
            }
        };
        let r = &run.result;
        round.gen_s += run.gen_s;
        round.new_s += run.new_s;
        round.run_s += run.run_s;
        round.work += run.ops;
        round.sim.time_ns += r.completion().as_ns_f64();
        round.sim.inter_bytes += r.inter_bytes();
        round.sim.storage_b = round.sim.storage_b.max(storage_b(r));
        round.sim.events += r.events;
        h.word(digest(r));
        if let Gen::App(app) = &cell.gen {
            match app_regs.iter().find(|(name, _)| *name == app.name) {
                Some((_, first)) if *first != r.regs => round.failures.push(format!(
                    "{}: final registers differ from the first scheme",
                    cell.label
                )),
                Some(_) => {}
                None => app_regs.push((app.name, r.regs.clone())),
            }
        }
        after(cell, &run, spans);
    }
    round.digest = h.0;
    round
}

/// Runs the model checker over the campaign and scaling entries once.
pub fn check_round(spans: &mut Spans, ctx: Ctx) -> Round {
    let mut round = Round::default();
    let ((campaign, scaling), gen_s) =
        spans.time("gen", ctx, || (campaign_entries(), scaling_suite()));
    round.gen_s = gen_s;
    let mut h = Fnv::new();
    for (g, &(group, span, symmetry, want)) in CHECK_GROUPS.iter().enumerate() {
        let entries = if g == 0 { &campaign } else { &scaling };
        let opts = ExploreOpts {
            threads: 1,
            symmetry,
            audit: false,
        };
        let span = spans.open(span, ctx);
        let mut states = 0u64;
        for (label, cfg, lit, placement) in entries {
            round.attempted += 1;
            let explored = catch_unwind(AssertUnwindSafe(|| {
                explore_with(cfg, lit, placement, CHECK_CAP, opts)
            }));
            let (report, stats) = match explored {
                Ok(x) => x,
                Err(p) => {
                    round
                        .failures
                        .push(format!("{group}/{label}: panicked: {}", panic_text(&*p)));
                    continue;
                }
            };
            // Classic entries must pass; the scaling fixtures have no
            // forbidden outcomes, so only truncation can fail them.
            let verdict = report.verdict(lit);
            if report.truncated || (g == 0 && verdict != Verdict::Pass) {
                round
                    .failures
                    .push(format!("{group}/{label}: verdict {verdict}"));
            }
            states += report.states as u64;
            round.check.levels += stats.levels as u64;
            round.check.peak_frontier = round.check.peak_frontier.max(stats.peak_frontier as u64);
            round.check.sym_order = round.check.sym_order.max(stats.symmetry_order as u64);
            h.word(report.states as u64);
            h.word(report.outcomes.len() as u64);
            report.outcomes.iter().flatten().for_each(|&x| h.word(x));
            h.word(stats.levels as u64);
        }
        let secs = spans.close(span);
        if states != want {
            round
                .failures
                .push(format!("{group}: {states} states, want {want}"));
        }
        round.check.states[g] = states;
        round.check.secs[g] = secs;
        round.run_s += secs;
        round.work += states;
    }
    round.digest = h.0;
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_workloads_generate_exactly_393216_ops() {
        for w in [Workload::Kv8, Workload::Kv512, Workload::Faults64] {
            let cells = cells(w, 1);
            assert_eq!(cells.len(), 1);
            let ops: u64 = cells[0].programs().iter().map(|p| p.len() as u64).sum();
            // 131,072 sessions of two puts and one Release; faults-64 runs
            // 16,384 sessions.
            let want = if w == Workload::Faults64 {
                49_152
            } else {
                393_216
            };
            assert_eq!(ops, want, "{}", w.name());
        }
    }

    #[test]
    fn apps_workload_has_43_runs() {
        assert_eq!(cells(Workload::Apps8, 1).len(), 43);
    }

    #[test]
    fn digest_is_stable_across_runs_and_checks_pass() {
        let cell = Cell::kv(4, "flat", 8, 3, None);
        let mut spans = Spans::new();
        let mut run = || {
            run_cell(&cell, &mut spans, Ctx::default(), &mut |_| {})
                .expect("tiny KV run passes its checks")
        };
        let (a, b) = (run(), run());
        assert_eq!(digest(&a.result), digest(&b.result));
        assert_eq!(a.ops, 4 * 4 * 8 * 3);
    }

    #[test]
    fn session_log_check_catches_a_wrong_count() {
        let mut cell = Cell::kv(4, "flat", 8, 3, None);
        let programs = cell.programs();
        let mut sys = cell.system(programs);
        let r = sys.run();
        if let Gen::Kv(kv) = &mut cell.gen {
            kv.sessions += 1;
        }
        assert!(cell.check(&sys, &r).is_err());
    }
}
