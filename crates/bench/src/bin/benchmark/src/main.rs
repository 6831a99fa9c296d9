//! The repository's benchmark: five workloads over the CORD simulator and
//! model checker, end-to-end metrics measured with tracing off, and a
//! separate traced pass that splits host time across the layers.
//!
//! ```text
//! benchmark [--workload all|kv-8|kv-512|apps-8|faults-64|check] [--seed N]
//!           [--seconds S] [--trace 0|1] [--out PATH]
//! benchmark --compare A.json B.json
//! ```
//!
//! Everything runs on one thread in a closed loop: each simulation finishes
//! before the next starts. One untimed warm-up round is followed by timed
//! rounds until `--seconds` have passed; every round runs each selected
//! workload once, round-robin, so a slow phase of the host spreads over all
//! workloads instead of one. Each end-to-end metric reports the better
//! quartile of its per-round samples ([`Summary::better_quartile`]). The
//! last line of standard output is a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` beside this package
//! for the metric glossary.

mod compare;
mod layers;
mod record;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use layers::{Layers, CLASS_NAMES, ENGINE_KINDS, PROFILE_CLASSES};
use record::{json_str, Json};
use spans::{Ctx, Spans};
use stats::Summary;
use workloads::{Cell, Round, Workload, CHECK_GROUPS, STALL_CAUSES};

/// Timed rounds run at least this often, whatever `--seconds` says, so
/// every timing has quartiles.
const MIN_ROUNDS: usize = 3;

/// Default measuring time for all five workloads: about nine rounds on a
/// 2-core x86-64 host.
const DEFAULT_SECONDS_ALL: f64 = 45.0;

/// Default measuring time for a single workload (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS_ONE: f64 = 20.0;

const RECORD_DIR: &str = "results/benchmark";

/// An end-to-end metric and the bound by which its reported value may
/// worsen before a change counts as a regression.
struct E2e {
    name: &'static str,
    unit: &'static str,
    lower_better: bool,
    bound: f64,
}

/// End-to-end metrics every workload reports (the ones `BENCHMARK.json`
/// lists). Host-time bounds are wide because the host is: on a shared
/// 2-core VM, slow phases that last seconds to minutes stretch rounds of
/// unchanged code by up to 1.8×, and over ten seeds the per-run medians
/// spread by up to 31% (the better quartiles, which are reported, by at
/// most 13%; see the README).
const E2E: [E2e; 4] = [
    E2e {
        name: "setup_s",
        unit: "s",
        lower_better: true,
        bound: 0.25,
    },
    E2e {
        name: "run_s",
        unit: "s",
        lower_better: true,
        bound: 0.25,
    },
    E2e {
        name: "work_per_s",
        unit: "1/s",
        lower_better: false,
        bound: 0.25,
    },
    E2e {
        name: "peak_rss_mib",
        unit: "MiB",
        lower_better: true,
        bound: 0.05,
    },
];

/// The paper's three axes, reported by the sim workloads only. They are
/// exact, so the bound is tight; it allows for same-time tie-breaks that
/// differ between event engines.
const SIM_E2E: [E2e; 3] = [
    E2e {
        name: "sim_time_ns",
        unit: "sim_ns",
        lower_better: true,
        bound: 0.01,
    },
    E2e {
        name: "sim_inter_bytes",
        unit: "B",
        lower_better: true,
        bound: 0.01,
    },
    E2e {
        name: "sim_storage_b",
        unit: "B",
        lower_better: true,
        bound: 0.01,
    },
];

/// Failed runs over attempted runs; any increase is a regression.
const FAIL_FRAC: E2e = E2e {
    name: "fail_frac",
    unit: "frac",
    lower_better: true,
    bound: 0.0,
};

/// Every per-layer metric with its unit, in report order (the list
/// `BENCHMARK.json` carries). A metric a workload does not exercise reads 0.
fn per_layer_units() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("workloads.gen_s", "s/round"),
        ("runner.new_s", "s/round"),
        ("runner.events", "count"),
        ("runner.events_per_op", "events/op"),
        ("runner.ns_per_event", "ns/event"),
        ("queue.replay_ops", "count"),
        ("queue.replay_ns_per_op", "ns/op"),
        ("queue.replay_exact", "bool"),
        ("noc.replay_sends", "count"),
        ("noc.replay_ns_per_send", "ns/send"),
        ("noc.replay_exact_frac", "frac"),
        ("noc.pairs_live", "count"),
    ]
    .into_iter()
    .map(|(k, u)| (k.to_string(), u))
    .collect();
    for c in CLASS_NAMES {
        v.push((format!("noc.msgs.{c}"), "count"));
        v.push((format!("noc.inter_bytes.{c}"), "B"));
    }
    for c in PROFILE_CLASSES {
        v.push((format!("prof.{c}.count"), "count"));
        v.push((format!("prof.{c}.ns_per_event"), "ns/event"));
    }
    v.push(("engine.self_ns_per_event".into(), "ns/event"));
    for k in ENGINE_KINDS {
        v.push((format!("engine.{k}"), "count"));
    }
    v.push(("engine.polls".into(), "count"));
    for c in STALL_CAUSES {
        v.push((
            format!("engine.stall_ns.{}", workloads::stall_name(c)),
            "sim_ns",
        ));
    }
    for k in ["proc_cnt", "dir_lut", "dir_buf"] {
        v.push((format!("engine.{k}_peak_b"), "B"));
    }
    for k in [
        "xport.retransmits",
        "xport.spurious_retransmits",
        "xport.dup_dropped",
        "xport.sessions_reset",
        "fault.dropped",
        "fault.duplicated",
        "fault.delayed",
    ] {
        v.push((k.into(), "count"));
    }
    v.push(("xport.useful_retx_frac".into(), "frac"));
    for (g, _, _, _) in CHECK_GROUPS {
        v.push((format!("check.states.{g}"), "count"));
    }
    for (g, _, _, _) in CHECK_GROUPS {
        v.push((format!("check.ns_per_state.{g}"), "ns/state"));
    }
    for k in ["check.levels", "check.peak_frontier", "check.sym_order"] {
        v.push((k.into(), "count"));
    }
    v.push(("sim.time_ns".into(), "sim_ns"));
    v.push(("sim.inter_bytes".into(), "B"));
    v.push(("sim.storage_b".into(), "B"));
    v.push(("trace.capture_overhead_frac".into(), "frac"));
    v.push(("prof.overhead_frac".into(), "frac"));
    v
}

const USAGE: &str = "usage: benchmark [--workload all|kv-8|kv-512|apps-8|faults-64|check] \
[--seed N] [--seconds S] [--trace 0|1] [--out PATH]\n       benchmark --compare A.json B.json";

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
    compare: Option<(String, String)>,
    /// Internal: run one round of a workload and report peak RSS.
    rss_probe: Option<Workload>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut seed = 1;
    let mut seconds = None;
    let mut trace = false;
    let mut out = format!("{RECORD_DIR}/latest.json");
    let mut compare = None;
    let mut rss_probe = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let workload = |s: String| Workload::parse(&s).ok_or(format!("unknown workload {s:?}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![workload(v)?]
                };
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a finite number ≥ 0".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = value()?,
            "--compare" => compare = Some((value()?, value()?)),
            "--rss-probe" => rss_probe = Some(workload(value()?)?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let default = if workloads.len() == 1 {
        DEFAULT_SECONDS_ONE
    } else {
        DEFAULT_SECONDS_ALL
    };
    Ok(Args {
        workloads,
        seed,
        seconds: seconds.unwrap_or(default),
        trace,
        out,
        compare,
        rss_probe,
    })
}

/// Runs one workload once.
fn round_of(w: Workload, cells: &[Cell], spans: &mut Spans, ctx: Ctx) -> Round {
    if w.is_sim() {
        workloads::sim_round(cells, spans, ctx, &mut |_| {}, &mut |_, _, _| {})
    } else {
        workloads::check_round(spans, ctx)
    }
}

/// Peak resident set (VmHWM) of this process in KiB.
fn vmhwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Child side of the RSS probe: one round of `w`, then VmHWM on stdout.
fn rss_probe(w: Workload, seed: u64) -> ExitCode {
    let cells = workloads::cells(w, seed);
    let round = round_of(w, &cells, &mut Spans::new(), Ctx::default());
    match vmhwm_kib() {
        Some(kib) if round.failures.is_empty() => {
            println!("vmhwm_kib={kib}");
            ExitCode::SUCCESS
        }
        _ => ExitCode::FAILURE,
    }
}

/// Parent side: runs the workload once in a fresh child process, so one
/// workload's retained heap never counts against another, and returns its
/// peak RSS in MiB.
fn probe_peak_rss(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--rss-probe", w.name(), "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("rss probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .find_map(|l| l.strip_prefix("vmhwm_kib="))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|_| out.status.success())
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| format!("{}: rss probe failed ({})", w.name(), out.status))
}

/// Everything measured for one workload in this invocation.
struct WorkloadRun {
    w: Workload,
    cells: Vec<Cell>,
    /// Digest of the warm-up round, which every later round must match.
    reference: Option<u64>,
    rounds: Vec<Round>,
    attempted: u64,
    failures: Vec<String>,
    rss_mib: Option<f64>,
    layers: Option<Layers>,
}

impl WorkloadRun {
    /// Counts a round's runs and failures; `timed` rounds keep their
    /// samples. A digest that differs from the warm-up round's is a failure.
    fn absorb(&mut self, round: Round, what: &str, timed: bool) {
        self.attempted += round.attempted;
        self.failures.extend(round.failures.iter().cloned());
        match self.reference {
            None => self.reference = Some(round.digest),
            Some(d) if d != round.digest => {
                self.failures.push(format!(
                    "{}: {what} digest {:016x} differs from the warm-up round's {d:016x}",
                    self.w.name(),
                    round.digest
                ));
            }
            Some(_) => {}
        }
        if timed {
            self.rounds.push(round);
        }
    }

    fn samples(&self, f: impl Fn(&Round) -> f64) -> Vec<f64> {
        self.rounds.iter().map(f).collect()
    }

    /// End-to-end samples per metric: `(metric, samples)`.
    fn e2e(&self) -> Vec<(&'static E2e, Vec<f64>)> {
        let mut v = vec![
            (&E2E[0], self.samples(Round::setup_s)),
            (&E2E[1], self.samples(|r| r.run_s)),
            (&E2E[2], self.samples(|r| r.work as f64 / r.run_s)),
            (&E2E[3], self.rss_mib.into_iter().collect()),
        ];
        if self.w.is_sim() {
            v.push((&SIM_E2E[0], self.samples(|r| r.sim.time_ns)));
            v.push((&SIM_E2E[1], self.samples(|r| r.sim.inter_bytes as f64)));
            v.push((&SIM_E2E[2], self.samples(|r| r.sim.storage_b as f64)));
        }
        let frac = self.failures.len() as f64 / self.attempted.max(1) as f64;
        v.push((&FAIL_FRAC, vec![frac]));
        v.retain(|(_, s)| !s.is_empty());
        v
    }

    fn median(&self, f: impl Fn(&Round) -> f64) -> f64 {
        Summary::of(&self.samples(f)).median
    }

    /// Per-layer metrics measured in the timed rounds themselves.
    fn round_layers(&self, m: &mut Layers) {
        m.insert("workloads.gen_s".into(), self.median(|r| r.gen_s));
        m.insert("runner.new_s".into(), self.median(|r| r.new_s));
        if self.w.is_sim() {
            return;
        }
        let last = self.rounds.last().expect("at least one timed round").check;
        for (g, (name, _, _, _)) in CHECK_GROUPS.iter().enumerate() {
            let secs = self.median(|r| r.check.secs[g]);
            m.insert(format!("check.states.{name}"), last.states[g] as f64);
            m.insert(
                format!("check.ns_per_state.{name}"),
                secs * 1e9 / last.states[g].max(1) as f64,
            );
        }
        m.insert("check.levels".into(), last.levels as f64);
        m.insert("check.peak_frontier".into(), last.peak_frontier as f64);
        m.insert("check.sym_order".into(), last.sym_order as f64);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return ExitCode::from(compare::run(a, b) as u8);
    }
    let vars = std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned());
    if let Err(e) = record::env_guard(vars) {
        eprintln!("benchmark: {e}");
        return ExitCode::from(2);
    }
    if let Some(w) = args.rss_probe {
        return rss_probe(w, args.seed);
    }
    bench(&args);
    ExitCode::SUCCESS
}

fn bench(args: &Args) {
    let mut spans = Spans::new();
    let mut runs: Vec<WorkloadRun> = args
        .workloads
        .iter()
        .map(|&w| WorkloadRun {
            w,
            cells: workloads::cells(w, args.seed),
            reference: None,
            rounds: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            rss_mib: None,
            layers: None,
        })
        .collect();

    // Warm-up round (index 0), then timed rounds until the time is up.
    let mut timed_since: Option<Instant> = None;
    for round in 0.. {
        let timed = round > 0;
        let rid = spans.open(
            if timed { "round" } else { "warmup" },
            Ctx {
                round: Some(round),
                ..Ctx::default()
            },
        );
        for run in &mut runs {
            let ctx = Ctx {
                workload: Some(run.w.name()),
                ..spans.child(rid)
            };
            let wid = spans.open("workload", ctx);
            let ctx = spans.child(wid);
            let r = round_of(run.w, &run.cells, &mut spans, ctx);
            spans.close(wid);
            run.absorb(r, if timed { "timed round" } else { "warm-up" }, timed);
        }
        spans.close(rid);
        let start = *timed_since.get_or_insert_with(Instant::now);
        if timed && round >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    for run in &mut runs {
        match probe_peak_rss(run.w, args.seed) {
            Ok(mib) => run.rss_mib = Some(mib),
            Err(e) => run.failures.push(e),
        }
        run.attempted += 1;
    }

    if args.trace {
        for run in &mut runs {
            let mut m = Layers::new();
            if run.w.is_sim() {
                let tid = spans.open(
                    "trace",
                    Ctx {
                        workload: Some(run.w.name()),
                        ..Ctx::default()
                    },
                );
                let run_s = run.median(|r| r.run_s);
                let ctx = spans.child(tid);
                let (traced, passes) =
                    layers::sim_layers(&run.cells, run.w.is_clean(), run_s, &mut spans, ctx);
                spans.close(tid);
                m = traced;
                for (pass, r) in ["profile pass", "capture pass"].into_iter().zip(passes) {
                    run.absorb(r, pass, false);
                }
            }
            run.round_layers(&mut m);
            run.layers = Some(m);
        }
    }

    report(args, &runs, &spans);
}

fn summary_json(e: &E2e, samples: &[f64]) -> Json {
    let s = Summary::of(samples);
    Json::Obj(vec![
        ("unit".into(), json_str(e.unit)),
        (
            "better".into(),
            json_str(if e.lower_better { "lower" } else { "higher" }),
        ),
        ("bound".into(), Json::Num(e.bound)),
        ("value".into(), Json::Num(s.better_quartile(e.lower_better))),
        ("median".into(), Json::Num(s.median)),
        ("q1".into(), Json::Num(s.q1)),
        ("q3".into(), Json::Num(s.q3)),
        ("n".into(), Json::Num(s.n as f64)),
        (
            "samples".into(),
            Json::Arr(samples.iter().map(|&x| Json::Num(x)).collect()),
        ),
    ])
}

/// Prints the tables, writes the records and ends with the result line.
fn report(args: &Args, runs: &[WorkloadRun], spans: &Spans) {
    let rounds = runs.first().map_or(0, |r| r.rounds.len());
    let prov = record::provenance(args.seed, rounds, args.seconds);
    let units = per_layer_units();
    let mut rec_ws = Vec::new();
    let mut layer_ws = Vec::new();
    let mut result = Vec::new();
    let prefix = |w: Workload, k: &str| {
        if runs.len() == 1 {
            k.to_string()
        } else {
            format!("{}/{k}", w.name())
        }
    };
    for run in runs {
        let name = run.w.name();
        println!(
            "\n== {name}: seed {}, {} timed round(s) after 1 warm-up, {} run(s) attempted, {} failed ==",
            args.seed,
            run.rounds.len(),
            run.attempted,
            run.failures.len()
        );
        println!(
            "{:<16} {:>16} {:>16} {:>16} {:>16} {:>3}  unit",
            "metric", "value", "median", "q1", "q3", "n"
        );
        let mut metrics = Vec::new();
        for (e, samples) in run.e2e() {
            let s = Summary::of(&samples);
            let value = s.better_quartile(e.lower_better);
            println!(
                "{:<16} {:>16.6} {:>16.6} {:>16.6} {:>16.6} {:>3}  {}",
                e.name, value, s.median, s.q1, s.q3, s.n, e.unit
            );
            metrics.push((e.name.to_string(), summary_json(e, &samples)));
            if !args.trace && E2E.iter().any(|x| x.name == e.name) {
                result.push((prefix(run.w, e.name), value, e.unit));
            }
        }
        for f in &run.failures {
            eprintln!("FAILED {f}");
        }
        rec_ws.push((
            name.to_string(),
            Json::Obj(vec![
                ("correct".into(), Json::Bool(run.failures.is_empty())),
                ("attempted".into(), Json::Num(run.attempted as f64)),
                ("failed".into(), Json::Num(run.failures.len() as f64)),
                (
                    "failures".into(),
                    Json::Arr(run.failures.iter().map(|f| json_str(f)).collect()),
                ),
                ("metrics".into(), Json::Obj(metrics)),
            ]),
        ));
        if let Some(m) = &run.layers {
            println!("-- {name}: per-layer (traced passes) --");
            let mut obj = Vec::new();
            for (k, unit) in &units {
                let v = m.get(k).copied().unwrap_or(0.0);
                println!("{k:<36} {v:>18.4}  {unit}");
                obj.push((k.clone(), unit_value(v, unit)));
                result.push((prefix(run.w, k), v, unit));
            }
            // Classes the list does not name yet still reach the record.
            for (k, &v) in m
                .iter()
                .filter(|(k, _)| !units.iter().any(|(u, _)| u == *k))
            {
                obj.push((k.clone(), unit_value(v, "count")));
            }
            layer_ws.push((name.to_string(), Json::Obj(obj)));
        }
    }

    let record = Json::Obj(vec![
        ("provenance".into(), prov.clone()),
        ("workloads".into(), Json::Obj(rec_ws)),
    ]);
    write_or_warn(&args.out, &record);
    if args.trace {
        let layers = Json::Obj(vec![
            ("provenance".into(), prov.clone()),
            ("workloads".into(), Json::Obj(layer_ws)),
        ]);
        write_or_warn(&format!("{RECORD_DIR}/layers.json"), &layers);
        let spans = Json::Obj(vec![
            ("provenance".into(), prov),
            ("spans".into(), spans.to_json()),
        ]);
        write_or_warn(&format!("{RECORD_DIR}/spans.json"), &spans);
    }

    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: usize = runs.iter().map(|r| r.failures.len()).sum();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                result
                    .into_iter()
                    .map(|(k, v, unit)| (k, unit_value(v, unit)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.render());
}

fn unit_value(v: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Num(v)),
        ("unit".into(), json_str(unit)),
    ])
}

fn write_or_warn(path: &str, value: &Json) {
    if let Err(e) = record::write_json(path, value) {
        eprintln!("benchmark: cannot write {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this program reports, with the same units and bounds.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |k: &str| match spec.get(k) {
            Some(Json::Arr(v)) => v.clone(),
            _ => panic!("BENCHMARK.json lacks {k}"),
        };
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), E2E.len());
        for (j, e) in e2e.iter().zip(&E2E) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(e.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(e.unit));
            let better = if e.lower_better { "lower" } else { "higher" };
            assert_eq!(j.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(e.bound));
        }
        let per_layer = list("per_layer");
        let units = per_layer_units();
        assert_eq!(per_layer.len(), units.len());
        for (j, (k, u)) in per_layer.iter().zip(&units) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(k.as_str()));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(*u));
        }
        let names: Vec<Json> = Workload::ALL.iter().map(|w| json_str(w.name())).collect();
        let listed: Vec<Json> = list("workloads")
            .iter()
            .filter_map(|w| w.get("name").cloned())
            .collect();
        assert_eq!(listed, names);
    }

    #[test]
    fn args_parse_the_benchmark_json_form() {
        let argv: Vec<String> = "--workload kv-8 --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workloads, vec![Workload::Kv8]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&["--workload".into(), "kv-9".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert_eq!(parse_args(&[]).unwrap().workloads.len(), 5);
    }
}
