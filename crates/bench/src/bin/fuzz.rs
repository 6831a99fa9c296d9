//! Scenario fuzzing: blind campaigns, coverage-guided serving, replay.
//!
//! Three modes share one binary:
//!
//! * **Campaign** (default): seeded blind generation — engine, fabric,
//!   topology, table provisioning down to capacity 1, fault plans,
//!   producer/consumer workloads — run through the DES under four oracles
//!   (termination, RC-vs-baseline, differential model check,
//!   panic-freedom), with 1-minimal shrinking of failures.
//! * **Serve** (`--serve`): the long-lived coverage-guided mode. Seeds a
//!   corpus from `tests/repros/`, plus the corpus directory only when
//!   `--corpus DIR` names one: leftovers of earlier runs in the default
//!   directory are never read, so a clean and a used checkout record the
//!   same numbers. It then runs an energy-scheduled mutate/generate loop
//!   where novel trace-coverage admits scenarios back into the corpus. The
//!   corpus directory is rewritten (greedily minimized) on exit, and new
//!   counterexamples are shrunk and written under `--out`. The coverage
//!   counts — the committed corpus' edges, per-engine edge counts,
//!   edges-over-iterations, and the guided-vs-blind comparison at equal
//!   iteration count — are checked against an exact record.
//! * **Check** (`--check-coverage`): replays the committed corpus, unions
//!   its coverage, and fails unless the distinct-edge count equals the
//!   `cov/corpus` value of the quick serve record — the CI guard against
//!   silently losing (or gaining unrecorded) fault-recovery coverage.
//!
//! The campaign and serve modes check their counts against the exact
//! records `results/records/fuzz{,-serve}{-quick,}.txt`
//! ([`cord_bench::gate`]) when run at their default seed, size and event
//! cap (serve also needs all its iterations done and no `--corpus`). All
//! recorded numbers are simulated quantities, identical on any host at any
//! worker count. `CORD_UPDATE_GOLDEN=1` re-records them, and the quick serve
//! re-record also rewrites the union map `results/fuzz-coverage.txt`.
//!
//! ```text
//! fuzz [--quick] [--seed N] [--count N] [--max-events N] [--no-model]
//!      [--out DIR] [--replay PATH]
//!      [--serve] [--iters N] [--max-secs S] [--corpus DIR]
//!      [--check-coverage]
//! ```
//!
//! Campaign defaults: seed 1, 400 scenarios (64 with `--quick`), event cap
//! 2M, repros under `results/fuzz-repros/`. Serve defaults: 400 iterations
//! (200 with `--quick`), corpus written to `results/fuzz-corpus/`.
//!
//! `--replay PATH` re-executes one repro file — or, given a directory,
//! every `*.repro` in it (file-name order, with the shared campaign
//! progress line on stderr) — and exits non-zero on any `expect` mismatch.

use cord::RunConfig;
use cord_bench::{gate, print_table};
use cord_fuzz::{
    blind_union, narrate_rc_violation, replay_union, run_campaign, run_guided, run_scenario,
    CampaignConfig, GuidedConfig, Verdict,
};
use cord_sim::obs;

/// The default per-scenario event cap.
const MAX_EVENTS: u64 = 2_000_000;

struct Args {
    quick: bool,
    seed: u64,
    count: Option<u64>,
    iters: Option<u64>,
    max_events: u64,
    max_secs: Option<u64>,
    model: bool,
    out: String,
    corpus: String,
    /// `--corpus` was given: seed from that directory too.
    corpus_given: bool,
    replay: Option<String>,
    serve: bool,
    check_coverage: bool,
}

impl Args {
    /// Seed, event cap and oracles at their defaults: the runs the exact
    /// records describe.
    fn at_defaults(&self) -> bool {
        self.seed == 1 && self.max_events == MAX_EVENTS && self.model
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--quick] [--seed N] [--count N] [--max-events N] \
         [--no-model] [--out DIR] [--replay PATH]\n\
         \x20           [--serve] [--iters N] [--max-secs S] [--corpus DIR] \
         [--check-coverage]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        seed: 1,
        count: None,
        iters: None,
        max_events: MAX_EVENTS,
        max_secs: None,
        model: true,
        out: "results/fuzz-repros".into(),
        corpus: "results/fuzz-corpus".into(),
        corpus_given: false,
        replay: None,
        serve: false,
        check_coverage: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        let mut val = || {
            i += 1;
            argv.get(i).cloned().unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--no-model" => args.model = false,
            "--serve" => args.serve = true,
            "--check-coverage" => args.check_coverage = true,
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--count" => args.count = Some(val().parse().unwrap_or_else(|_| usage())),
            "--iters" => args.iters = Some(val().parse().unwrap_or_else(|_| usage())),
            "--max-events" => args.max_events = val().parse().unwrap_or_else(|_| usage()),
            "--max-secs" => args.max_secs = Some(val().parse().unwrap_or_else(|_| usage())),
            "--out" => args.out = val(),
            "--corpus" => {
                args.corpus = val();
                args.corpus_given = true;
            }
            "--replay" => args.replay = Some(val()),
            _ => usage(),
        }
        i += 1;
    }
    args
}

/// Loads the committed seed corpus, tolerating its absence (the binary
/// may run outside a checkout).
fn committed_corpus() -> Vec<(String, cord_fuzz::Repro)> {
    let dir = std::path::Path::new("tests/repros");
    if !dir.is_dir() {
        eprintln!("note: no committed corpus at tests/repros (running outside a checkout?)");
        return Vec::new();
    }
    match cord_fuzz::corpus::load_dir(dir) {
        Ok((seeds, warnings)) => {
            for (name, e) in &warnings {
                eprintln!("warning: skipping tests/repros/{name}: {e}");
            }
            seeds
        }
        Err(e) => {
            eprintln!("warning: cannot read tests/repros: {e}");
            Vec::new()
        }
    }
}

/// Re-executes one repro file; returns the process exit code.
fn replay_file(path: &str) -> i32 {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2)
    });
    let repro = cord_fuzz::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2)
    });
    let sc = &repro.scenario;
    println!(
        "replaying {path}: {} on {} {} host(s) × {} tiles, {} op(s), faults: {}",
        sc.engine.label(),
        if sc.upi { "UPI" } else { "CXL" },
        sc.hosts,
        sc.tph,
        sc.op_count(),
        sc.faults.as_deref().unwrap_or("none"),
    );
    let report = run_scenario(sc);
    println!("verdict: {}", report.verdict);
    if report.sim_ns > 0.0 {
        println!("simulated time: {:.1} ns", report.sim_ns);
    }
    if let Some(n) = narrate_rc_violation(sc, &report.verdict) {
        println!("\n{n}");
    } else if matches!(report.verdict, Verdict::RcViolation { .. }) {
        println!("(the abstract model does not reach this outcome — a DES-only divergence)");
    }
    match &repro.expect {
        Some(expect) if expect != report.verdict.class() => {
            eprintln!(
                "MISMATCH: file expects {expect:?}, run produced {:?}",
                report.verdict.class()
            );
            1
        }
        Some(expect) => {
            println!("verdict matches the file's expectation ({expect})");
            0
        }
        None => 0,
    }
}

/// Replays every `*.repro` in a directory (file-name order), with the
/// shared campaign progress line on stderr; returns the exit code.
fn replay_dir(dir: &std::path::Path) -> i32 {
    let (repros, warnings) = match cord_fuzz::corpus::load_dir(dir) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("cannot read {}: {e}", dir.display());
            return 2;
        }
    };
    for (name, e) in &warnings {
        eprintln!("warning: skipping {name}: {e}");
    }
    if repros.is_empty() {
        eprintln!("no .repro files under {}", dir.display());
        return 2;
    }
    let prog = obs::Progress::new("replay", repros.len() as u64);
    let mut mismatches = 0u64;
    for (name, repro) in &repros {
        let report = run_scenario(&repro.scenario);
        let got = report.verdict.class();
        let status = match repro.expect.as_deref() {
            Some(expect) if expect != got => {
                mismatches += 1;
                prog.flag();
                format!("MISMATCH (expect {expect})")
            }
            Some(_) => "ok".to_string(),
            None => "no expect line".to_string(),
        };
        println!(
            "{name}: {} — {got} [{status}]",
            repro.scenario.engine.label()
        );
        prog.inc(1);
    }
    prog.finish(&format!(
        "replay: {} repro(s), {} mismatch(es)",
        repros.len(),
        mismatches
    ));
    if mismatches > 0 {
        eprintln!(
            "{mismatches} of {} repro(s) diverged from their expect line",
            repros.len()
        );
        1
    } else {
        println!("all {} repro(s) match their expect lines", repros.len());
        0
    }
}

/// The recorded `cov/corpus` distinct-edge count of the quick serve
/// record, if present.
fn recorded_corpus_edges() -> Option<u64> {
    let text = std::fs::read_to_string(gate::path("fuzz-serve-quick")).ok()?;
    let line = text.lines().find_map(|l| l.strip_prefix("cov/corpus "))?;
    line.strip_prefix("edges=")?.parse().ok()
}

/// `--check-coverage`: recompute the committed corpus' coverage union and
/// compare it exactly with the recorded count. Returns the exit code.
fn check_coverage() -> i32 {
    let seeds = committed_corpus();
    if seeds.is_empty() {
        eprintln!("coverage check needs the committed corpus (tests/repros)");
        return 2;
    }
    let current = replay_union(&seeds, None).distinct() as u64;
    let Some(recorded) = recorded_corpus_edges() else {
        eprintln!(
            "no cov/corpus line in {} — record one with \
             `CORD_UPDATE_GOLDEN=1 fuzz --serve --quick`",
            gate::path("fuzz-serve-quick")
        );
        return 2;
    };
    println!("committed-corpus coverage: {current} distinct edge(s) (recorded {recorded})");
    if current == recorded {
        return 0;
    }
    eprintln!(
        "COVERAGE CHANGED: the committed corpus now exercises {current} distinct \
         edges, recorded {recorded}. A drop means a protocol/trace change lost \
         fault-recovery coverage (or the corpus shrank); if the change is \
         intended, re-record with `CORD_UPDATE_GOLDEN=1 fuzz --serve --quick`."
    );
    1
}

/// `--serve`: the coverage-guided daemon loop. Returns the exit code.
fn serve(args: &Args) -> i32 {
    let iters = args.iters.unwrap_or(if args.quick { 200 } else { 400 });
    let cfg = GuidedConfig {
        seed: args.seed,
        iterations: iters,
        max_events: args.max_events,
        model_check: args.model,
        workers: None,
    };
    let deadline = args
        .max_secs
        .map(|s| std::time::Instant::now() + std::time::Duration::from_secs(s));

    // Seed order: the committed corpus first, then an explicitly named
    // corpus directory (an earlier serve run's output).
    let committed = committed_corpus();
    let corpus_dir = std::path::Path::new(&args.corpus);
    let mut seeds = committed.clone();
    if args.corpus_given && corpus_dir.is_dir() {
        match cord_fuzz::corpus::load_dir(corpus_dir) {
            Ok((extra, warnings)) => {
                for (name, e) in &warnings {
                    eprintln!("warning: skipping {}/{name}: {e}", args.corpus);
                }
                seeds.extend(extra);
            }
            Err(e) => eprintln!("warning: cannot read {}: {e}", args.corpus),
        }
    }

    std::panic::set_hook(Box::new(|_| {}));
    let guided = run_guided(&cfg, &seeds, deadline);
    // The blind baseline at the iteration count actually completed, so a
    // deadline-stopped serve still compares like for like.
    let blind = blind_union(&GuidedConfig {
        iterations: guided.iterations,
        ..cfg.clone()
    });
    let _ = std::panic::take_hook();

    // Maintain the on-disk corpus: greedy-minimize, then rewrite.
    let full = guided.corpus.entries.len();
    let keep = guided.corpus.minimize();
    let mut pruned = guided.corpus.clone();
    pruned.retain_ids(&keep);
    if let Err(e) = pruned.sync_dir(corpus_dir) {
        eprintln!("warning: cannot sync corpus dir {}: {e}", args.corpus);
    }

    // Shrunk counterexamples (new ones only — seed replays never count).
    if !guided.failures.is_empty() {
        if let Err(e) = std::fs::create_dir_all(&args.out) {
            eprintln!("cannot create {}: {e}", args.out);
            return 2;
        }
        for f in &guided.failures {
            let path = format!("{}/g{:04}.repro", args.out, f.index);
            if let Err(e) = std::fs::write(&path, f.repro_text(cfg.seed)) {
                eprintln!("cannot write {path}: {e}");
            }
            println!(
                "FAILURE g{:04}: {} — shrunk {} → {} ops in {} runs, repro: {path}",
                f.index,
                f.verdict.class(),
                f.scenario.op_count(),
                f.shrunk.op_count(),
                f.stats.attempts,
            );
        }
    }

    let guided_edges = guided.corpus.union.distinct() as u64;
    let blind_edges = blind.distinct() as u64;
    let rows: Vec<Vec<String>> = guided
        .per_engine
        .iter()
        .map(|(e, m)| vec![e.clone(), m.distinct().to_string()])
        .collect();
    print_table(
        &format!(
            "Coverage-guided fuzz: seed {}, {} iteration(s) ({} mutated / {} blind)",
            cfg.seed, guided.iterations, guided.mutated, guided.blind
        ),
        &["engine", "distinct edges"],
        &rows,
    );
    println!(
        "\ncorpus: {} entr(ies) admitted, minimized to {} on disk under {}",
        full,
        pruned.entries.len(),
        args.corpus
    );
    println!(
        "coverage: guided {guided_edges} distinct edge(s) vs blind {blind_edges} \
         at {} iteration(s)",
        guided.iterations
    );

    let mut code = 0;
    if !guided.failures.is_empty() {
        eprintln!(
            "{} new counterexample(s) found; replay with `fuzz --replay <file>`",
            guided.failures.len()
        );
        code = 1;
    }
    if guided_edges <= blind_edges && guided.iterations > 0 {
        eprintln!(
            "GUIDANCE REGRESSION: the corpus-guided scheduler did not beat blind \
             generation ({guided_edges} ≤ {blind_edges} edges)"
        );
        code = 1;
    }
    if code != 0 {
        return code;
    }

    // Exact record of the default-configured serve: simulated and derived
    // counts only.
    if !args.at_defaults() || args.iters.is_some() || args.corpus_given {
        return 0;
    }
    if guided.iterations < iters {
        println!(
            "\n--max-secs ended the run after {} of {iters} iteration(s); \
             the record holds complete runs only, so there is nothing to compare",
            guided.iterations
        );
        return 0;
    }
    // The committed corpus' own coverage union is the `--check-coverage`
    // count; compute it from the committed files only.
    let corpus_cov = replay_union(&committed, None);
    let mut record = vec![
        format!("cov/corpus edges={}", corpus_cov.distinct()),
        format!("cov/guided edges={guided_edges}"),
        format!("cov/blind edges={blind_edges}"),
        format!(
            "serve seed={} iterations={} mutated={} blind={} corpus={full} minimized={}",
            cfg.seed,
            guided.iterations,
            guided.mutated,
            guided.blind,
            pruned.entries.len()
        ),
    ];
    record.extend(
        guided
            .per_engine
            .iter()
            .map(|(engine, map)| format!("cov/engine/{engine} edges={}", map.distinct())),
    );
    record.extend(
        guided
            .edges_over_time
            .iter()
            .map(|(it, edges)| format!("edges/i{it:05} edges={edges}")),
    );
    if args.quick && gate::updating() {
        // The union map as a diffable text artifact.
        let cov_path = "results/fuzz-coverage.txt";
        std::fs::write(cov_path, guided.corpus.union.render())
            .unwrap_or_else(|e| panic!("cannot write {cov_path}: {e}"));
    }
    gate::enforce(
        if args.quick {
            "fuzz-serve-quick"
        } else {
            "fuzz-serve"
        },
        record,
    );
    0
}

fn main() {
    let args = parse_args();
    // A scenario's fault spec is its only fault source; an inherited
    // `CORD_FAULTS` would corrupt the fault-free baselines. Coverage
    // records additionally pin the engine choice (monolithic vs sharded)
    // so the recorded maps are environment-independent.
    let mut run = RunConfig::from_env_or_exit();
    run.faults = None;
    if args.serve || args.check_coverage {
        run.sim_threads = None;
    }
    run.install();
    if let Some(path) = &args.replay {
        let p = std::path::Path::new(path);
        let code = if p.is_dir() {
            replay_dir(p)
        } else {
            replay_file(path)
        };
        std::process::exit(code);
    }
    if args.check_coverage {
        std::process::exit(check_coverage());
    }
    if args.serve {
        std::process::exit(serve(&args));
    }
    // Panics are a verdict here, not noise: silence the default hook's
    // backtrace spew while the campaign runs.
    std::panic::set_hook(Box::new(|_| {}));

    let cfg = CampaignConfig {
        seed: args.seed,
        count: args.count.unwrap_or(if args.quick { 64 } else { 400 }),
        max_events: args.max_events,
        model_check: args.model,
        ..CampaignConfig::default()
    };
    let campaign = run_campaign(&cfg);
    let _ = std::panic::take_hook();

    let mut classes = std::collections::BTreeMap::<&str, u64>::new();
    for o in &campaign.outcomes {
        *classes.entry(o.report.verdict.class()).or_default() += 1;
    }
    let rows: Vec<Vec<String>> = classes
        .iter()
        .map(|(c, n)| vec![c.to_string(), n.to_string()])
        .collect();
    print_table(
        &format!(
            "Fuzz campaign: seed {}, {} scenarios, event cap {}",
            cfg.seed, cfg.count, cfg.max_events
        ),
        &["verdict", "scenarios"],
        &rows,
    );

    if campaign.failures.is_empty() {
        println!(
            "\nall {} scenarios passed every oracle",
            campaign.outcomes.len()
        );
        // Exact record of the default-configured campaign: each scenario's
        // verdict and simulated time.
        if args.at_defaults() && args.count.is_none() {
            let mut record: Vec<String> = campaign
                .outcomes
                .iter()
                .map(|o| format!("{} sim_ns={:.1}", o.label, o.report.sim_ns))
                .collect();
            record.push(format!(
                "campaign seed={} scenarios={}",
                cfg.seed,
                campaign.outcomes.len()
            ));
            gate::enforce(if args.quick { "fuzz-quick" } else { "fuzz" }, record);
        }
        return;
    }

    std::fs::create_dir_all(&args.out).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", args.out);
        std::process::exit(2)
    });
    println!();
    for f in &campaign.failures {
        let path = format!("{}/s{:04}.repro", args.out, f.index);
        if let Err(e) = std::fs::write(&path, f.repro_text(cfg.seed)) {
            eprintln!("cannot write {path}: {e}");
        }
        println!(
            "FAILURE s{:04}: {} — shrunk {} → {} ops in {} runs, repro: {path}",
            f.index,
            f.verdict.class(),
            f.scenario.op_count(),
            f.shrunk.op_count(),
            f.stats.attempts,
        );
        println!("  original: {}", f.verdict);
        println!("  shrunk:   {}", f.shrunk_verdict);
    }
    eprintln!(
        "\n{} of {} scenario(s) failed; replay with `fuzz --replay <file>`",
        campaign.failures.len(),
        campaign.outcomes.len()
    );
    std::process::exit(1);
}
