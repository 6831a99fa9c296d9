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
//!   corpus directory is rewritten (greedily minimized) on exit, new
//!   counterexamples are shrunk and written under `--out`, and the
//!   coverage record — per-engine edge counts, edges-over-iterations, and
//!   the guided-vs-blind comparison at equal iteration count — lands in
//!   `results/BENCH_fuzz.json` under the `fuzz-serve` key. All recorded
//!   numbers are simulated quantities: the record is byte-identical for a
//!   given `(seed, iterations)` on any host at any worker count.
//! * **Check** (`--check-coverage`): replays the committed corpus, unions
//!   its coverage, and fails if the distinct-edge count shrank below the
//!   `cov/corpus` value recorded in `BENCH_fuzz.json` — the CI guard
//!   against silently losing fault-recovery coverage.
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
use cord_bench::print_table;
use cord_bench::sweep::{json_path, Recorder};
use cord_fuzz::{
    blind_union, narrate_rc_violation, replay_union, run_campaign, run_guided, run_scenario,
    CampaignConfig, GuidedConfig, Verdict,
};
use cord_sim::obs;

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
        max_events: 2_000_000,
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

/// The campaign's benchmark record: `CORD_BENCH_JSON` when set, else
/// `results/BENCH_fuzz.json`.
fn record_path() -> std::path::PathBuf {
    json_path("results/BENCH_fuzz.json")
}

/// Scrapes the recorded `cov/corpus` distinct-edge count out of the
/// `fuzz-serve` entry in the benchmark record, if present.
fn recorded_corpus_edges() -> Option<u64> {
    let text = std::fs::read_to_string(record_path()).ok()?;
    let entry = text
        .lines()
        .find(|l| l.contains("\"key\":\"fuzz-serve\""))?;
    let at = entry.find("\"label\":\"cov/corpus\"")?;
    let rest = &entry[at..];
    let sim = rest.find("\"sim_ns\":")? + "\"sim_ns\":".len();
    let digits: String = rest[sim..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    digits.parse::<f64>().ok().map(|v| v as u64)
}

/// `--check-coverage`: recompute the committed corpus' coverage union and
/// compare against the recorded baseline. Returns the exit code.
fn check_coverage() -> i32 {
    let seeds = committed_corpus();
    if seeds.is_empty() {
        eprintln!("coverage check needs the committed corpus (tests/repros)");
        return 2;
    }
    let union = replay_union(&seeds, None);
    let current = union.distinct() as u64;
    let Some(recorded) = recorded_corpus_edges() else {
        eprintln!(
            "no cov/corpus baseline under key \"fuzz-serve\" in {} — \
             run `fuzz --serve --quick` to record one",
            record_path().display()
        );
        return 2;
    };
    println!(
        "committed-corpus coverage: {current} distinct edge(s) (recorded baseline {recorded})"
    );
    match current.cmp(&recorded) {
        std::cmp::Ordering::Less => {
            eprintln!(
                "COVERAGE REGRESSION: the committed corpus now exercises {current} \
                 distinct edges, down from {recorded}; a protocol/trace change lost \
                 fault-recovery coverage (or the corpus shrank). If intentional, \
                 re-record with `fuzz --serve --quick`."
            );
            1
        }
        std::cmp::Ordering::Greater => {
            println!(
                "note: coverage grew past the baseline — refresh it with \
                 `fuzz --serve --quick` to tighten the check"
            );
            0
        }
        std::cmp::Ordering::Equal => 0,
    }
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

    // The committed corpus' own coverage union is the `--check-coverage`
    // baseline; compute it from the committed files only.
    let corpus_cov = replay_union(&committed, None);

    let t0 = std::time::Instant::now();
    std::panic::set_hook(Box::new(|_| {}));
    let guided = run_guided(&cfg, &seeds, deadline);
    // The blind baseline at the iteration count actually completed, so a
    // deadline-stopped serve still compares like for like.
    let blind = blind_union(&GuidedConfig {
        iterations: guided.iterations,
        ..cfg.clone()
    });
    let _ = std::panic::take_hook();
    let wall = t0.elapsed().as_secs_f64();

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

    // The union map as a diffable text artifact (CI uploads it on failure).
    let cov_path = "results/fuzz-coverage.txt";
    if std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(cov_path, guided.corpus.union.render()))
        .is_err()
    {
        eprintln!("warning: cannot write {cov_path}");
    }

    // Benchmark record: simulated/derived quantities only.
    let guided_edges = guided.corpus.union.distinct() as u64;
    let blind_edges = blind.distinct() as u64;
    let mut rec = Recorder::new_deterministic("fuzz-serve").at_path(record_path());
    rec.record_with_metrics(
        "cov/corpus",
        0.0,
        corpus_cov.distinct() as f64,
        Some(corpus_cov.summary_json()),
    );
    rec.record_with_metrics(
        "cov/guided",
        0.0,
        guided_edges as f64,
        Some(guided.corpus.union.summary_json()),
    );
    rec.record_with_metrics(
        "cov/blind",
        0.0,
        blind_edges as f64,
        Some(blind.summary_json()),
    );
    for (engine, map) in &guided.per_engine {
        rec.record_with_metrics(
            &format!("cov/engine/{engine}"),
            0.0,
            map.distinct() as f64,
            Some(map.summary_json()),
        );
    }
    for (it, edges) in &guided.edges_over_time {
        rec.record(&format!("edges/i{it:05}"), 0.0, *edges as f64);
    }
    rec.record_with_metrics(
        "serve",
        0.0,
        0.0,
        Some(format!(
            "{{\"seed\":{},\"iterations\":{},\"mutated\":{},\"blind\":{},\
             \"corpus\":{},\"minimized\":{},\"guided_edges\":{guided_edges},\
             \"blind_edges\":{blind_edges},\"failures\":{}}}",
            cfg.seed,
            guided.iterations,
            guided.mutated,
            guided.blind,
            full,
            pruned.entries.len(),
            guided.failures.len()
        )),
    );
    rec.finish();

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
         at {} iteration(s) ({wall:.1}s wall)",
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
    code
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
    let t0 = std::time::Instant::now();
    let campaign = run_campaign(&cfg);
    let wall = t0.elapsed().as_secs_f64();
    let _ = std::panic::take_hook();

    // Benchmark record: simulated quantities only, so the file is
    // byte-identical for a given (seed, count) at any worker count.
    let mut rec = Recorder::new_deterministic("fuzz").at_path(record_path());
    for o in &campaign.outcomes {
        rec.record(&o.label, 0.0, o.report.sim_ns);
    }
    rec.record_with_metrics("campaign", 0.0, 0.0, Some(campaign.stats_json(&cfg)));
    rec.finish();

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
            "\nall {} scenarios passed every oracle ({wall:.1}s wall)",
            campaign.outcomes.len()
        );
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
        "\n{} of {} scenario(s) failed ({wall:.1}s wall); replay with \
         `fuzz --replay <file>`",
        campaign.failures.len(),
        campaign.outcomes.len()
    );
    std::process::exit(1);
}
