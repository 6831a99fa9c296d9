//! One traced, configurable simulation run: Perfetto trace + metrics report.
//!
//! Runs a single workload under one protocol/fabric configuration with the
//! tracer always on, writes a Chrome-trace-event JSON file (loadable in
//! Perfetto or `chrome://tracing`), prints the metrics summary, and echoes
//! the tail of the event stream as human-readable text.
//!
//! ```text
//! trace [--app NAME | --micro STORE_GRAN,SYNC_GRAN,FANOUT | --repro FILE]
//!       [--proto cord|so|mp|wb|seq8|seq40] [--fabric cxl|upi]
//!       [--hosts N] [--iters N] [--out PATH] [--tail N]
//!       [--faults SPEC]
//! ```
//!
//! Defaults: `--app MOCFE --proto cord --fabric cxl --hosts 4 --iters 2
//! --out results/cord_trace.json --tail 16`.
//!
//! `--faults` arms deterministic fault injection plus the reliable
//! transport, e.g. `--faults "seed=7; drop=0.05; dup=0.02; jitter=100"`
//! (the `CORD_FAULTS` environment variable takes the same grammar; see
//! EXPERIMENTS.md). Fault and retransmission events land in the trace.
//!
//! `--repro` replays a `cord-fuzz repro v1` file (see `fuzz --replay` and
//! EXPERIMENTS.md): the scenario supplies the configuration, workload, and
//! fault spec, so a fuzzer counterexample can be inspected event by event
//! in Perfetto. `--faults` still overrides the file's spec.

use cord::{RunConfig, System};
use cord_bench::{config, Fabric};
use cord_proto::{ConsistencyModel, ProtocolKind};
use cord_sim::obs;
use cord_sim::trace::{
    render_event, ChromeTraceWriter, MetricsRecorder, RingSink, Shared, TraceEvent, TraceSink,
    Tracer,
};
use cord_sim::Time;
use cord_workloads::{AppSpec, MicroBench};

/// Fans one event stream out to the trace file and an in-memory tail.
struct Tee {
    file: Box<dyn TraceSink + Send>,
    tail: Shared<RingSink>,
}

impl TraceSink for Tee {
    fn emit(&mut self, ev: &TraceEvent) {
        self.file.emit(ev);
        self.tail.emit(ev);
    }

    fn flush(&mut self) {
        self.file.flush();
    }
}

struct Args {
    app: Option<String>,
    micro: Option<(u32, u64, u32)>,
    repro: Option<String>,
    flight: Option<String>,
    proto: ProtocolKind,
    fabric: Fabric,
    hosts: u32,
    iters: u32,
    out: String,
    /// `--out` was given explicitly (so a Perfetto trace is wanted even
    /// when `--metrics-out` would otherwise make it optional).
    out_explicit: bool,
    metrics_out: Option<String>,
    tail: usize,
    faults: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: trace [--app NAME | --micro STORE_GRAN,SYNC_GRAN,FANOUT | --repro FILE \
         | --flight FILE] \
         [--proto cord|so|mp|wb|seq8|seq40] [--fabric cxl|upi] \
         [--hosts N] [--iters N] [--out PATH] [--metrics-out PATH] [--tail N] \
         [--faults \"seed=N; drop=P; dup=P; jitter=NS; ...\"]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        app: None,
        micro: None,
        repro: None,
        flight: None,
        proto: ProtocolKind::Cord,
        fabric: Fabric::Cxl,
        hosts: 4,
        iters: 2,
        out: "results/cord_trace.json".into(),
        out_explicit: false,
        metrics_out: None,
        tail: 16,
        faults: None,
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
            "--app" => args.app = Some(val()),
            "--micro" => {
                let v = val();
                let parts: Vec<&str> = v.split(',').collect();
                if parts.len() != 3 {
                    usage();
                }
                let g = parts[0].parse().unwrap_or_else(|_| usage());
                let s = parts[1].parse().unwrap_or_else(|_| usage());
                let f = parts[2].parse().unwrap_or_else(|_| usage());
                args.micro = Some((g, s, f));
            }
            "--proto" => {
                args.proto = match val().as_str() {
                    "cord" => ProtocolKind::Cord,
                    "so" => ProtocolKind::So,
                    "mp" => ProtocolKind::Mp,
                    "wb" => ProtocolKind::Wb,
                    "seq8" => ProtocolKind::Seq { bits: 8 },
                    "seq40" => ProtocolKind::Seq { bits: 40 },
                    _ => usage(),
                }
            }
            "--fabric" => {
                args.fabric = match val().as_str() {
                    "cxl" => Fabric::Cxl,
                    "upi" => Fabric::Upi,
                    _ => usage(),
                }
            }
            "--hosts" => args.hosts = val().parse().unwrap_or_else(|_| usage()),
            "--iters" => args.iters = val().parse().unwrap_or_else(|_| usage()),
            "--out" => {
                args.out = val();
                args.out_explicit = true;
            }
            "--metrics-out" => args.metrics_out = Some(val()),
            "--tail" => args.tail = val().parse().unwrap_or_else(|_| usage()),
            "--faults" => args.faults = Some(val()),
            "--repro" => args.repro = Some(val()),
            "--flight" => args.flight = Some(val()),
            _ => usage(),
        }
        i += 1;
    }
    let sources = usize::from(args.app.is_some())
        + usize::from(args.micro.is_some())
        + usize::from(args.repro.is_some())
        + usize::from(args.flight.is_some());
    if sources > 1 {
        usage();
    }
    args
}

/// Replays a flight-recorder dump (`# cord-flight v1`): prints the failure
/// header, re-derives the metrics summary by replaying the retained events
/// through a fresh recorder, and echoes the tail of the merged stream.
fn replay_flight(path: &str, tail: usize) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2)
    });
    let dump = obs::parse_flight(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2)
    });
    let merged = dump.merged();
    let parts: std::collections::BTreeSet<u32> = merged.iter().map(|&(p, _)| p).collect();
    println!(
        "flight dump {path}: {} event(s) retained across {} partition(s)",
        merged.len(),
        parts.len().max(1)
    );
    println!("error: {}", dump.error);
    let mut tracer = Tracer::default();
    tracer.attach_metrics(MetricsRecorder::default());
    for (_, ev) in &merged {
        tracer.emit(ev.at, ev.data);
    }
    tracer.finish();
    if let Some(m) = tracer.take_metrics().map(|m| m.snapshot()) {
        println!("\n{}", m.render_text());
    }
    if tail > 0 {
        let skip = merged.len().saturating_sub(tail);
        println!("last {} trace events:", merged.len() - skip);
        for (part, ev) in merged.iter().skip(skip) {
            println!("  p{part} {}", render_event(ev));
        }
    }
}

fn main() {
    let mut args = parse_args();
    let mut run = RunConfig::from_env_or_exit();
    if args.repro.is_some() {
        // `CORD_FAULTS` must not leak into a repro replay; the file's own
        // spec (or an explicit `--faults`) is the only fault source.
        run.faults = None;
    }
    run.install();
    if let Some(path) = args.flight.clone() {
        replay_flight(&path, args.tail);
        return;
    }
    let (cfg, label, programs, fabric) = if let Some(path) = &args.repro {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2)
        });
        let repro = cord_fuzz::parse(&text).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2)
        });
        let sc = repro.scenario;
        let cfg = sc.config();
        let programs = sc.programs(&cfg);
        if args.faults.is_none() {
            args.faults = sc.faults.clone();
        }
        let fabric = if sc.upi { "upi" } else { "cxl" };
        (cfg, format!("repro {path}"), programs, fabric)
    } else {
        let cfg = config(args.proto, args.fabric, args.hosts, ConsistencyModel::Rc);
        let (label, programs) = match args.micro {
            Some((g, s, f)) => {
                let mb = MicroBench::new(g, s, f).with_iters(args.iters);
                (format!("micro {g},{s},{f}"), mb.programs(&cfg))
            }
            None => {
                let name = args.app.as_deref().unwrap_or("MOCFE");
                let mut app = AppSpec::by_name(name).unwrap_or_else(|| {
                    eprintln!("unknown application {name:?}");
                    std::process::exit(2)
                });
                app.iters = args.iters;
                (name.to_string(), app.programs(&cfg))
            }
        };
        (cfg, label, programs, args.fabric.label())
    };

    // With `--metrics-out` and no explicit `--out`, the Perfetto file is
    // skipped entirely — a metrics/series dump should not require one.
    let want_perfetto = args.metrics_out.is_none() || args.out_explicit;
    let writer = want_perfetto.then(|| {
        if let Some(dir) = std::path::Path::new(&args.out).parent() {
            if !dir.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(dir);
            }
        }
        ChromeTraceWriter::create(&args.out).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", args.out);
            std::process::exit(1)
        })
    });
    let tail = Shared::new(RingSink::new(args.tail.max(1)));

    let mut sys = System::new(cfg, programs);
    if let Some(spec) = &args.faults {
        // The flag wins over any CORD_FAULTS in the environment.
        sys.set_fault_spec(spec).unwrap_or_else(|e| {
            eprintln!("--faults {spec:?}: {e}");
            std::process::exit(2)
        });
    }
    match writer {
        Some(w) => sys.tracer_mut().install(Box::new(Tee {
            file: Box::new(w),
            tail: tail.clone(),
        })),
        None => sys.tracer_mut().install(Box::new(tail.clone())),
    }
    sys.tracer_mut().attach_metrics(MetricsRecorder::default());
    // `--metrics-out` implies sampling; an armed `CORD_OBS` still picks the
    // interval.
    if args.metrics_out.is_some() && sys.tracer_mut().sampler_mut().is_none() {
        sys.set_sampling(Some(Time::from_us(1)));
    }
    let proto = sys.config().protocol;
    let hosts = sys.config().noc.hosts;
    let r = match sys.try_run() {
        Ok(r) => r,
        Err(e) => {
            // A failing repro is a legitimate thing to trace: report the
            // structured error instead of panicking.
            eprintln!("{label}: run failed\n{e}");
            std::process::exit(1)
        }
    };

    println!(
        "{label} under {}/{fabric} x{hosts} hosts: makespan {:.3} us, {} DES events",
        proto.label(),
        r.makespan.as_us_f64(),
        r.events
    );
    if args.faults.is_some() {
        println!("traffic: {}", r.traffic);
    }
    match &r.metrics {
        Some(m) => println!("\n{}", m.render_text()),
        None => println!("(no metrics recorded)"),
    }
    if let Some(path) = &args.metrics_out {
        let set = r.obs.clone().unwrap_or_default();
        let json = obs::render_json(&set, r.metrics.as_ref());
        match obs::write_output(path, &json) {
            Ok(()) => println!("metrics + series written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1)
            }
        }
    }
    if args.tail > 0 {
        println!("last {} trace events:", tail.with(|s| s.len()));
        tail.with(|s| {
            for ev in s.events() {
                println!("  {}", render_event(ev));
            }
        });
    }
    if want_perfetto {
        println!(
            "\ntrace written to {} (open in https://ui.perfetto.dev)",
            args.out
        );
    }
}
