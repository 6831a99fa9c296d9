//! DES engine speed: calendar-queue microbenchmarks and the sharded
//! engine's worker-scaling curve.
//!
//! Two proof obligations for the intra-run speed work land here:
//!
//! 1. **Queue ops** — the calendar [`cord_sim::EventQueue`] versus an
//!    inline binary-heap reference on the three shapes a DES queue sees:
//!    the classic *hold* model (uniform reschedule), *burst* (many
//!    same-timestamp events drained with `pop_if_at`), and *far* (a tail of
//!    long-delay timers exercising the overflow rung). Reported as ops/sec
//!    with a per-batch ns/op histogram summary.
//! 2. **Scaling** — one 8-host store-heavy microbenchmark through the
//!    monolithic engine and through the sharded engine at 1/2/4/8 workers,
//!    asserting the run fingerprint is bit-identical at every worker count
//!    and recording events/sec for each point.
//!
//! Results go to `results/BENCH_despeed.json` (`--out PATH` overrides).
//! Unless `--no-compare` is given, the run compares its events/sec against
//! the committed baseline at `results/BENCH_despeed.json` (override path
//! with `CORD_DESPEED_BASELINE`) and fails on a regression larger than
//! [`cord_bench::gate::TOLERANCE`] (20%, compared per entry on the matching
//! `--quick`/full key).
//!
//! Usage: `despeed [--quick] [--out PATH] [--no-compare]` — `--quick`
//! shrinks op counts and the workload so CI finishes in seconds.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use cord::{RunConfig, System};
use cord_bench::{gate, print_table};
use cord_proto::{ConsistencyModel, ProtocolKind, SystemConfig};
use cord_sim::obs::Progress;
use cord_sim::{DetRng, EventQueue, Time};

/// Binary-heap reference queue: the exact shape `EventQueue` had before
/// the calendar rewrite — payloads inline in the heap entries, ordered by
/// `(time, insertion seq)`, with a cached head time for `pop_if_at`.
struct HeapEntry<E> {
    time: Time,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<HeapEntry<E>>>,
    head: Option<Time>,
    next_seq: u64,
    now: Time,
}

impl<E> HeapQueue<E> {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            head: None,
            next_seq: 0,
            now: Time::ZERO,
        }
    }

    fn push(&mut self, at: Time, payload: E) {
        assert!(at >= self.now, "event scheduled in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(HeapEntry {
            time: at,
            seq,
            payload,
        }));
        if self.head.map(|h| at < h).unwrap_or(true) {
            self.head = Some(at);
        }
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.time;
        self.head = self.heap.peek().map(|Reverse(n)| n.time);
        Some((e.time, e.payload))
    }

    fn pop_if_at(&mut self, at: Time) -> Option<E> {
        if self.head == Some(at) {
            self.pop().map(|(_, e)| e)
        } else {
            None
        }
    }
}

/// One queue workload over an abstract push/pop interface, returning the
/// number of operations performed. The *hold* model keeps `resident`
/// events in flight and reschedules each pop.
fn drive<Q>(
    workload: &str,
    ops: u64,
    resident: u64,
    push: &mut dyn FnMut(&mut Q, Time, u32),
    pop: &mut dyn FnMut(&mut Q) -> Option<(Time, u32)>,
    pop_at: &mut dyn FnMut(&mut Q, Time) -> Option<u32>,
    q: &mut Q,
) -> u64 {
    let mut rng = DetRng::new(0xDE5_0BEE ^ resident);
    let mut done = 0u64;
    for i in 0..resident {
        push(q, Time::from_ns(1 + i % 64), i as u32);
        done += 1;
    }
    while done < ops {
        let (now, _) = pop(q).expect("hold model never drains");
        done += 1;
        match workload {
            "uniform" => {
                push(q, now + Time::from_ns(1 + rng.range_u64(0..1000)), 0);
                done += 1;
            }
            "burst" => {
                // One pop fans out into a same-time burst, then the burst
                // is drained at its timestamp (the runner's `pop_if_at`
                // pattern).
                let at = now + Time::from_ns(1 + rng.range_u64(0..200));
                let fan = 1 + rng.range_u64(0..6);
                for _ in 0..fan {
                    push(q, at, 1);
                    done += 1;
                }
                while pop_at(q, now).is_some() {
                    done += 1;
                }
            }
            "far" => {
                // 2% of reschedules are far timers (retransmission RTOs).
                let delay = if rng.range_u64(0..50) == 0 {
                    Time::from_us(1 + rng.range_u64(0..3))
                } else {
                    Time::from_ns(1 + rng.range_u64(0..500))
                };
                push(q, now + delay, 2);
                done += 1;
            }
            other => panic!("unknown workload {other}"),
        }
    }
    done
}

struct QueueRow {
    workload: &'static str,
    imp: &'static str,
    ops: u64,
    ops_per_sec: f64,
    batch_ns_min: f64,
    batch_ns_p50: f64,
    batch_ns_max: f64,
}

/// Runs one (workload, implementation) cell over `batches` fresh queues
/// and summarizes per-batch ns/op.
fn queue_cell(workload: &'static str, imp: &'static str, ops: u64, batches: usize) -> QueueRow {
    let resident = 4096.min(ops / 4).max(16);
    let mut per_batch = Vec::with_capacity(batches);
    let mut total_ops = 0u64;
    let mut total_secs = 0f64;
    for _ in 0..batches {
        let start = Instant::now();
        let done = match imp {
            "calendar" => {
                let mut q = EventQueue::<u32>::with_capacity(resident as usize);
                drive(
                    workload,
                    ops,
                    resident,
                    &mut |q: &mut EventQueue<u32>, t, e| q.push(t, e),
                    &mut |q| q.pop(),
                    &mut |q, t| q.pop_if_at(t),
                    &mut q,
                )
            }
            "heap" => {
                let mut q = HeapQueue::<u32>::new();
                drive(
                    workload,
                    ops,
                    resident,
                    &mut |q: &mut HeapQueue<u32>, t, e| q.push(t, e),
                    &mut |q| q.pop(),
                    &mut |q, t| q.pop_if_at(t),
                    &mut q,
                )
            }
            other => panic!("unknown impl {other}"),
        };
        let secs = start.elapsed().as_secs_f64();
        per_batch.push(secs * 1e9 / done as f64);
        total_ops += done;
        total_secs += secs;
    }
    per_batch.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    QueueRow {
        workload,
        imp,
        ops: total_ops,
        ops_per_sec: total_ops as f64 / total_secs,
        batch_ns_min: per_batch[0],
        batch_ns_p50: per_batch[per_batch.len() / 2],
        batch_ns_max: per_batch[per_batch.len() - 1],
    }
}

/// FNV-1a over the observable run outcome; equality across worker counts
/// is the bit-identity proof recorded in the JSON.
fn fingerprint(r: &cord::RunResult) -> u64 {
    let mut stalls: Vec<_> = r.stalls.iter().map(|(c, t)| format!("{c:?}={t}")).collect();
    stalls.sort();
    let text = format!(
        "{} {} {} {} {:?} {:?} {:?}",
        r.makespan, r.drained, r.events, r.polls, r.regs, stalls, r.traffic
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct ScaleRow {
    engine: String,
    workers: usize,
    events: u64,
    wall_ms: f64,
    events_per_sec: f64,
    fp: u64,
}

/// All-to-all bulk-store workload: every tile on every host streams
/// 64 B Relaxed stores to a rotating remote host and publishes with a
/// Release each iteration. Unlike `MicroBench` (host 0 tile 0 only),
/// this keeps every partition busy, which is what a scaling curve needs.
fn scale_system(iters: u32) -> System {
    let cfg = SystemConfig::cxl(ProtocolKind::Cord, 8).with_model(ConsistencyModel::Rc);
    let hosts = cfg.noc.hosts;
    let tph = cfg.noc.tiles_per_host;
    let mut programs = vec![cord_proto::Program::new(); cfg.total_tiles() as usize];
    for host in 0..hosts {
        for core in 0..tph {
            let tile = (host * tph + core) as usize;
            // Disjoint 8 KB region per source tile on each destination.
            let slot = tile as u64 * 16384;
            let mut b = cord_proto::Program::build();
            for iter in 0..iters {
                let dst = (host + 1 + (core + iter) % (hosts - 1)) % hosts;
                let data = cfg.map.addr_on_host(dst, slot);
                let flag = cfg.map.addr_on_host(dst, slot + 8192);
                b = b
                    .bulk_store(data, 8192, 64, iter as u64 + 1)
                    .store_release(flag, iter as u64 + 1);
            }
            programs[tile] = b.finish();
        }
    }
    let mut sys = System::new(cfg, programs);
    sys.set_sim_threads(None);
    sys
}

fn scale_cell(iters: u32, workers: Option<usize>, reps: u32) -> ScaleRow {
    let mut best: Option<ScaleRow> = None;
    for _ in 0..reps {
        let mut sys = scale_system(iters);
        sys.set_sim_threads(workers);
        let start = Instant::now();
        let r = sys.try_run().expect("scale run");
        let wall = start.elapsed().as_secs_f64();
        let row = ScaleRow {
            engine: if workers.is_some() {
                "sharded".into()
            } else {
                "monolithic".into()
            },
            workers: workers.unwrap_or(0),
            events: r.events,
            wall_ms: wall * 1e3,
            events_per_sec: r.events as f64 / wall,
            fp: fingerprint(&r),
        };
        if best
            .as_ref()
            .map(|b| row.wall_ms < b.wall_ms)
            .unwrap_or(true)
        {
            best = Some(row);
        }
    }
    best.expect("reps >= 1")
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    RunConfig::from_env_or_exit().install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_compare = args.iter().any(|a| a == "--no-compare");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_despeed.json".into());
    // Read the committed baseline *before* this run overwrites it.
    let baseline = gate::Baseline::load(
        no_compare,
        "CORD_DESPEED_BASELINE",
        "results/BENCH_despeed.json",
    );

    let (ops, batches) = if quick { (200_000, 3) } else { (2_000_000, 7) };
    // Workers beyond the machine's cores can't speed anything up (and the
    // round barriers actively hurt); the recorded curve says how many
    // cores the numbers were taken on.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (iters, reps) = if quick { (4, 1) } else { (12, 3) };

    // 6 queue cells, 5 scaling cells, 1 profiled run.
    let prog = Progress::new("despeed", 12);

    // -- Queue microbenchmarks --------------------------------------------
    let mut qrows = Vec::new();
    for workload in ["uniform", "burst", "far"] {
        for imp in ["heap", "calendar"] {
            qrows.push(queue_cell(workload, imp, ops, batches));
            prog.inc(1);
        }
    }
    let mut table = Vec::new();
    for row in &qrows {
        table.push(vec![
            format!("{}/{}", row.workload, row.imp),
            format!("{:.1}M", row.ops_per_sec / 1e6),
            format!(
                "{:.1}/{:.1}/{:.1}",
                row.batch_ns_min, row.batch_ns_p50, row.batch_ns_max
            ),
        ]);
    }
    print_table(
        "Queue ops (hold model)",
        &["workload/impl", "ops/sec", "ns/op min/p50/max"],
        &table,
    );

    // -- Engine scaling ---------------------------------------------------
    let mut srows = vec![scale_cell(iters, None, reps)];
    prog.inc(1);
    for workers in [1usize, 2, 4, 8] {
        srows.push(scale_cell(iters, Some(workers), reps));
        prog.inc(1);
    }
    // One extra self-profiled sharded run for the record. It is deliberately
    // not one of the measured cells: the per-event wall-clock timers perturb
    // events/sec, so the profile rides the JSON as a separate,
    // non-deterministic annotation that the regression gate never reads
    // (its rows use "class"/"ns", not "label"/"per_sec").
    let profile = {
        let mut sys = scale_system(iters);
        sys.set_sim_threads(Some(cores.min(4)));
        sys.set_profiling(true);
        let r = sys.try_run().expect("profile run");
        prog.inc(1);
        r.profile.expect("profiling was enabled")
    };
    prog.finish(&format!(
        "despeed: {} queue cell(s), {} scaling cell(s), 1 profiled run",
        qrows.len(),
        srows.len()
    ));
    let sharded: Vec<&ScaleRow> = srows.iter().filter(|r| r.engine == "sharded").collect();
    for r in &sharded[1..] {
        assert_eq!(
            sharded[0].fp, r.fp,
            "sharded run diverged between 1 and {} workers",
            r.workers
        );
    }
    let base_eps = sharded[0].events_per_sec;
    let mut table = Vec::new();
    for row in &srows {
        let speedup = if row.engine == "sharded" {
            format!("{:.2}x", row.events_per_sec / base_eps)
        } else {
            "-".into()
        };
        table.push(vec![
            format!(
                "{}{}",
                row.engine,
                if row.workers > 0 {
                    format!("@{}", row.workers)
                } else {
                    String::new()
                }
            ),
            format!("{}", row.events),
            format!("{:.1}", row.wall_ms),
            format!("{:.2}M", row.events_per_sec / 1e6),
            speedup,
            format!("{:016x}", row.fp),
        ]);
    }
    print_table(
        &format!("8-host microbenchmark, engine scaling ({cores} core(s))"),
        &[
            "engine",
            "events",
            "wall (ms)",
            "events/sec",
            "vs 1 worker",
            "fingerprint",
        ],
        &table,
    );

    // -- JSON record ------------------------------------------------------
    // One single-line record per mode; the file is a two-element array so a
    // `--quick` CI run and a full local run each update their own entry
    // without clobbering the other's baseline.
    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut json =
        format!("{{\"bench\":\"despeed\",\"quick\":{quick},\"cores\":{cores},\"queue\":[");
    for (i, row) in qrows.iter().enumerate() {
        let label = format!("queue/{}/{}", row.workload, row.imp);
        json.push_str(&format!(
            "{{\"label\":\"{}\",\"ops\":{},\"per_sec\":{:.0},\
             \"batch_ns\":{{\"min\":{:.2},\"p50\":{:.2},\"max\":{:.2}}}}}{}",
            json_escape(&label),
            row.ops,
            row.ops_per_sec,
            row.batch_ns_min,
            row.batch_ns_p50,
            row.batch_ns_max,
            if i + 1 < qrows.len() { "," } else { "" }
        ));
        entries.push((label, row.ops_per_sec));
    }
    json.push_str("],\"scaling\":[");
    for (i, row) in srows.iter().enumerate() {
        let label = if row.workers > 0 {
            format!("scale/{}@{}", row.engine, row.workers)
        } else {
            format!("scale/{}", row.engine)
        };
        json.push_str(&format!(
            "{{\"label\":\"{}\",\"workers\":{},\"events\":{},\"wall_ms\":{:.3},\
             \"per_sec\":{:.0},\"fingerprint\":\"{:016x}\"}}{}",
            json_escape(&label),
            row.workers,
            row.events,
            row.wall_ms,
            row.events_per_sec,
            row.fp,
            if i + 1 < srows.len() { "," } else { "" }
        ));
        entries.push((label, row.events_per_sec));
    }
    let best = sharded
        .iter()
        .map(|r| r.events_per_sec)
        .fold(0f64, f64::max);
    json.push_str(&format!(
        "],\"speedup_best_vs_1\":{:.3},\"best_events_per_sec\":{:.0},\"profile\":{}}}",
        best / base_eps,
        best,
        profile.to_json()
    ));
    // Preserve the other mode's record, keeping quick-then-full order.
    let other_tag = format!("\"quick\":{}", !quick);
    let other = std::fs::read_to_string(&out)
        .ok()
        .and_then(|old| {
            old.lines()
                .find(|l| l.contains(&other_tag))
                .map(str::to_string)
        })
        .map(|l| l.trim_end_matches(',').to_string());
    let records: Vec<String> = if quick {
        [Some(json), other].into_iter().flatten().collect()
    } else {
        [other, Some(json)].into_iter().flatten().collect()
    };
    let file = format!("[\n{}\n]\n", records.join(",\n"));
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    std::fs::write(&out, &file).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("\nrecord written to {out}");

    // -- Regression gate --------------------------------------------------
    if let Some(base) = &baseline {
        // Multi-worker points are scheduler-noisy on small CI machines
        // (workers can exceed cores); gate only the stable single-threaded
        // entries.
        gate::enforce(base, quick, cores, &entries, |label| {
            label.starts_with("queue/") || label == "scale/monolithic" || label == "scale/sharded@1"
        });
    }
}
