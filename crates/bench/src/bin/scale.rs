//! Scale-out bench: the causal-KV workload tier at 8 → 512 PUs over
//! data-driven fabrics, with a throughput regression gate.
//!
//! Each cell runs [`cord_workloads::KvSpec`] — COPS-style client sessions
//! of Relaxed puts closed by a Release — on a host count and fabric shape
//! from the sweep (flat switch, CXL pods, fat-tree, dragonfly), recording:
//!
//! * **events/sec** (engine throughput) and simulated makespan;
//! * **per-PU table occupancy peaks** — processor-side CNT (store-counter)
//!   bytes and directory-side lookup-table/buffer bytes, the Fig. 11
//!   storage axes extended past the paper's 8 PUs;
//! * **notification fan-out** from the fabric's sparse per-pair flow
//!   accounting: total ReqNotify/Notify messages, how many host pairs
//!   carried them, and the hottest pair.
//!
//! A separate identity block reruns one 64-host cell through the sharded
//! engine at 1/2/4/8 workers: every worker count must produce a
//! bit-identical run fingerprint, and the monolithic engine must agree on
//! the run's semantics (final registers — its event accounting legitimately
//! differs, see `tests/sharded.rs`).
//!
//! Results go to `results/BENCH_scale.json` (`--out PATH` overrides) as a
//! two-record array (one `--quick` line for CI, one full line for local
//! runs). Unless `--no-compare` is given, events/sec are compared against
//! the committed baseline (`CORD_SCALE_BASELINE` overrides the path) and the
//! run fails on a regression larger than [`cord_bench::gate::TOLERANCE`]
//! (20%). Baselines recorded on a different core count are warned about and
//! skipped, never gated.
//!
//! `CORD_SCALE_CELLS=<hosts>[,<hosts>…]` restricts the sweep to the named
//! host counts (e.g. for profiling one cell with `CORD_PROFILE=1`); a
//! filtered sweep skips the identity block, the record write, and the gate.
//!
//! Usage: `scale [--quick] [--out PATH] [--no-compare]`

use std::time::Instant;

use cord::{RunConfig, System};
use cord_bench::{gate, print_table};
use cord_noc::{Fabric, NocConfig};
use cord_proto::{ConsistencyModel, ProtocolKind, SystemConfig};
use cord_sim::obs::Progress;
use cord_workloads::KvSpec;

/// One sweep point: host count plus a fabric in the canonical grammar
/// (`flat` | `pods …` | `fattree …` | `dragonfly …`).
struct Cell {
    hosts: u32,
    fabric: &'static str,
}

/// The CI sweep: small enough for a container, still crossing all three
/// data-driven fabric families.
const QUICK_CELLS: [Cell; 3] = [
    Cell {
        hosts: 8,
        fabric: "flat",
    },
    Cell {
        hosts: 32,
        fabric: "fattree 4 2 40 120 400",
    },
    Cell {
        hosts: 64,
        fabric: "dragonfly 8 50 400",
    },
];

/// The full sweep, 8 → 512 PUs (the tentpole's Fig. 11 extension range).
const FULL_CELLS: [Cell; 6] = [
    Cell {
        hosts: 8,
        fabric: "flat",
    },
    Cell {
        hosts: 32,
        fabric: "pods 8 200 600",
    },
    Cell {
        hosts: 64,
        fabric: "fattree 8 2 40 120 400",
    },
    Cell {
        hosts: 128,
        fabric: "dragonfly 16 50 400",
    },
    Cell {
        hosts: 256,
        fabric: "fattree 8 4 40 120 400",
    },
    Cell {
        hosts: 512,
        fabric: "dragonfly 16 50 400",
    },
];

fn kv_spec(quick: bool) -> KvSpec {
    if quick {
        KvSpec {
            clients_per_host: 2,
            sessions: 4,
            puts_per_session: 2,
            value_bytes: 8,
            keyspace: 1 << 16,
            seed: 1,
        }
    } else {
        KvSpec::scale()
    }
}

fn build_system(hosts: u32, fabric: &str, kv: &KvSpec) -> System {
    let fabric = Fabric::parse(fabric).expect("sweep fabric grammar");
    let noc = NocConfig::cxl(hosts, 8).with_fabric(fabric);
    let cfg = SystemConfig::with_noc(ProtocolKind::Cord, noc).with_model(ConsistencyModel::Rc);
    let programs = kv.programs(&cfg);
    let mut sys = System::new(cfg, programs);
    sys.set_sim_threads(None);
    sys.set_pair_accounting(true);
    sys
}

/// FNV-1a over the observable run outcome; equality across engines and
/// worker counts is the bit-identity proof recorded in the JSON.
fn fingerprint(r: &cord::RunResult) -> u64 {
    let mut stalls: Vec<_> = r.stalls.iter().map(|(c, t)| format!("{c:?}={t}")).collect();
    stalls.sort();
    let text = format!(
        "{} {} {} {} {:?} {:?} {:?} {:?}",
        r.makespan, r.drained, r.events, r.polls, r.regs, stalls, r.traffic, r.pair_flows
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct CellRow {
    label: String,
    hosts: u32,
    fabric: String,
    sessions: u64,
    events: u64,
    wall_ms: f64,
    events_per_sec: f64,
    makespan_ns: f64,
    proc_cnt_peak: u64,
    dir_lut_peak: u64,
    dir_buf_peak: u64,
    notify_msgs: u64,
    notify_pairs: u64,
    notify_max_pair: u64,
}

fn run_cell(cell: &Cell, kv: &KvSpec) -> CellRow {
    let mut sys = build_system(cell.hosts, cell.fabric, kv);
    let start = Instant::now();
    let r = sys.try_run().expect("scale cell run");
    let wall = start.elapsed().as_secs_f64();
    let flows = r.pair_flows.as_deref().unwrap_or(&[]);
    let notify_msgs: u64 = flows.iter().map(|(_, _, f)| f.notify_msgs).sum();
    let notify_pairs = flows.iter().filter(|(_, _, f)| f.notify_msgs > 0).count() as u64;
    let notify_max_pair = flows
        .iter()
        .map(|(_, _, f)| f.notify_msgs)
        .max()
        .unwrap_or(0);
    CellRow {
        label: format!(
            "kv/{}PU/{}",
            cell.hosts,
            cell.fabric.split(' ').next().unwrap()
        ),
        hosts: cell.hosts,
        fabric: cell.fabric.to_string(),
        sessions: kv.total_sessions(cell.hosts),
        events: r.events,
        wall_ms: wall * 1e3,
        events_per_sec: r.events as f64 / wall,
        makespan_ns: r.makespan.as_ns_f64(),
        proc_cnt_peak: r
            .proc_storages
            .iter()
            .map(|s| s.peak_cnt_bytes)
            .max()
            .unwrap_or(0),
        dir_lut_peak: r
            .dir_storages
            .iter()
            .map(|s| s.peak_lut_bytes)
            .max()
            .unwrap_or(0),
        dir_buf_peak: r
            .dir_storages
            .iter()
            .map(|s| s.peak_buf_bytes)
            .max()
            .unwrap_or(0),
        notify_msgs,
        notify_pairs,
        notify_max_pair,
    }
}

fn print_sweep_table(title: &str, rows: &[CellRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.sessions.to_string(),
                r.events.to_string(),
                format!("{:.2}M", r.events_per_sec / 1e6),
                r.proc_cnt_peak.to_string(),
                format!("{}/{}", r.dir_lut_peak, r.dir_buf_peak),
                format!("{} over {} pairs", r.notify_msgs, r.notify_pairs),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "cell",
            "sessions",
            "events",
            "events/sec",
            "proc CNT B",
            "dir lut/buf B",
            "notifications",
        ],
        &table,
    );
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
        .unwrap_or_else(|| "results/BENCH_scale.json".into());
    // Read the committed baseline *before* this run overwrites it.
    let baseline = gate::Baseline::load(
        no_compare,
        "CORD_SCALE_BASELINE",
        "results/BENCH_scale.json",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // CORD_SCALE_CELLS=128,512 → only those host counts, no record/gate
    // (partial sweeps must never clobber or be compared to the full record).
    let only: Option<Vec<u32>> = std::env::var("CORD_SCALE_CELLS")
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect());
    let all: &[Cell] = if quick { &QUICK_CELLS } else { &FULL_CELLS };
    let cells: Vec<&Cell> = all
        .iter()
        .filter(|c| only.as_ref().is_none_or(|o| o.contains(&c.hosts)))
        .collect();
    let filtered = only.is_some();
    let kv = kv_spec(quick);
    const IDENTITY_WORKERS: [usize; 4] = [1, 2, 4, 8];
    let identity_runs = if filtered {
        0
    } else {
        1 + IDENTITY_WORKERS.len()
    };
    let prog = Progress::new("scale", (cells.len() + identity_runs) as u64);

    // -- Sweep -------------------------------------------------------------
    let mut rows = Vec::new();
    for cell in &cells {
        rows.push(run_cell(cell, &kv));
        prog.inc(1);
    }
    if filtered {
        prog.finish(&format!("scale: {} filtered cell(s)", rows.len()));
        print_sweep_table(
            &format!("Causal-KV scale sweep, filtered ({cores} core(s))"),
            &rows,
        );
        println!("\nCORD_SCALE_CELLS filter active: identity, record and gate skipped");
        return;
    }

    // -- Sharded bit-identity at 64 hosts ----------------------------------
    // Always the quick KV spec: the point is engine identity, not volume.
    // The sharded runs must be bit-identical to each other at every worker
    // count; the monolithic engine must agree on the run's *semantics*
    // (final register observations) — its event accounting legitimately
    // differs (cross-host sends split into egress + port-arrival events).
    let idn_cell = Cell {
        hosts: 64,
        fabric: "fattree 8 2 40 120 400",
    };
    let idn_kv = kv_spec(true);
    let mono_regs = {
        let mut sys = build_system(idn_cell.hosts, idn_cell.fabric, &idn_kv);
        let r = sys.try_run().expect("identity monolithic run");
        prog.inc(1);
        r.regs
    };
    let mut sharded_fp: Option<u64> = None;
    for workers in IDENTITY_WORKERS {
        let mut sys = build_system(idn_cell.hosts, idn_cell.fabric, &idn_kv);
        sys.set_sim_threads(Some(workers));
        let r = sys.try_run().expect("identity sharded run");
        prog.inc(1);
        assert_eq!(
            r.regs, mono_regs,
            "sharded observations at {workers} workers diverged from monolithic"
        );
        let fp = fingerprint(&r);
        match sharded_fp {
            None => sharded_fp = Some(fp),
            Some(base) => assert_eq!(
                fp, base,
                "sharded run at {workers} workers diverged from 1 worker"
            ),
        }
    }
    let mono = sharded_fp.expect("at least one identity run");
    prog.finish(&format!(
        "scale: {} cell(s), identity ok at {}PU x {:?} workers",
        rows.len(),
        idn_cell.hosts,
        IDENTITY_WORKERS
    ));

    // -- Table -------------------------------------------------------------
    print_sweep_table(&format!("Causal-KV scale sweep ({cores} core(s))"), &rows);

    // -- JSON record -------------------------------------------------------
    let mut entries: Vec<(String, f64)> = Vec::new();
    let mut json = format!("{{\"bench\":\"scale\",\"quick\":{quick},\"cores\":{cores},\"cells\":[");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "{{\"label\":\"{}\",\"hosts\":{},\"fabric\":\"{}\",\"sessions\":{},\
             \"events\":{},\"wall_ms\":{:.3},\"per_sec\":{:.0},\"makespan_ns\":{:.1},\
             \"proc_cnt_peak\":{},\"dir_lut_peak\":{},\"dir_buf_peak\":{},\
             \"notify_msgs\":{},\"notify_pairs\":{},\"notify_max_pair\":{}}}{}",
            json_escape(&r.label),
            r.hosts,
            json_escape(&r.fabric),
            r.sessions,
            r.events,
            r.wall_ms,
            r.events_per_sec,
            r.makespan_ns,
            r.proc_cnt_peak,
            r.dir_lut_peak,
            r.dir_buf_peak,
            r.notify_msgs,
            r.notify_pairs,
            r.notify_max_pair,
            if i + 1 < rows.len() { "," } else { "" }
        ));
        entries.push((r.label.clone(), r.events_per_sec));
    }
    let total_sessions: u64 = rows.iter().map(|r| r.sessions).sum();
    json.push_str(&format!(
        "],\"identity\":{{\"hosts\":{},\"workers\":{:?},\"fingerprint\":\"{:016x}\"}},\
         \"total_sessions\":{}}}",
        idn_cell.hosts, IDENTITY_WORKERS, mono, total_sessions
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

    // -- Regression gate ---------------------------------------------------
    if let Some(base) = &baseline {
        gate::enforce(base, quick, cores, &entries, |_| true);
    }
}
