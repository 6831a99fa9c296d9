//! Scale-out bench: the causal-KV workload tier at 8 → 512 PUs over
//! data-driven fabrics, plus an 8-host engine cell, checked against an
//! exact record.
//!
//! Each KV cell runs [`cord_workloads::KvSpec`] — COPS-style client
//! sessions of Relaxed puts closed by a Release — on a host count and
//! fabric shape from the sweep (flat switch, CXL pods, fat-tree,
//! dragonfly), recording:
//!
//! * **events** (the engine's work) and simulated makespan;
//! * **per-PU table occupancy peaks** — processor-side CNT (store-counter)
//!   bytes and directory-side lookup-table/buffer bytes, the Fig. 11
//!   storage axes extended past the paper's 8 PUs;
//! * **notification fan-out** from the fabric's sparse per-pair flow
//!   accounting: total ReqNotify/Notify messages, how many host pairs
//!   carried them, and the hottest pair.
//!
//! Two blocks check the engines against each other. The identity block
//! reruns one 64-host cell through the sharded engine at 1/2/4/8 workers:
//! every worker count must produce a bit-identical run fingerprint, and
//! the monolithic engine must agree on the run's semantics (final
//! registers — its event accounting legitimately differs, see
//! `tests/sharded.rs`). The bulk cell runs 8 hosts of all-to-all bulk
//! stores through the monolithic engine and the sharded engine at 1/2/4/8
//! workers, whose fingerprints must all be equal.
//!
//! Every count lands in the exact record `results/records/scale-quick.txt`
//! (`--quick`, the CI sweep) or `results/records/scale.txt` (full), checked
//! by [`cord_bench::gate`]: any difference exits 1 and names the cell;
//! `CORD_UPDATE_GOLDEN=1` re-records. Wall time is the benchmark package's
//! business, not this bin's.
//!
//! `CORD_SCALE_CELLS=<hosts>[,<hosts>…]` restricts the KV sweep to the
//! named host counts (e.g. for profiling one cell with `CORD_PROFILE=1`); a
//! filtered sweep runs neither the identity block, nor the bulk cell, nor
//! the record check.
//!
//! Usage: `scale [--quick]`

use cord::{RunConfig, RunResult, System};
use cord_bench::{gate, print_table};
use cord_noc::{Fabric, NocConfig};
use cord_proto::{ConsistencyModel, Program, ProtocolKind, SystemConfig};
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
/// worker counts is the bit-identity proof kept in the record.
fn fingerprint(r: &RunResult) -> u64 {
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
    sessions: u64,
    events: u64,
    proc_cnt_peak: u64,
    dir_lut_peak: u64,
    dir_buf_peak: u64,
    notify_msgs: u64,
    notify_pairs: u64,
    /// The cell's exact record line.
    record: String,
}

fn run_cell(cell: &Cell, kv: &KvSpec) -> CellRow {
    let mut sys = build_system(cell.hosts, cell.fabric, kv);
    let r = sys.try_run().expect("scale cell run");
    let flows = r.pair_flows.as_deref().unwrap_or(&[]);
    let notify_msgs: u64 = flows.iter().map(|(_, _, f)| f.notify_msgs).sum();
    let notify_pairs = flows.iter().filter(|(_, _, f)| f.notify_msgs > 0).count() as u64;
    let notify_max_pair = flows
        .iter()
        .map(|(_, _, f)| f.notify_msgs)
        .max()
        .unwrap_or(0);
    let proc_cnt_peak = r
        .proc_storages
        .iter()
        .map(|s| s.peak_cnt_bytes)
        .max()
        .unwrap_or(0);
    let dir_lut_peak = r
        .dir_storages
        .iter()
        .map(|s| s.peak_lut_bytes)
        .max()
        .unwrap_or(0);
    let dir_buf_peak = r
        .dir_storages
        .iter()
        .map(|s| s.peak_buf_bytes)
        .max()
        .unwrap_or(0);
    let label = format!(
        "kv/{}PU/{}",
        cell.hosts,
        cell.fabric.split(' ').next().unwrap()
    );
    let sessions = kv.total_sessions(cell.hosts);
    let record = format!(
        "{label} hosts={} sessions={sessions} events={} makespan_ps={} \
         proc_cnt_peak={proc_cnt_peak} dir_lut_peak={dir_lut_peak} \
         dir_buf_peak={dir_buf_peak} notify_msgs={notify_msgs} \
         notify_pairs={notify_pairs} notify_max_pair={notify_max_pair} \
         fabric=\"{}\"",
        cell.hosts,
        r.events,
        r.makespan.as_ps(),
        cell.fabric
    );
    CellRow {
        label,
        sessions,
        events: r.events,
        proc_cnt_peak,
        dir_lut_peak,
        dir_buf_peak,
        notify_msgs,
        notify_pairs,
        record,
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
            "proc CNT B",
            "dir lut/buf B",
            "notifications",
        ],
        &table,
    );
}

/// All-to-all bulk-store workload on 8 hosts: every tile on every host
/// streams 64 B Relaxed stores to a rotating remote host and publishes
/// with a Release each iteration, so every partition of the sharded
/// engine stays busy.
fn bulk_system(iters: u32, workers: Option<usize>) -> System {
    let cfg = SystemConfig::cxl(ProtocolKind::Cord, 8).with_model(ConsistencyModel::Rc);
    let hosts = cfg.noc.hosts;
    let tph = cfg.noc.tiles_per_host;
    let mut programs = vec![Program::new(); cfg.total_tiles() as usize];
    for host in 0..hosts {
        for core in 0..tph {
            let tile = (host * tph + core) as usize;
            // Disjoint 8 KB region per source tile on each destination.
            let slot = tile as u64 * 16384;
            let mut b = Program::build();
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
    sys.set_sim_threads(workers);
    sys
}

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    RunConfig::from_env_or_exit().install();
    let quick = std::env::args().skip(1).any(|a| a == "--quick");

    // CORD_SCALE_CELLS=128,512 → only those host counts and no record
    // check: a partial sweep must never be compared to the full record.
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
    // Identity: one monolithic run plus one per worker count; bulk: the same.
    let engine_runs = if filtered { 0 } else { 2 * (1 + WORKERS.len()) };
    let prog = Progress::new("scale", (cells.len() + engine_runs) as u64);

    // -- Sweep -------------------------------------------------------------
    let mut rows = Vec::new();
    for cell in &cells {
        rows.push(run_cell(cell, &kv));
        prog.inc(1);
    }
    if filtered {
        prog.finish(&format!("scale: {} filtered cell(s)", rows.len()));
        print_sweep_table("Causal-KV scale sweep, filtered", &rows);
        println!("\nCORD_SCALE_CELLS filter active: no identity block, bulk cell or record check");
        return;
    }
    let mut record: Vec<String> = rows.iter().map(|r| r.record.clone()).collect();

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
    for workers in WORKERS {
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
    record.push(format!(
        "identity/{}PU/fattree workers={} fingerprint={:016x}",
        idn_cell.hosts,
        WORKERS.map(|w| w.to_string()).join(","),
        sharded_fp.expect("at least one identity run")
    ));

    // -- Bulk stores, monolithic vs sharded ---------------------------------
    let iters = if quick { 4 } else { 12 };
    let mut bulk = Vec::new();
    for workers in std::iter::once(None).chain(WORKERS.map(Some)) {
        let r = bulk_system(iters, workers)
            .try_run()
            .expect("bulk cell run");
        prog.inc(1);
        let engine = workers.map_or("monolithic".to_string(), |w| format!("sharded@{w}"));
        bulk.push((engine, r.events, fingerprint(&r)));
    }
    for (engine, _, fp) in &bulk[2..] {
        assert_eq!(*fp, bulk[1].2, "bulk {engine} diverged from sharded@1");
    }
    prog.finish(&format!(
        "scale: {} cell(s), identity ok at {}PU x {WORKERS:?} workers, bulk ok",
        rows.len(),
        idn_cell.hosts,
    ));

    // -- Tables --------------------------------------------------------------
    print_sweep_table("Causal-KV scale sweep", &rows);
    let table: Vec<Vec<String>> = bulk
        .iter()
        .map(|(engine, events, fp)| vec![engine.clone(), events.to_string(), format!("{fp:016x}")])
        .collect();
    print_table(
        &format!("8-host bulk stores, {iters} iteration(s) per tile"),
        &["engine", "events", "fingerprint"],
        &table,
    );
    record.extend(bulk.iter().map(|(engine, events, fp)| {
        format!("bulk/{engine} events={events} fingerprint={fp:016x}")
    }));

    // -- Exact record --------------------------------------------------------
    gate::enforce(if quick { "scale-quick" } else { "scale" }, record);
}
