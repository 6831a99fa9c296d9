//! Ablation studies for CORD's design choices (beyond the paper's figures).
//!
//! 1. **Inter-directory notifications vs. source join**: replace each
//!    multi-directory Release store with a Release *fence* (processor joins
//!    on acknowledgments) followed by a Relaxed flag — the naive alternative
//!    §4.2's notifications avoid.
//! 2. **Unacknowledged-epoch table provisioning**: the §5.4 methodology —
//!    find the smallest table that avoids performance degradation.
//! 3. **Reserved header bits**: what Relaxed-store traffic would cost if
//!    CXL's reserved bits were unavailable for the epoch number.

use cord::{RunConfig, System};
use cord_bench::sweep::{run_recorded, Job};
use cord_bench::{config, print_table, Fabric};
use cord_proto::{ConsistencyModel, Op, Program, ProtocolKind, StoreOrd, SystemConfig};
use cord_workloads::{MicroBench, Region};

fn main() {
    RunConfig::from_env_or_exit().install();
    notifications_vs_source_join();
    table_provisioning();
    reserved_bits();
}

/// Fig. 5's claim, isolated: directory-to-directory notifications vs making
/// the processor join on fence acknowledgments before publishing.
fn notifications_vs_source_join() {
    let cfg0 = config(ProtocolKind::Cord, Fabric::Cxl, 8, ConsistencyModel::Rc);
    let fanout = 4u32;
    let iters = 16u32;
    let per_target = 4096u64 / fanout as u64;

    let build = |source_join: bool| -> Vec<Program> {
        let map = &cfg0.map;
        let mut ops: Vec<Op> = Vec::new();
        let regions: Vec<Region> = (1..=fanout).map(|h| Region::new(map, h, 0, 0)).collect();
        for iter in 0..iters {
            let mut k = iter as u64 * 64;
            for r in &regions {
                k = r.emit_stores(map, &mut ops, k, per_target, 64, iter as u64 + 1);
            }
            let flag = regions.last().unwrap().flag(map);
            if source_join {
                // Naive multi-directory publication: join at the source.
                ops.push(Op::Fence {
                    kind: cord_proto::FenceKind::Release,
                });
                ops.push(Op::Store {
                    addr: flag,
                    bytes: 8,
                    value: iter as u64 + 1,
                    ord: StoreOrd::Relaxed,
                });
            } else {
                // CORD: the Release rides the notification mechanism.
                ops.push(Op::Store {
                    addr: flag,
                    bytes: 8,
                    value: iter as u64 + 1,
                    ord: StoreOrd::Release,
                });
            }
        }
        let mut programs = vec![Program::new(); cfg0.total_tiles() as usize];
        programs[0] = Program::from_ops(ops);
        programs
    };

    let variants = [
        ("inter-directory notification", false),
        ("source join (fence)", true),
    ];
    let jobs: Vec<Job<_>> = variants
        .iter()
        .map(|&(label, source_join)| -> Job<_> {
            let cfg0 = &cfg0;
            let build = &build;
            (
                format!("ablate1/{label}"),
                Box::new(move || {
                    let mut cfg = cfg0.clone();
                    cfg.tables.proc_unacked = 64;
                    cfg.tables.dir_cnt_per_proc = 64;
                    cfg.tables.dir_noti_per_proc = 64;
                    System::new(cfg, build(source_join)).run()
                }),
            )
        })
        .collect();
    let results = run_recorded("ablate1", jobs, |r| r.completion().as_ns_f64());

    let mut rows = Vec::new();
    for ((label, _), r) in variants.iter().zip(results) {
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", r.completion().as_us_f64()),
            r.inter_bytes().to_string(),
            r.stall(cord_proto::StallCause::AckWait).to_string(),
        ]);
    }
    print_table(
        "Ablation 1: multi-directory Release publication (fanout 4, 4KB sync)",
        &["mechanism", "time us", "inter bytes", "source stall"],
        &rows,
    );
}

/// §5.4 methodology: the smallest unacked-epoch table with no degradation.
fn table_provisioning() {
    let mb = MicroBench::new(64, 512, 1).with_iters(64); // fine-grained syncs
    let mb = &mb;
    let sizes = [1usize, 2, 4, 8, 16, 32, 64];
    let jobs: Vec<Job<_>> = sizes
        .iter()
        .map(|&entries| -> Job<_> {
            (
                format!("ablate2/unacked{entries}"),
                Box::new(move || {
                    let mut cfg: SystemConfig =
                        config(ProtocolKind::Cord, Fabric::Cxl, 8, ConsistencyModel::Rc);
                    cfg.tables.proc_unacked = entries;
                    cfg.tables.dir_cnt_per_proc = entries.max(8);
                    cfg.tables.dir_noti_per_proc = entries.max(8);
                    let programs = mb.programs(&cfg);
                    System::new(cfg, programs).run()
                }),
            )
        })
        .collect();
    let times: Vec<f64> = run_recorded("ablate2", jobs, |r| r.completion().as_ns_f64())
        .into_iter()
        .map(|r| r.completion().as_us_f64())
        .collect();
    let best = times.iter().copied().fold(f64::MAX, f64::min);
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .zip(&times)
        .map(|(&entries, &t)| {
            vec![
                entries.to_string(),
                format!("{t:.2}"),
                format!("{:.2}", t / best),
                (entries as u64 * cord::PROC_UNACKED_ENTRY_BYTES).to_string(),
            ]
        })
        .collect();
    print_table(
        "Ablation 2: unacked-epoch table provisioning (512B syncs)",
        &["entries", "time us", "vs best", "table bytes"],
        &rows,
    );
}

/// What the 8-bit epoch would cost without CXL's free reserved header bits.
fn reserved_bits() {
    let mb = MicroBench::new(8, 4096, 1).with_iters(16); // word-granularity stores
    let mb = &mb;
    let variants = [8u8, 0];
    let jobs: Vec<Job<_>> = variants
        .iter()
        .map(|&reserved| -> Job<_> {
            (
                format!("ablate3/reserved{reserved}"),
                Box::new(move || {
                    let mut cfg = config(ProtocolKind::Cord, Fabric::Cxl, 8, ConsistencyModel::Rc);
                    cfg.widths.reserved_bits = reserved;
                    cfg.tables.proc_unacked = 64;
                    let programs = mb.programs(&cfg);
                    System::new(cfg, programs).run()
                }),
            )
        })
        .collect();
    let results = run_recorded("ablate3", jobs, |r| r.completion().as_ns_f64());

    let mut rows = Vec::new();
    for (&reserved, r) in variants.iter().zip(results) {
        rows.push(vec![
            reserved.to_string(),
            r.inter_bytes().to_string(),
            format!("{:.2}", r.completion().as_us_f64()),
        ]);
    }
    print_table(
        "Ablation 3: reserved header bits for the epoch (8B stores)",
        &["reserved bits", "inter bytes", "time us"],
        &rows,
    );
}
