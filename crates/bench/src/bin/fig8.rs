//! Figure 8: sensitivity to store granularity, synchronization granularity,
//! and communication fan-out (paper §5.3).
//!
//! Single-thread microbenchmark; execution time and traffic for MP and SO
//! normalized to CORD, over CXL and UPI. Fixed parameters follow the
//! figure's caption: 64 B stores, 4 KB synchronization, fan-out 1.

use cord_bench::{print_table, run_micro, Fabric};
use cord_proto::ProtocolKind;
use cord_sim::par::run_parallel;
use cord_workloads::MicroBench;

const SCHEMES: [ProtocolKind; 3] = [ProtocolKind::Cord, ProtocolKind::Mp, ProtocolKind::So];

fn sweep(title: &str, points: &[(String, MicroBench)]) {
    let runs: Vec<_> = Fabric::BOTH
        .iter()
        .flat_map(|&fabric| {
            points
                .iter()
                .flat_map(move |(_, mb)| SCHEMES.iter().map(move |&kind| (fabric, mb, kind)))
        })
        .collect();
    let mut results =
        run_parallel(&runs, |&(fabric, mb, kind)| run_micro(mb, kind, fabric)).into_iter();

    for fabric in Fabric::BOTH {
        let mut rows = Vec::new();
        for (label, _) in points {
            let cord = results.next().expect("CORD run");
            let mp = results.next().expect("MP run");
            let so = results.next().expect("SO run");
            let t0 = cord.completion().as_ns_f64();
            let b0 = cord.inter_bytes() as f64;
            rows.push(vec![
                label.clone(),
                format!("{:.1}", t0 / 1000.0),
                format!("{:.2}", mp.completion().as_ns_f64() / t0),
                format!("{:.2}", so.completion().as_ns_f64() / t0),
                format!("{:.0}", b0 / 1024.0),
                format!("{:.2}", mp.inter_bytes() as f64 / b0),
                format!("{:.2}", so.inter_bytes() as f64 / b0),
            ]);
        }
        print_table(
            &format!("Fig 8 ({}): {title} (normalized to CORD)", fabric.label()),
            &["x", "CORD us", "MP t", "SO t", "CORD KB", "MP b", "SO b"],
            &rows,
        );
    }
}

fn main() {
    cord::RunConfig::from_env_or_exit().install();
    // Store granularity sweep: 8 B – 4 KB (sync 4 KB, fanout 1).
    let store_points: Vec<(String, MicroBench)> = [8u32, 64, 256, 1024, 4096]
        .into_iter()
        .map(|g| (format!("{g}B"), MicroBench::new(g, 4096, 1).with_iters(32)))
        .collect();
    sweep("store granularity", &store_points);

    // Synchronization granularity sweep: 64 B – 2 MB (store 64 B, fanout 1).
    let sync_points: Vec<(String, MicroBench)> = [
        (64u64, 64u32),
        (512, 64),
        (4 << 10, 32),
        (32 << 10, 16),
        (256 << 10, 8),
        (2 << 20, 3),
    ]
    .into_iter()
    .map(|(s, iters)| {
        let label = if s >= 1 << 20 {
            format!("{}MB", s >> 20)
        } else if s >= 1024 {
            format!("{}KB", s >> 10)
        } else {
            format!("{s}B")
        };
        (label, MicroBench::new(64, s, 1).with_iters(iters))
    })
    .collect();
    sweep("synchronization granularity", &sync_points);

    // Communication fan-out sweep: 1 – 7 PUs (store 64 B, sync 4 KB).
    let fanout_points: Vec<(String, MicroBench)> = [1u32, 3, 7]
        .into_iter()
        .map(|f| {
            (
                format!("{f} PUs"),
                MicroBench::new(64, 4096, f).with_iters(32),
            )
        })
        .collect();
    sweep("communication fanout", &fanout_points);
}
