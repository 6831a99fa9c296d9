//! Figure 9: impact of inter-PU directory access latency (paper §5.3).
//!
//! SO's execution time and traffic normalized to CORD as the inter-host
//! latency sweeps 100–400 ns, under three application-parameter families
//! (store granularity, synchronization granularity, communication fan-out).

use cord_bench::{print_table, run_micro_latency};
use cord_proto::ProtocolKind;
use cord_sim::par::run_parallel;
use cord_workloads::MicroBench;

const LATENCIES_NS: [u64; 4] = [100, 200, 300, 400];

fn sweep(title: &str, variants: &[(String, MicroBench)]) {
    let runs: Vec<_> = variants
        .iter()
        .flat_map(|(_, mb)| {
            LATENCIES_NS.iter().flat_map(move |&lat| {
                [ProtocolKind::Cord, ProtocolKind::So]
                    .into_iter()
                    .map(move |kind| (mb, kind, lat))
            })
        })
        .collect();
    let mut results =
        run_parallel(&runs, |&(mb, kind, lat)| run_micro_latency(mb, kind, lat)).into_iter();

    let mut rows = Vec::new();
    for (label, _) in variants {
        for lat in LATENCIES_NS {
            let cord = results.next().expect("CORD run");
            let so = results.next().expect("SO run");
            rows.push(vec![
                label.clone(),
                format!("{lat}"),
                format!(
                    "{:.2}",
                    so.completion().as_ns_f64() / cord.completion().as_ns_f64()
                ),
                format!("{:.2}", so.inter_bytes() as f64 / cord.inter_bytes() as f64),
            ]);
        }
    }
    print_table(
        &format!("Fig 9: SO normalized to CORD vs inter-PU latency — {title}"),
        &[
            "variant",
            "latency ns",
            "SO time / CORD",
            "SO traffic / CORD",
        ],
        &rows,
    );
}

fn main() {
    cord::RunConfig::from_env_or_exit().install();
    // Store granularity variants (sync 4 KB, fanout 1).
    let stores: Vec<(String, MicroBench)> = [8u32, 64, 4096]
        .into_iter()
        .map(|g| {
            (
                format!("store {g}B"),
                MicroBench::new(g, 4096, 1).with_iters(32),
            )
        })
        .collect();
    sweep("store granularity", &stores);

    // Sync granularity variants (store 64 B, fanout 1).
    let syncs: Vec<(String, MicroBench)> = [(64u64, 64u32), (4 << 10, 32), (256 << 10, 8)]
        .into_iter()
        .map(|(s, it)| {
            (
                format!("sync {s}B"),
                MicroBench::new(64, s, 1).with_iters(it),
            )
        })
        .collect();
    sweep("synchronization granularity", &syncs);

    // Fan-out variants (store 64 B, sync 4 KB).
    let fans: Vec<(String, MicroBench)> = [1u32, 3, 7]
        .into_iter()
        .map(|f| {
            (
                format!("fanout {f}"),
                MicroBench::new(64, 4096, f).with_iters(32),
            )
        })
        .collect();
    sweep("communication fanout", &fans);
}
