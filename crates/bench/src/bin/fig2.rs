//! Figure 2: source ordering's acknowledgment overheads (paper §3.1).
//!
//! For each Table 2 application over CXL and UPI, reports the percentage of
//! execution time the source-ordered baseline spends waiting for
//! write-through acknowledgments, and the percentage of inter-PU traffic the
//! acknowledgments themselves consume.

use cord_bench::sweep::{run_recorded_with, Job};
use cord_bench::{print_table, run_app, Fabric};
use cord_noc::MsgClass;
use cord_proto::{ConsistencyModel, ProtocolKind, StallCause};
use cord_workloads::table2_apps;

fn main() {
    cord::RunConfig::from_env_or_exit().install();
    let apps: Vec<_> = table2_apps()
        .into_iter()
        .filter(|a| a.name != "ATA")
        .collect();
    let jobs: Vec<Job<_>> = Fabric::BOTH
        .iter()
        .flat_map(|&fabric| {
            apps.iter().map(move |app| -> Job<_> {
                (
                    format!("{}/{}", fabric.label(), app.name),
                    Box::new(move || {
                        run_app(app, ProtocolKind::So, fabric, 8, ConsistencyModel::Rc)
                    }),
                )
            })
        })
        .collect();
    // With CORD_TRACE set, each run's metrics snapshot rides into the
    // sweep record alongside its timing.
    let mut results = run_recorded_with(
        "fig2",
        jobs,
        |r| r.completion().as_ns_f64(),
        |r| r.metrics.as_ref().map(|m| m.to_json()),
    )
    .into_iter();

    for fabric in Fabric::BOTH {
        let mut rows = Vec::new();
        for app in &apps {
            let r = results.next().expect("one result per job");
            let wait = r.stall(StallCause::AckWait).as_ns_f64();
            let busy = r.core_time_total.as_ns_f64();
            let ack = r.traffic[MsgClass::Ack].inter_bytes as f64;
            let total = r.inter_bytes() as f64;
            rows.push(vec![
                app.name.to_string(),
                format!("{:.1}", 100.0 * wait / busy),
                format!("{:.1}", 100.0 * ack / total),
            ]);
        }
        print_table(
            &format!("Fig 2 ({}): source ordering overheads", fabric.label()),
            &["app", "exec time waiting for acks (%)", "ack traffic (%)"],
            &rows,
        );
    }
}
