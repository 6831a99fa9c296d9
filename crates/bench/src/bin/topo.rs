//! Topology extension study (beyond the paper's single-switch system).
//!
//! The paper's conclusion points at increasingly complex CXL fabrics (\[25\]).
//! This experiment runs the end-to-end app models over a two-level pod/root
//! switch hierarchy (two pods of four hosts; cross-pod traffic pays a root
//! traversal) and reports CORD's advantage over source ordering on both
//! fabrics: directory ordering saves a full fabric round-trip per
//! synchronization, so its advantage *grows* with fabric depth.

use cord::{RunConfig, System};
use cord_bench::print_table;
use cord_noc::{NocConfig, PodConfig};
use cord_proto::{ProtocolKind, SystemConfig};
use cord_sim::par::run_parallel;
use cord_sim::Time;
use cord_workloads::table2_apps;

fn run(kind: ProtocolKind, pods: bool, app: &cord_workloads::AppSpec) -> (f64, u64) {
    let mut noc = NocConfig::cxl(8, 8);
    if pods {
        noc = noc.with_pods(PodConfig {
            hosts_per_pod: 4,
            pod_latency: Time::from_ns(100),
            root_latency: Time::from_ns(250),
        });
    }
    let cfg = SystemConfig::with_noc(kind, noc);
    let programs = app.programs(&cfg);
    let r = System::new(cfg, programs).run();
    (r.makespan.as_us_f64(), r.inter_bytes())
}

/// (protocol, pods fabric) per app, in output order.
const POINTS: [(ProtocolKind, bool); 4] = [
    (ProtocolKind::Cord, false),
    (ProtocolKind::So, false),
    (ProtocolKind::Cord, true),
    (ProtocolKind::So, true),
];

fn main() {
    RunConfig::from_env_or_exit().install();
    let apps: Vec<_> = table2_apps()
        .into_iter()
        .filter(|a| a.name != "ATA")
        .collect();
    let runs: Vec<_> = apps
        .iter()
        .flat_map(|app| POINTS.iter().map(move |&(kind, pods)| (kind, pods, app)))
        .collect();
    let mut results = run_parallel(&runs, |&(kind, pods, app)| run(kind, pods, app)).into_iter();

    let mut rows = Vec::new();
    for app in &apps {
        let (flat_cord, _) = results.next().expect("flat CORD");
        let (flat_so, _) = results.next().expect("flat SO");
        let (pod_cord, _) = results.next().expect("pod CORD");
        let (pod_so, _) = results.next().expect("pod SO");
        rows.push(vec![
            app.name.to_string(),
            format!("{:.2}", flat_so / flat_cord),
            format!("{:.2}", pod_so / pod_cord),
        ]);
    }
    print_table(
        "Topology study: SO time / CORD time, flat switch vs 2-level pods",
        &["app", "flat switch", "pod/root fabric"],
        &rows,
    );
    println!("\nDeeper fabrics lengthen the acknowledgment round-trip that source");
    println!("ordering stalls on; CORD's directory ordering does not pay it.");
}
