//! Figure 11: CORD's lookup-table storage overhead vs number of PUs
//! (paper §5.4).
//!
//! Peak processor-side and directory-side storage (bytes) for the three
//! most storage-hungry Table 2 applications (SSSP, PAD, PR) and the ATA
//! `alltoall` stressor, at 2/4/8 hosts over CXL and UPI.
//!
//! `--wide` extends the sweep past the paper: the ATA stressor at
//! 16–512 hosts over CXL, recorded under a separate `fig11_wide` sweep key
//! so the paper-range record stays byte-identical.

use cord_bench::sweep::{run_recorded, Job};
use cord_bench::{print_table, run_app, Fabric};
use cord_proto::{ConsistencyModel, ProtocolKind};
use cord_workloads::AppSpec;

const APPS: [&str; 4] = ["SSSP", "PAD", "PR", "ATA"];
const HOSTS: [u32; 3] = [2, 4, 8];
/// `--wide` host counts (beyond the paper's Fig. 11 range).
const WIDE_HOSTS: [u32; 6] = [16, 32, 64, 128, 256, 512];

fn main() {
    cord::RunConfig::from_env_or_exit().install();
    let wide = std::env::args().any(|a| a == "--wide");
    let apps: Vec<AppSpec> = APPS
        .iter()
        .map(|n| AppSpec::by_name(n).expect("known app"))
        .collect();
    let jobs: Vec<Job<_>> = Fabric::BOTH
        .iter()
        .flat_map(|&fabric| {
            apps.iter().flat_map(move |app| {
                HOSTS.iter().map(move |&hosts| -> Job<_> {
                    (
                        format!("{}/{}/{hosts}PU", fabric.label(), app.name),
                        Box::new(move || {
                            run_app(app, ProtocolKind::Cord, fabric, hosts, ConsistencyModel::Rc)
                        }),
                    )
                })
            })
        })
        .collect();
    let mut results = run_recorded("fig11", jobs, |r| r.completion().as_ns_f64()).into_iter();

    for fabric in Fabric::BOTH {
        let mut rows = Vec::new();
        for app in &apps {
            for hosts in HOSTS {
                let r = results.next().expect("one run per point");
                let proc = r.proc_storage_peak();
                let dir = r.dir_storage_peak();
                rows.push(vec![
                    app.name.to_string(),
                    hosts.to_string(),
                    proc.peak_total().to_string(),
                    dir.peak_total().to_string(),
                ]);
            }
        }
        print_table(
            &format!("Fig 11 ({}): peak CORD storage (bytes)", fabric.label()),
            &["app", "PUs", "proc storage B", "dir storage B"],
            &rows,
        );
    }

    if wide {
        let ata = AppSpec::by_name("ATA").expect("known app");
        let jobs: Vec<Job<_>> = WIDE_HOSTS
            .iter()
            .map(|&hosts| -> Job<_> {
                (
                    format!("CXL/ATA/{hosts}PU"),
                    Box::new(move || {
                        run_app(
                            &ata,
                            ProtocolKind::Cord,
                            Fabric::Cxl,
                            hosts,
                            ConsistencyModel::Rc,
                        )
                    }),
                )
            })
            .collect();
        let results = run_recorded("fig11_wide", jobs, |r| r.completion().as_ns_f64());
        let rows: Vec<Vec<String>> = WIDE_HOSTS
            .iter()
            .zip(&results)
            .map(|(&hosts, r)| {
                vec![
                    "ATA".to_string(),
                    hosts.to_string(),
                    r.proc_storage_peak().peak_total().to_string(),
                    r.dir_storage_peak().peak_total().to_string(),
                ]
            })
            .collect();
        print_table(
            "Fig 11 (wide, CXL): peak CORD storage (bytes)",
            &["app", "PUs", "proc storage B", "dir storage B"],
            &rows,
        );
    }
}
