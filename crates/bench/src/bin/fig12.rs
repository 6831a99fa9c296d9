//! Figure 12: storage-overhead breakdown for ATA (paper §5.4).
//!
//! Splits the Fig. 11 peaks into their components: at the processor, store
//! counters vs the other lookup tables (unacknowledged epochs); at the
//! directory, lookup tables vs the network buffer holding recycled Release
//! stores.

use cord_bench::{print_table, run_app, Fabric};
use cord_proto::{ConsistencyModel, ProtocolKind};
use cord_sim::par::run_parallel;
use cord_workloads::AppSpec;

const HOSTS: [u32; 3] = [2, 4, 8];

fn main() {
    cord::RunConfig::from_env_or_exit().install();
    let app = AppSpec::ata();
    let runs: Vec<_> = Fabric::BOTH
        .iter()
        .flat_map(|&fabric| HOSTS.iter().map(move |&hosts| (fabric, hosts)))
        .collect();
    let mut results = run_parallel(&runs, |&(fabric, hosts)| {
        run_app(
            &app,
            ProtocolKind::Cord,
            fabric,
            hosts,
            ConsistencyModel::Rc,
        )
    })
    .into_iter();

    for fabric in Fabric::BOTH {
        let mut rows = Vec::new();
        for hosts in HOSTS {
            let r = results.next().expect("one run per point");
            let proc = r.proc_storage_peak();
            let dir = r.dir_storage_peak();
            rows.push(vec![
                hosts.to_string(),
                proc.peak_cnt_bytes.to_string(),
                proc.peak_other_bytes.to_string(),
                dir.peak_lut_bytes.to_string(),
                dir.peak_buf_bytes.to_string(),
            ]);
        }
        print_table(
            &format!("Fig 12 ({}): ATA storage breakdown (bytes)", fabric.label()),
            &[
                "PUs",
                "proc store counters",
                "proc other tables",
                "dir lookup tables",
                "dir network buffer",
            ],
            &rows,
        );
    }
}
