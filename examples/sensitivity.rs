//! A miniature §5.3 sensitivity sweep: how CORD's advantage over source
//! ordering varies with synchronization granularity.
//!
//! Run with:
//! ```sh
//! cargo run --release --example sensitivity
//! ```

use cord_repro::cord::{RunConfig, System};
use cord_repro::cord_proto::{ProtocolKind, SystemConfig};
use cord_repro::cord_workloads::MicroBench;

fn run(kind: ProtocolKind, sync: u64) -> (f64, u64) {
    let mut cfg = SystemConfig::cxl(kind, 8);
    cfg.tables.proc_unacked = 64; // "no-degradation" provisioning (§5.4)
    cfg.tables.dir_cnt_per_proc = 64;
    cfg.tables.dir_noti_per_proc = 64;
    let mb = MicroBench::new(64, sync, 1).with_iters(16);
    let programs = mb.programs(&cfg);
    let r = System::new(cfg, programs).run();
    (r.completion().as_us_f64(), r.inter_bytes())
}

fn main() {
    RunConfig::from_env_or_exit().install();
    println!(
        "{:>10}  {:>10}  {:>10}  {:>8}  {:>8}",
        "sync", "CORD us", "SO us", "SO/CORD t", "SO/CORD b"
    );
    for sync in [256u64, 1024, 4096, 16384, 65536] {
        let (ct, cb) = run(ProtocolKind::Cord, sync);
        let (st, sb) = run(ProtocolKind::So, sync);
        println!(
            "{:>9}B  {:>10.2}  {:>10.2}  {:>8.2}  {:>8.2}",
            sync,
            ct,
            st,
            st / ct,
            sb as f64 / cb as f64
        );
    }
    println!("\nFiner synchronization → more acknowledgment stalls → larger CORD win,");
    println!("exactly the trend of the paper's Fig. 8 (middle).");
}
