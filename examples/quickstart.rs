//! Quickstart: publish data from one CPU host into another's memory and
//! compare CORD against source ordering.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cord_repro::cord::{RunConfig, System};
use cord_repro::cord_noc::MsgClass;
use cord_repro::cord_proto::{LoadOrd, Program, ProtocolKind, SystemConfig};

fn main() {
    RunConfig::from_env_or_exit().install();
    // A 2-host CXL system (8 cores + 8 LLC slices per host, 150 ns links).
    for kind in [ProtocolKind::Cord, ProtocolKind::So] {
        let cfg = SystemConfig::cxl(kind, 2);

        // Host 0's core publishes 4 KB of data into host 1's memory, then
        // releases a flag; host 1's core acquire-polls the flag and reads.
        let data = cfg.map.addr_on_host(1, 0);
        let flag = cfg.map.addr_on_host(1, 1 << 20);
        let mut programs = vec![Program::new(); cfg.total_tiles() as usize];
        programs[0] = Program::build()
            .bulk_store(data, 4096, 64, 7) // 64 Relaxed write-through stores
            .store_release(flag, 1) //       the publication
            .finish();
        programs[8] = Program::build()
            .wait_value(flag, 1) //           Acquire-poll
            .load(data, 8, LoadOrd::Relaxed, 0)
            .finish();

        let result = System::new(cfg, programs).run();
        assert_eq!(result.regs[8][0], 7, "consumer must observe the data");
        println!(
            "{:<4}  time {:>10}   inter-PU traffic {:>6} B   acks {:>3}",
            kind.label(),
            result.makespan.to_string(),
            result.inter_bytes(),
            result.traffic[MsgClass::Ack].inter_msgs,
        );
    }
    println!("\nCORD needs exactly one acknowledgment (the Release store's);");
    println!("source ordering acknowledges all 65 write-through accesses.");
}
