//! Multi-directory release consistency: watch CORD's inter-directory
//! notifications in action (paper §4.2, Fig. 4 right).
//!
//! A producer scatters data across three other hosts' memories and releases
//! a single flag on a fourth. Under CORD the flag's directory may not commit
//! the Release until every *pending* directory has notified it — without any
//! processor involvement.
//!
//! Run with:
//! ```sh
//! cargo run --release --example multi_directory
//! ```

use cord_repro::cord::{RunConfig, System};
use cord_repro::cord_noc::MsgClass;
use cord_repro::cord_proto::{LoadOrd, Program, ProtocolKind, SystemConfig};

fn main() {
    RunConfig::from_env_or_exit().install();
    for kind in [ProtocolKind::Cord, ProtocolKind::So, ProtocolKind::Mp] {
        let cfg = SystemConfig::cxl(kind, 8);
        let tph = cfg.noc.tiles_per_host as usize;

        // Data on hosts 1, 2, 3; flag on host 4.
        let d1 = cfg.map.addr_on_host(1, 0);
        let d2 = cfg.map.addr_on_host(2, 0);
        let d3 = cfg.map.addr_on_host(3, 0);
        let flag = cfg.map.addr_on_host(4, 0);

        let mut programs = vec![Program::new(); cfg.total_tiles() as usize];
        programs[0] = Program::build()
            .store_relaxed(d1, 11)
            .store_relaxed(d2, 22)
            .store_relaxed(d3, 33)
            .store_release(flag, 1)
            .finish();
        // The observer on host 4 sees the flag, then must see ALL the data —
        // even though it lives on three different directories.
        programs[4 * tph] = Program::build()
            .wait_value(flag, 1)
            .load(d1, 8, LoadOrd::Relaxed, 0)
            .load(d2, 8, LoadOrd::Relaxed, 1)
            .load(d3, 8, LoadOrd::Relaxed, 2)
            .finish();

        let r = System::new(cfg, programs).run();
        let obs = &r.regs[4 * tph];
        println!(
            "{:<4}  observed ({:>2},{:>2},{:>2})  req-notify {:>2}  notify {:>2}  acks {:>2}  time {}",
            kind.label(),
            obs[0],
            obs[1],
            obs[2],
            r.traffic[MsgClass::ReqNotify].inter_msgs,
            r.traffic[MsgClass::Notify].inter_msgs,
            r.traffic[MsgClass::Ack].inter_msgs,
            r.makespan,
        );
        // Under CORD and SO the observation is always (11,22,33).
        // Naive message passing provides only point-to-point ordering —
        // here the single-observer pattern happens to hold, but the
        // cord-check model checker proves the ISA2 pattern breaks it.
        if kind != ProtocolKind::Mp {
            assert_eq!(&obs[..3], &[11, 22, 33]);
        }
    }
    println!("\nCORD: 3 request-for-notifications + 3 notifications, zero processor stalls.");
    println!("SO:   4 acknowledgments and a stalled Release instead.");
}
