//! Trace-driven simulation (the paper drives the DOE mini-apps from traces).
//!
//! Writes a small producer-consumer trace, replays it under every protocol,
//! and exports a generated Table 2 application model to the trace format.
//!
//! Run with:
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use cord_repro::cord::{RunConfig, System};
use cord_repro::cord_proto::{ProtocolKind, SystemConfig};
use cord_repro::cord_workloads::{trace, AppSpec};

fn main() {
    RunConfig::from_env_or_exit().install();
    // A hand-written trace: host 0 core publishes into host 1's memory
    // (addresses ≥ 0x1_0000_0000 belong to host 1), host 1 core consumes,
    // then bumps a shared ticket atomically.
    let text = "\
# core  op        addr          size value ordering
0       store     0x100000000   64   7     rlx
0       store     0x100000200   64   8     rlx
0       store     0x100001000   8    1     rel      # publish
0       amo       0x100002000   1    rel   r0       # ticket
8       wait      0x100001000   1
8       bulkread  0x100000000   128  r1
8       amo       0x100002000   1    rel   r2
";
    let programs = trace::parse(text).expect("trace parses");
    println!(
        "replaying a {}-op trace:",
        programs.iter().map(|p| p.len()).sum::<usize>()
    );
    for kind in [
        ProtocolKind::Cord,
        ProtocolKind::So,
        ProtocolKind::Mp,
        ProtocolKind::Wb,
    ] {
        let cfg = SystemConfig::cxl(kind, 2);
        let mut ps = programs.clone();
        ps.resize(cfg.total_tiles() as usize, Default::default());
        let r = System::new(cfg, ps).run();
        println!(
            "  {:<4}  time {:>10}  traffic {:>5} B  tickets ({}, {})",
            kind.label(),
            r.makespan.to_string(),
            r.inter_bytes(),
            r.regs[0][0],
            r.regs[8][2],
        );
    }

    // Export a generated application model as a trace.
    let cfg = SystemConfig::cxl(ProtocolKind::Cord, 4);
    let mut app = AppSpec::by_name("MOCFE").expect("known app");
    app.iters = 1;
    let dumped = trace::dump(&app.programs(&cfg));
    let lines = dumped.lines().count();
    println!("\nMOCFE (1 iteration, 4 hosts) exports to {lines} trace lines; first five:");
    for l in dumped.lines().take(5) {
        println!("  {l}");
    }
    // And it round-trips.
    assert!(trace::parse(&dumped).is_ok());
}
