//! Figure 10: CORD's decoupled epoch/store-counter vs single sequence
//! numbers (paper §4.1, §5.3).
//!
//! Left: store-counter bit-width sweep (epoch fixed at 8 bits).
//! Right: epoch bit-width sweep (store counter fixed at 32 bits).
//! Baselines: SEQ-8 (no wire overhead, frequent overflow stalls) and SEQ-40
//! (no overflows, 4 B of header on every store). Time is normalized to
//! SEQ-40 (the fast baseline), traffic to SEQ-8 (the lean baseline):
//! CORD should match both simultaneously.

use cord::{RunConfig, System};
use cord_bench::{config, print_table, Fabric};
use cord_proto::{ConsistencyModel, ProtocolKind, SystemConfig};
use cord_sim::par::run_parallel;
use cord_workloads::MicroBench;

fn bench() -> MicroBench {
    // 512 stores per Release: SEQ-8 wraps its sequence space twice per sync.
    MicroBench::new(64, 32 << 10, 1).with_iters(8)
}

/// One configuration per row, in output order.
fn variants(fabric: Fabric) -> Vec<(String, SystemConfig)> {
    let mut v = vec![
        (
            "SEQ-40".into(),
            config(
                ProtocolKind::Seq { bits: 40 },
                fabric,
                8,
                ConsistencyModel::Rc,
            ),
        ),
        (
            "SEQ-8".into(),
            config(
                ProtocolKind::Seq { bits: 8 },
                fabric,
                8,
                ConsistencyModel::Rc,
            ),
        ),
    ];
    // Store-counter bit-width sweep (epoch = 8 bits).
    for cnt_bits in [8u8, 16, 32] {
        let mut cfg = config(ProtocolKind::Cord, fabric, 8, ConsistencyModel::Rc);
        cfg.widths.cnt_bits = cnt_bits;
        v.push((format!("CORD cnt={cnt_bits}b"), cfg));
    }
    // Epoch bit-width sweep (store counter = 32 bits).
    for epoch_bits in [4u8, 8, 16] {
        let mut cfg = config(ProtocolKind::Cord, fabric, 8, ConsistencyModel::Rc);
        cfg.widths.epoch_bits = epoch_bits;
        v.push((format!("CORD ep={epoch_bits}b"), cfg));
    }
    v
}

fn main() {
    RunConfig::from_env_or_exit().install();
    let per_fabric: Vec<(Fabric, Vec<(String, SystemConfig)>)> =
        Fabric::BOTH.into_iter().map(|f| (f, variants(f))).collect();
    let cfgs: Vec<&SystemConfig> = per_fabric
        .iter()
        .flat_map(|(_, vs)| vs.iter().map(|(_, cfg)| cfg))
        .collect();
    let mut results = run_parallel(&cfgs, |&cfg| {
        let programs = bench().programs(cfg);
        System::new(cfg.clone(), programs).run()
    })
    .into_iter();

    for (fabric, vs) in &per_fabric {
        let pairs: Vec<(f64, f64)> = vs
            .iter()
            .map(|_| {
                let r = results.next().expect("one run per variant");
                (r.completion().as_ns_f64(), r.inter_bytes() as f64)
            })
            .collect();
        let (seq40_t, seq40_b) = pairs[0];
        let (seq8_t, seq8_b) = pairs[1];
        let mut rows = vec![
            vec![
                "SEQ-8".into(),
                format!("{:.2}", seq8_t / seq40_t),
                "1.00".into(),
            ],
            vec![
                "SEQ-40".into(),
                "1.00".into(),
                format!("{:.2}", seq40_b / seq8_b),
            ],
        ];
        for ((label, _), &(t, b)) in vs.iter().zip(&pairs).skip(2) {
            rows.push(vec![
                label.clone(),
                format!("{:.2}", t / seq40_t),
                format!("{:.2}", b / seq8_b),
            ]);
        }
        print_table(
            &format!(
                "Fig 10 ({}): time normalized to SEQ-40, traffic to SEQ-8",
                fabric.label()
            ),
            &["scheme", "time / SEQ-40", "traffic / SEQ-8"],
            &rows,
        );
    }
}
