//! Figure 13: performance and traffic under TSO (paper §6).
//!
//! Same methodology as Fig. 7 but with every protocol enforcing Total Store
//! Ordering: SO/WB source-order *all* stores through a FIFO store buffer
//! (one acknowledged store at a time), CORD totally orders write-through
//! stores at the directory via the Release-Release mechanism, and MP totally
//! orders its point-to-point channels (an efficiency upper bound — it still
//! does not provide global TSO).

use cord::{RunConfig, RunResult};
use cord_bench::sweep::{run_recorded, Job};
use cord_bench::{geomean, print_table, ratio, run_app, Fabric};
use cord_proto::{ConsistencyModel, ProtocolKind};
use cord_workloads::{table2_apps, AppSpec};

/// Schemes per app in output order; MP is skipped for MP-incompatible apps.
fn schemes(app: &AppSpec) -> Vec<ProtocolKind> {
    let mut v = vec![ProtocolKind::Cord];
    if app.mp_compatible {
        v.push(ProtocolKind::Mp);
    }
    v.extend([ProtocolKind::So, ProtocolKind::Wb]);
    v
}

fn main() {
    RunConfig::from_env_or_exit().install();
    let apps: Vec<_> = table2_apps()
        .into_iter()
        .filter(|a| a.name != "ATA")
        .collect();
    let jobs: Vec<Job<RunResult>> = Fabric::BOTH
        .iter()
        .flat_map(|&fabric| {
            apps.iter().flat_map(move |app| {
                schemes(app).into_iter().map(move |kind| -> Job<RunResult> {
                    (
                        format!("{}/{}/{:?}", fabric.label(), app.name, kind),
                        Box::new(move || run_app(app, kind, fabric, 8, ConsistencyModel::Tso)),
                    )
                })
            })
        })
        .collect();
    let mut results = run_recorded("fig13", jobs, |r| r.completion().as_ns_f64()).into_iter();

    for fabric in Fabric::BOTH {
        let mut rows = Vec::new();
        let mut agg: Vec<Vec<Option<f64>>> = vec![Vec::new(); 6];
        for app in &apps {
            let cord = results.next().expect("CORD run");
            let t0 = cord.makespan.as_ns_f64();
            let b0 = cord.inter_bytes() as f64;
            let mut rel = |run: bool| -> (Option<f64>, Option<f64>) {
                if !run {
                    return (None, None);
                }
                let r = results.next().expect("scheme run");
                (
                    Some(r.makespan.as_ns_f64() / t0),
                    Some(r.inter_bytes() as f64 / b0),
                )
            };
            let (mpt, mpb) = rel(app.mp_compatible);
            let (sot, sob) = rel(true);
            let (wbt, wbb) = rel(true);
            for (slot, v) in agg.iter_mut().zip([mpt, sot, wbt, mpb, sob, wbb]) {
                slot.push(v);
            }
            rows.push(vec![
                app.name.to_string(),
                format!("{:.1}", t0 / 1000.0),
                ratio(mpt),
                ratio(sot),
                ratio(wbt),
                format!("{:.0}", b0 / 1024.0),
                ratio(mpb),
                ratio(sob),
                ratio(wbb),
            ]);
        }
        rows.push(vec![
            "geomean".into(),
            String::new(),
            ratio(geomean(agg[0].clone())),
            ratio(geomean(agg[1].clone())),
            ratio(geomean(agg[2].clone())),
            String::new(),
            ratio(geomean(agg[3].clone())),
            ratio(geomean(agg[4].clone())),
            ratio(geomean(agg[5].clone())),
        ]);
        print_table(
            &format!(
                "Fig 13 ({}): TSO time & traffic normalized to CORD (CORD columns absolute)",
                fabric.label()
            ),
            &[
                "app", "CORD us", "MP t", "SO t", "WB t", "CORD KB", "MP b", "SO b", "WB b",
            ],
            &rows,
        );
    }
}
