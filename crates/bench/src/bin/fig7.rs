//! Figure 7: end-to-end performance and traffic under release consistency.
//!
//! For each Table 2 application over CXL and UPI, reports execution time and
//! inter-PU traffic for MP, SO, and WB normalized to CORD (the paper's
//! y-axes), plus geometric means. TQH cannot run under naive message
//! passing (paper §3.2), so its MP cells are n/a.

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
                        Box::new(move || run_app(app, kind, fabric, 8, ConsistencyModel::Rc)),
                    )
                })
            })
        })
        .collect();
    let mut results = run_recorded("fig7", jobs, |r| r.completion().as_ns_f64()).into_iter();

    for fabric in Fabric::BOTH {
        let mut rows = Vec::new();
        let mut mp_t = Vec::new();
        let mut so_t = Vec::new();
        let mut wb_t = Vec::new();
        let mut mp_b = Vec::new();
        let mut so_b = Vec::new();
        let mut wb_b = Vec::new();
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
            mp_t.push(mpt);
            so_t.push(sot);
            wb_t.push(wbt);
            mp_b.push(mpb);
            so_b.push(sob);
            wb_b.push(wbb);
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
            ratio(geomean(mp_t)),
            ratio(geomean(so_t)),
            ratio(geomean(wb_t)),
            String::new(),
            ratio(geomean(mp_b)),
            ratio(geomean(so_b)),
            ratio(geomean(wb_b)),
        ]);
        print_table(
            &format!(
                "Fig 7 ({}): time & traffic normalized to CORD (CORD columns absolute)",
                fabric.label()
            ),
            &[
                "app", "CORD us", "MP t", "SO t", "WB t", "CORD KB", "MP b", "SO b", "WB b",
            ],
            &rows,
        );
    }
}
