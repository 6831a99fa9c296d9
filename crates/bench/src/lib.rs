//! Shared harness for regenerating the paper's tables and figures.
//!
//! Each figure/table has a dedicated binary (`fig2`, `fig7`, …, `table3`,
//! `litmus`) that runs the corresponding experiment on the simulator and
//! prints the same rows/series the paper reports. This library holds the
//! pieces they share: protocol/fabric selection, run helpers, the parallel
//! [`sweep`] engine (worker-pool fan-out with deterministic input-order
//! collection and `BENCH_sweeps.json` timing records), and plain-text table
//! formatting.
//!
//! Absolute numbers will differ from the paper's gem5 testbed; the
//! *comparisons* (who wins, by roughly what factor, where crossovers fall)
//! are the reproduction target — see EXPERIMENTS.md.

pub mod gate;
pub mod sweep;

use cord::{RunResult, System};
use cord_proto::{ConsistencyModel, ProtocolKind, SystemConfig};
use cord_workloads::{AppSpec, MicroBench};

/// Inter-PU interconnect technology (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// CXL: 150 ns inter-host links.
    Cxl,
    /// Intel UPI: 50 ns inter-host links.
    Upi,
}

impl Fabric {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Fabric::Cxl => "CXL",
            Fabric::Upi => "UPI",
        }
    }

    /// Both fabrics, in paper order.
    pub const BOTH: [Fabric; 2] = [Fabric::Cxl, Fabric::Upi];
}

/// Builds the Table 1 system for a protocol/fabric/consistency combination.
pub fn config(
    kind: ProtocolKind,
    fabric: Fabric,
    hosts: u32,
    model: ConsistencyModel,
) -> SystemConfig {
    let cfg = match fabric {
        Fabric::Cxl => SystemConfig::cxl(kind, hosts),
        Fabric::Upi => SystemConfig::upi(kind, hosts),
    };
    cfg.with_model(model)
}

/// Runs one Table 2 application model end to end.
pub fn run_app(
    app: &AppSpec,
    kind: ProtocolKind,
    fabric: Fabric,
    hosts: u32,
    model: ConsistencyModel,
) -> RunResult {
    let cfg = config(kind, fabric, hosts, model);
    let programs = app.programs(&cfg);
    System::new(cfg, programs).run()
}

/// "No-degradation" lookup-table provisioning for the sensitivity sweeps:
/// the paper provisions the smallest storage that avoids performance
/// degradation (§5.4) before running §5.3, so fine-grained synchronization
/// microbenchmarks get deeper tables than the Table 3 defaults.
fn provision_for_micro(cfg: &mut SystemConfig) {
    cfg.tables.proc_unacked = 64;
    cfg.tables.dir_cnt_per_proc = 64;
    cfg.tables.dir_noti_per_proc = 64;
}

/// Runs the §5.3 microbenchmark.
pub fn run_micro(mb: &MicroBench, kind: ProtocolKind, fabric: Fabric) -> RunResult {
    let mut cfg = config(kind, fabric, 8, ConsistencyModel::Rc);
    provision_for_micro(&mut cfg);
    let programs = mb.programs(&cfg);
    System::new(cfg, programs).run()
}

/// Runs the §5.3 microbenchmark on a custom inter-host latency (Fig. 9).
pub fn run_micro_latency(mb: &MicroBench, kind: ProtocolKind, latency_ns: u64) -> RunResult {
    let noc =
        cord_noc::NocConfig::cxl(8, 8).with_inter_host_latency(cord_sim::Time::from_ns(latency_ns));
    let mut cfg = SystemConfig::with_noc(kind, noc);
    provision_for_micro(&mut cfg);
    let programs = mb.programs(&cfg);
    System::new(cfg, programs).run()
}

/// The four compared schemes, in the paper's legend order.
pub const SCHEMES: [ProtocolKind; 4] = [
    ProtocolKind::Mp,
    ProtocolKind::Cord,
    ProtocolKind::So,
    ProtocolKind::Wb,
];

/// Formats and prints a plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&headers));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a ratio to two decimals, or "n/a".
pub fn ratio(x: Option<f64>) -> String {
    match x {
        Some(v) => format!("{v:.2}"),
        None => "n/a".into(),
    }
}

/// Geometric mean of ratios (skipping `None`s); `None` if empty.
pub fn geomean(vals: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    let v: Vec<f64> = vals.into_iter().flatten().collect();
    if v.is_empty() {
        None
    } else {
        Some((v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        let g = geomean([Some(2.0), Some(8.0)]).unwrap();
        assert!((g - 4.0).abs() < 1e-9);
        assert_eq!(geomean([None, None]), None);
        let single = geomean([Some(3.0), None]).unwrap();
        assert!((single - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(Some(1.2345)), "1.23");
        assert_eq!(ratio(None), "n/a");
    }

    #[test]
    fn micro_runs_on_both_fabrics() {
        let mb = MicroBench::new(64, 512, 1).with_iters(2);
        for f in Fabric::BOTH {
            let r = run_micro(&mb, ProtocolKind::Cord, f);
            assert!(r.makespan > cord_sim::Time::ZERO, "{}", f.label());
        }
    }

    #[test]
    fn app_runs_under_all_schemes() {
        let mut app = AppSpec::by_name("MOCFE").unwrap();
        app.iters = 2;
        for kind in SCHEMES {
            if kind == ProtocolKind::Mp && !app.mp_compatible {
                continue;
            }
            let r = run_app(&app, kind, Fabric::Upi, 4, ConsistencyModel::Rc);
            assert!(r.makespan > cord_sim::Time::ZERO, "{kind:?}");
        }
    }
}
