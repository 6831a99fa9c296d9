//! `--compare A.json B.json`: one row per workload × end-to-end metric.
//!
//! Each side's quartiles come from the per-round samples in its record, and
//! B is compared with A on the better quartile, the value a run reports.
//! The verdict follows the rule in the README: B *improved* when it wins at
//! least nine tenths of all (A, B) sample pairs (at least ten of them) and
//! its value moved by more than A's own quartile spread; the comparison is
//! *unresolved* when either side's spread is wider than the metric's bound;
//! otherwise B *regressed* when its value is worse than A's by more than
//! the bound, and is *within bound* when not. Nothing is gated: the exit
//! code only reports whether both records could be read.

use crate::record::Json;
use crate::stats::{win_fraction, Summary};

/// Verdict of one metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Improved,
    Within,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Within => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Fewest (A, B) sample pairs on which an improvement can be claimed.
const MIN_PAIRS: usize = 10;

/// Compares B's samples against A's. `bound` is a share of A's value, or
/// an absolute amount when A's value is 0 (as for `fail_frac`).
fn verdict(a: &[f64], b: &[f64], lower_better: bool, bound: f64) -> (Verdict, f64, f64) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let (va, vb) = (
        sa.better_quartile(lower_better),
        sb.better_quartile(lower_better),
    );
    let win = win_fraction(a, b, lower_better);
    let diff = if lower_better { vb - va } else { va - vb };
    // Positive `worse` means B is worse than A.
    let worse = if va == 0.0 { diff } else { diff / va.abs() };
    // A gain needs enough pairs for a nine-tenths win share to mean
    // anything (a single-sample metric such as peak RSS never claims one).
    let v = if a.len() * b.len() >= MIN_PAIRS && win >= 0.9 && -worse > sa.rel_spread() {
        Verdict::Improved
    } else if sa.rel_spread().max(sb.rel_spread()) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    (v, win, worse)
}

fn samples(m: &Json) -> Vec<f64> {
    match m.get("samples") {
        Some(Json::Arr(v)) => v.iter().filter_map(Json::as_f64).collect(),
        _ => Vec::new(),
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn side(s: &Summary) -> String {
    format!("{:.6} {:.6} {:.6}", s.q1, s.median, s.q3)
}

/// Prints the comparison table; returns the process exit code.
pub fn run(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark --compare: {e}");
            return 2;
        }
    };
    for (tag, rec, path) in [("A", &a, a_path), ("B", &b, b_path)] {
        let p = rec.get("provenance");
        let field = |k: &str| {
            p.and_then(|p| p.get(k)).map_or("?".to_string(), |v| {
                v.as_str().map_or(v.render(), str::to_string)
            })
        };
        println!(
            "{tag} = {path}: commit {}, seed {}, {} round(s), nproc {}, {}",
            field("commit"),
            field("seed"),
            field("rounds"),
            field("nproc"),
            field("cpu")
        );
    }
    let Some(Json::Obj(a_ws)) = a.get("workloads") else {
        eprintln!("benchmark --compare: {a_path} has no workloads");
        return 2;
    };
    let mut rows = vec![[
        "workload".to_string(),
        "metric".into(),
        "A q1 median q3".into(),
        "B q1 median q3".into(),
        "B wins".into(),
        "B worse by".into(),
        "bound".into(),
        "verdict".into(),
    ]];
    for (w, a_w) in a_ws {
        let Some(b_w) = b.get("workloads").and_then(|ws| ws.get(w)) else {
            continue;
        };
        let Some(Json::Obj(metrics)) = a_w.get("metrics") else {
            continue;
        };
        for (name, a_m) in metrics {
            let Some(b_m) = b_w.get("metrics").and_then(|m| m.get(name)) else {
                continue;
            };
            let (sa, sb) = (samples(a_m), samples(b_m));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let lower = a_m.get("better").and_then(Json::as_str) != Some("higher");
            let bound = a_m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (v, win, worse) = verdict(&sa, &sb, lower, bound);
            rows.push([
                w.clone(),
                name.clone(),
                side(&Summary::of(&sa)),
                side(&Summary::of(&sb)),
                format!("{:.2}", win),
                format!("{:+.2}%", worse * 100.0),
                format!("{:.0}%", bound * 100.0),
                v.label().into(),
            ]);
        }
    }
    let widths: Vec<usize> = (0..8)
        .map(|i| rows.iter().map(|r| r[i].len()).max().unwrap_or(0))
        .collect();
    for r in &rows {
        let line: Vec<String> = r
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("{}", line.join("  ").trim_end());
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Same distribution: within bound.
        assert_eq!(verdict(&a, &a, true, 0.10).0, Verdict::Within);
        // Every B run faster by 20%: improved.
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &b, true, 0.10).0, Verdict::Improved);
        // 20% slower: regressed; the same numbers as a throughput improved.
        let c: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &c, true, 0.10).0, Verdict::Regressed);
        assert_eq!(verdict(&a, &c, false, 0.10).0, Verdict::Improved);
        // A spread wider than the bound cannot be resolved.
        let wide = [0.5, 1.0, 1.5, 1.0, 0.7];
        assert_eq!(verdict(&wide, &c, true, 0.10).0, Verdict::Unresolved);
        // One sample a side cannot show a gain.
        assert_eq!(verdict(&[2.0], &[1.0], true, 0.05).0, Verdict::Within);
        // Absolute bound at a zero base: any failure is a regression.
        assert_eq!(verdict(&[0.0], &[0.1], true, 0.0).0, Verdict::Regressed);
        assert_eq!(verdict(&[0.0], &[0.0], true, 0.0).0, Verdict::Within);
    }
}
