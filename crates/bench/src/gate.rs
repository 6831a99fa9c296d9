//! The events/sec regression gate shared by the `despeed` and `scale` bins.
//!
//! Each bin writes one single-line JSON record per mode (`--quick` or full)
//! holding `"quick":…`, `"cores":N` and `{"label":…,"per_sec":…}` entries.
//! The gate compares this run's entries against the committed record of the
//! same mode and fails on a throughput drop larger than [`TOLERANCE`].

/// The largest fraction of a baseline entry's throughput a run may lose.
pub const TOLERANCE: f64 = 0.20;

/// A committed baseline record file, read before the run overwrites it.
#[derive(Debug)]
pub struct Baseline {
    /// Where the record was read from.
    pub path: String,
    text: String,
}

impl Baseline {
    /// Reads the baseline at the path in `env_var`, or at `default` when
    /// that is unset. `None` under `--no-compare` or when the file cannot
    /// be read.
    pub fn load(no_compare: bool, env_var: &str, default: &str) -> Option<Baseline> {
        if no_compare {
            return None;
        }
        let path = std::env::var(env_var).unwrap_or_else(|_| default.to_string());
        let text = std::fs::read_to_string(&path).ok()?;
        Some(Baseline { path, text })
    }
}

/// What the gate decided.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// The baseline holds no entries for this mode: nothing to compare.
    NoEntry,
    /// The baseline was recorded on `recorded` cores, not this host's
    /// count. Throughputs only transfer between same-width hosts, so the
    /// comparison is skipped, never gated.
    CoresMismatch {
        /// The baseline record's core count.
        recorded: usize,
    },
    /// `gated` entries were compared; `failures` describes each one that
    /// dropped by more than [`TOLERANCE`].
    Checked {
        /// Entries present in both the baseline and this run.
        gated: usize,
        /// One line per regressed entry.
        failures: Vec<String>,
    },
}

/// Compares this run's `(label, per_sec)` `entries`, taken on `cores`
/// cores, against the record of `baseline` (JSON text) for mode `quick`.
/// Only labels accepted by `gated` are compared; labels missing from this
/// run are skipped.
pub fn compare(
    baseline: &str,
    quick: bool,
    cores: usize,
    entries: &[(String, f64)],
    gated: impl Fn(&str) -> bool,
) -> Verdict {
    let record = record(baseline, quick);
    let old = scrape_entries(record);
    if old.is_empty() {
        return Verdict::NoEntry;
    }
    if let Some(recorded) = scrape_cores(record) {
        if recorded != cores {
            return Verdict::CoresMismatch { recorded };
        }
    }
    let mut failures = Vec::new();
    let mut count = 0usize;
    for (label, old_eps) in old.iter().filter(|(l, _)| gated(l)) {
        let Some((_, new_eps)) = entries.iter().find(|(l, _)| l == label) else {
            continue;
        };
        count += 1;
        if *new_eps < old_eps * (1.0 - TOLERANCE) {
            failures.push(format!(
                "{label}: {:.2}M/s -> {:.2}M/s ({:+.1}%)",
                old_eps / 1e6,
                new_eps / 1e6,
                (new_eps / old_eps - 1.0) * 100.0
            ));
        }
    }
    Verdict::Checked {
        gated: count,
        failures,
    }
}

/// Runs [`compare`] against `base` and reports the verdict on stdout;
/// exits the process with status 1 on a regression.
pub fn enforce(
    base: &Baseline,
    quick: bool,
    cores: usize,
    entries: &[(String, f64)],
    gated: impl Fn(&str) -> bool,
) {
    let path = &base.path;
    match compare(&base.text, quick, cores, entries, gated) {
        Verdict::NoEntry => {
            println!("no matching baseline entry (quick={quick}) in {path}; gate skipped");
        }
        Verdict::CoresMismatch { recorded } => println!(
            "WARNING: baseline in {path} was recorded on {recorded} core(s) \
             but this host has {cores}; throughputs are not comparable — gate skipped"
        ),
        Verdict::Checked { gated, failures } if failures.is_empty() => println!(
            "regression gate: ok ({gated} entries within {:.0}% of {path})",
            TOLERANCE * 100.0
        ),
        Verdict::Checked { failures, .. } => {
            eprintln!(
                "regression gate FAILED (tolerance {:.0}%):",
                TOLERANCE * 100.0
            );
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}

/// The record for mode `quick`: from its `"quick"` key to the next
/// record's `"bench"` key (or the end of the file); empty when absent.
fn record(json: &str, quick: bool) -> &str {
    let Some(at) = json.find(&format!("\"quick\":{quick}")) else {
        return "";
    };
    let tail = &json[at..];
    let end = tail[1..].find("\"bench\"").map_or(tail.len(), |i| i + 1);
    &tail[..end]
}

/// `(label, per_sec)` pairs of one record, in record order.
fn scrape_entries(record: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = record;
    while let Some(i) = rest.find("\"label\":\"") {
        rest = &rest[i + 9..];
        let Some(j) = rest.find('"') else { break };
        let label = rest[..j].to_string();
        let Some(k) = rest.find("\"per_sec\":") else {
            break;
        };
        rest = &rest[k + 10..];
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((label, v));
        }
    }
    out
}

/// The host core count a record was taken on, from its `"cores":N` field.
fn scrape_cores(record: &str) -> Option<usize> {
    let k = record.find("\"cores\":")?;
    let num: String = record[k + 8..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    num.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "[\n\
        {\"bench\":\"scale\",\"quick\":true,\"cores\":2,\"cells\":[\
        {\"label\":\"a\",\"per_sec\":1000000},{\"label\":\"b\",\"per_sec\":2000000}]}\n]\n";

    fn run(a: f64, b: f64) -> Vec<(String, f64)> {
        vec![("a".to_string(), a), ("b".to_string(), b)]
    }

    #[test]
    fn drop_beyond_tolerance_fails() {
        let v = compare(BASE, true, 2, &run(790_000.0, 2_000_000.0), |_| true);
        let Verdict::Checked { gated, failures } = v else {
            panic!("expected a checked verdict, got {v:?}");
        };
        assert_eq!(gated, 2);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].starts_with("a: 1.00M/s -> 0.79M/s"),
            "{failures:?}"
        );
    }

    #[test]
    fn drop_within_tolerance_passes() {
        let v = compare(BASE, true, 2, &run(810_000.0, 1_700_000.0), |_| true);
        assert_eq!(
            v,
            Verdict::Checked {
                gated: 2,
                failures: Vec::new()
            }
        );
    }

    #[test]
    fn cores_mismatch_warns_and_skips() {
        let v = compare(BASE, true, 4, &run(1.0, 1.0), |_| true);
        assert_eq!(v, Verdict::CoresMismatch { recorded: 2 });
    }

    #[test]
    fn missing_entry_skips() {
        // No record for the full mode at all.
        assert_eq!(
            compare(BASE, false, 2, &run(1.0, 1.0), |_| true),
            Verdict::NoEntry
        );
        // A label this run lacks, or one the filter excludes, is not gated.
        let only_b = vec![("b".to_string(), 1.0)];
        let v = compare(BASE, true, 2, &only_b, |l| l != "b");
        assert_eq!(
            v,
            Verdict::Checked {
                gated: 0,
                failures: Vec::new()
            }
        );
    }
}
