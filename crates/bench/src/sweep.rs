//! Parallel sweep engine for the figure/table binaries.
//!
//! Every benchmark binary is a *sweep*: a deterministic list of independent
//! (protocol, fabric, workload, parameter) simulation runs whose results are
//! then formatted serially. [`run_recorded`] fans the runs out across a
//! worker pool (`CORD_THREADS`, default = available parallelism; see
//! [`cord_sim::par`]) and returns them **in input order**, so the printed
//! tables are bit-for-bit identical to a serial run — the simulator itself
//! is deterministic and the runs share no state.
//!
//! Each sweep also appends a machine-readable record — per-run wall-clock
//! and simulated time plus the sweep's total wall-clock — to
//! `results/BENCH_sweeps.json` (override the path with `CORD_BENCH_JSON`,
//! disable with `CORD_BENCH_JSON=/dev/null`). The file is a JSON array with
//! one entry per line, keyed `"<sweep>#t<threads>"`; re-running a sweep at
//! the same thread count replaces its entry, so serial/parallel pairs
//! accumulate side by side for speedup reporting.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use cord_sim::par;

/// One labeled unit of work in a sweep.
pub type Job<'a, O> = (String, Box<dyn Fn() -> O + Send + Sync + 'a>);

/// A run's output plus its wall-clock cost.
pub struct Timed<O> {
    pub out: O,
    pub wall_ms: f64,
}

/// Runs `items` through `f` on the worker pool, timing each run.
/// Results come back in input order regardless of thread count.
pub fn run_timed<I: Sync, O: Send>(items: &[I], f: impl Fn(&I) -> O + Sync) -> Vec<Timed<O>> {
    par::run_parallel(items, |it| {
        let t0 = Instant::now();
        let out = f(it);
        Timed {
            out,
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        }
    })
}

/// Runs a labeled job list in parallel, records the sweep into
/// `BENCH_sweeps.json`, and returns the outputs in input order.
///
/// `sim_ns` extracts each run's simulated duration for the record (return
/// `0.0` for jobs without a meaningful simulated clock, e.g. checker or
/// analytic-model jobs).
pub fn run_recorded<O: Send>(
    sweep: &str,
    jobs: Vec<Job<'_, O>>,
    sim_ns: impl Fn(&O) -> f64,
) -> Vec<O> {
    run_recorded_with(sweep, jobs, sim_ns, |_| None)
}

/// Like [`run_recorded`], but also attaches a per-run metrics object to the
/// JSON record. `metrics` extracts a pre-serialized JSON object (e.g.
/// [`cord_sim::trace::MetricsSnapshot::to_json`]) from each output; runs
/// returning `None` are recorded without a `"metrics"` field.
pub fn run_recorded_with<O: Send>(
    sweep: &str,
    jobs: Vec<Job<'_, O>>,
    sim_ns: impl Fn(&O) -> f64,
    metrics: impl Fn(&O) -> Option<String>,
) -> Vec<O> {
    let mut rec = Recorder::new(sweep);
    let timed = run_timed(&jobs, |(_, f)| f());
    let mut out = Vec::with_capacity(timed.len());
    for ((label, _), t) in jobs.iter().zip(timed) {
        rec.record_with_metrics(label, t.wall_ms, sim_ns(&t.out), metrics(&t.out));
        out.push(t.out);
    }
    rec.finish();
    out
}

/// Accumulates one sweep's per-run measurements and writes the JSON record.
/// Use directly when the sweep's parallelism lives below the job level
/// (e.g. the litmus campaign, where each job is itself a parallel
/// placement exploration).
pub struct Recorder {
    sweep: String,
    threads: usize,
    start: Instant,
    runs: Vec<(String, f64, f64, Option<String>)>,
    deterministic: bool,
    path: Option<PathBuf>,
}

impl Recorder {
    /// Starts recording a sweep; the total wall-clock runs from here.
    pub fn new(sweep: &str) -> Self {
        Recorder {
            sweep: sweep.to_string(),
            threads: par::thread_count(),
            start: Instant::now(),
            runs: Vec::new(),
            deterministic: false,
            path: None,
        }
    }

    /// Redirects this recorder's entry to `path` instead of the shared
    /// [`json_path`] file (which `CORD_BENCH_JSON` governs). Used by sweeps
    /// that own a dedicated record file, e.g. the checker campaign's
    /// `results/BENCH_check.json`.
    pub fn at_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Overrides the recorded thread count. [`Recorder::new`] snapshots the
    /// campaign pool width ([`par::thread_count`]); sweeps whose parallelism
    /// lives elsewhere (e.g. `CORD_CHECK_THREADS` inside one exploration)
    /// set the width they actually ran at so the `#t<N>` key is honest.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Like [`Recorder::new`], but the written entry is byte-reproducible:
    /// the key is the bare sweep name (no `#t<N>` thread suffix), the
    /// recorded thread count and total wall-clock are both written as 0,
    /// and callers are expected to record simulated quantities only. Used
    /// by campaigns whose JSON record must be identical across machines
    /// and worker counts (e.g. the fuzz campaign).
    pub fn new_deterministic(sweep: &str) -> Self {
        Recorder {
            threads: 0,
            deterministic: true,
            ..Self::new(sweep)
        }
    }

    /// Records one run.
    pub fn record(&mut self, label: &str, wall_ms: f64, sim_ns: f64) {
        self.record_with_metrics(label, wall_ms, sim_ns, None);
    }

    /// Records one run together with an optional pre-serialized metrics
    /// JSON object (appended verbatim as the run's `"metrics"` field).
    pub fn record_with_metrics(
        &mut self,
        label: &str,
        wall_ms: f64,
        sim_ns: f64,
        metrics: Option<String>,
    ) {
        self.runs
            .push((label.to_string(), wall_ms, sim_ns, metrics));
    }

    /// Writes this sweep's entry into the JSON file (read-modify-write,
    /// replacing any previous entry with the same sweep name and thread
    /// count). Failures to write are reported on stderr but never fail the
    /// benchmark itself.
    pub fn finish(self) {
        let total_ms = if self.deterministic {
            0.0
        } else {
            self.start.elapsed().as_secs_f64() * 1e3
        };
        let key = if self.deterministic {
            self.sweep.clone()
        } else {
            format!("{}#t{}", self.sweep, self.threads)
        };
        let runs = self
            .runs
            .iter()
            .map(|(label, wall, sim, metrics)| {
                let m = match metrics {
                    Some(json) => format!(",\"metrics\":{json}"),
                    None => String::new(),
                };
                format!(
                    "{{\"label\":{},\"wall_ms\":{wall:.3},\"sim_ns\":{sim:.1}{m}}}",
                    json_str(label)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let entry = format!(
            "{{\"key\":{},\"sweep\":{},\"threads\":{},\"total_wall_ms\":{total_ms:.3},\"runs\":[{runs}]}}",
            json_str(&key),
            json_str(&self.sweep),
            self.threads
        );
        let path = self
            .path
            .unwrap_or_else(|| json_path("results/BENCH_sweeps.json"));
        if let Err(e) = merge_entry(&path, &key, &entry) {
            eprintln!("warning: could not record sweep {key}: {e}");
        }
    }
}

/// A sweep-record path: `CORD_BENCH_JSON` when set, else `default`.
pub fn json_path(default: &str) -> PathBuf {
    std::env::var_os("CORD_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(default))
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Replaces-or-appends `entry` (a one-line JSON object with the given
/// `key`) in the record file at `path`, keeping it a valid JSON array with
/// one entry per line.
fn merge_entry(path: &std::path::Path, key: &str, entry: &str) -> std::io::Result<()> {
    if path.as_os_str() == "/dev/null" {
        return Ok(());
    }
    let mut entries: Vec<String> = match std::fs::read_to_string(path) {
        Ok(text) => text
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with('{'))
            .map(|l| l.strip_suffix(',').unwrap_or(l).to_string())
            .collect(),
        Err(_) => Vec::new(),
    };
    let needle = format!("\"key\":{}", json_str(key));
    entries.retain(|e| !e.contains(&needle));
    entries.push(entry.to_string());
    entries.sort(); // keyed entries, deterministic file order
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "[")?;
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 < entries.len() { "," } else { "" };
        writeln!(f, "{e}{sep}")?;
    }
    writeln!(f, "]")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh record file under the temp directory.
    fn temp_record(dir: &str, file: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(file);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn timed_results_arrive_in_input_order() {
        let items: Vec<u64> = (0..17).collect();
        let out = run_timed(&items, |&x| x * x);
        let vals: Vec<u64> = out.iter().map(|t| t.out).collect();
        assert_eq!(vals, items.iter().map(|x| x * x).collect::<Vec<_>>());
        assert!(out.iter().all(|t| t.wall_ms >= 0.0));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn metrics_field_is_embedded_verbatim() {
        let path = temp_record("cord_sweep_metrics_test", "BENCH_sweeps.json");
        let mut r = Recorder::new("unit-metrics").at_path(&path);
        r.record_with_metrics("a", 1.0, 2.0, Some("{\"events\":7}".into()));
        r.record("b", 3.0, 4.0);
        r.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"metrics\":{\"events\":7}"), "{text}");
        // The run without metrics must not gain an empty field.
        assert!(
            !text.contains("\"label\":\"b\",\"wall_ms\":3.000,\"sim_ns\":4.0,"),
            "{text}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deterministic_recorder_writes_stable_bytes() {
        let path = temp_record("cord_sweep_det_test", "BENCH_fuzz.json");
        let write_once = || {
            let mut r = Recorder::new_deterministic("fuzz").at_path(&path);
            r.record("s0000/CORD/pass", 0.0, 123.4);
            r.finish();
            std::fs::read_to_string(&path).unwrap()
        };
        let first = write_once();
        let second = write_once();
        assert_eq!(first, second, "re-running must not change a single byte");
        assert!(first.contains("\"key\":\"fuzz\""), "{first}");
        assert!(first.contains("\"threads\":0"), "{first}");
        assert!(first.contains("\"total_wall_ms\":0.000"), "{first}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn at_path_and_with_threads_override_destination_and_key() {
        let path = temp_record("cord_sweep_at_path_test", "BENCH_check.json");
        let mut r = Recorder::new("check").with_threads(8).at_path(&path);
        r.record("MP@[0, 1]", 1.0, 0.0);
        r.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"key\":\"check#t8\""), "{text}");
        assert!(text.contains("\"threads\":8"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn merge_keeps_one_entry_per_key() {
        let path = temp_record("cord_sweep_test", "BENCH_sweeps.json");
        let mut r = Recorder::new("unit").at_path(&path);
        r.record("a", 1.0, 2.0);
        r.finish();
        let mut r = Recorder::new("unit").at_path(&path);
        r.record("b", 3.0, 4.0);
        r.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches("\"sweep\":\"unit\"").count(), 1, "{text}");
        assert!(text.contains("\"label\":\"b\""), "{text}");
        assert!(text.trim().starts_with('['), "{text}");
        assert!(text.trim().ends_with(']'), "{text}");
        let _ = std::fs::remove_file(&path);
    }
}
