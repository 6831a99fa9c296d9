//! Continuous observability: deterministic sim-time series, a failure
//! flight recorder, a wall-clock self-profiler, and live campaign progress.
//!
//! The [`trace`](crate::trace) module answers "what happened, event by
//! event"; this module answers the three follow-on questions the paper's
//! evaluation leans on:
//!
//! * **Where does pressure build over simulated time?** — [`Sampler`]
//!   records periodic snapshots (event-queue rung depth, in-flight messages
//!   per class, transport unacked depth, table occupancy) into a
//!   [`SeriesSet`]. Samples are keyed by *simulated* time and taken at
//!   deterministic points of the event loop, so the series is bit-identical
//!   at any worker count (`CORD_THREADS` / `CORD_SIM_THREADS` /
//!   `CORD_CHECK_THREADS`). Export as JSON ([`render_json`]) or Prometheus
//!   text exposition format ([`render_prometheus`]).
//! * **What was the simulator doing when it died?** — a flight recorder:
//!   the runner keeps a bounded [`RingSink`] of the most recent trace
//!   events per partition and, on `RunError`/watchdog/worker panic, dumps
//!   them to a portable text file ([`render_flight`]) that
//!   [`parse_flight`] reads back for replay (`trace --flight`).
//! * **Where does the wall-clock go?** — [`Profiler`] accounts host time
//!   per event class and per sharded-round phase, with collapsed-stack
//!   output ([`ProfileSummary::collapsed`]) consumable by standard
//!   flamegraph tooling. Profiles measure the *host*, so they are
//!   explicitly non-deterministic and never enter run fingerprints.
//!
//! [`Progress`] is the shared live status line for campaign bins (`fuzz`,
//! `chaos`, `litmus`, `scale`): runs/sec, completion, ETA, flagged
//! count. It writes `\r`-rewritten lines to stderr only when stderr is a
//! terminal (or `CORD_PROGRESS` is set truthy); `CORD_PROGRESS=0`
//! silences it unconditionally.
//!
//! Everything here follows the tracer's zero-cost discipline: the run's
//! [`Tracer`](crate::trace::Tracer) holds the sampler, profiler and flight
//! ring as `Option`s, and a disabled pillar costs one branch per event.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::IsTerminal;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::time::Time;
use crate::trace::{MetricsSnapshot, RingSink, TraceData, TraceEvent};

// ---------------------------------------------------------------------------
// Pillar 1: deterministic sim-time series
// ---------------------------------------------------------------------------

/// A set of named time series sampled on a fixed simulated-time grid.
///
/// Keys are series names (`"queue_depth"`, `"xport_unacked"`, …; the
/// sharded runner prefixes partition series `"p<host>."`); values are
/// `(t_ps, value)` pairs in sampling order. `BTreeMap` keeps export
/// ordering deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeriesSet {
    /// Sampling grid width in picoseconds.
    pub interval_ps: u64,
    /// Named series, each a list of `(t_ps, value)` samples.
    pub series: BTreeMap<String, Vec<(u64, u64)>>,
}

impl SeriesSet {
    /// Appends one sample, allocating the key only on first occurrence.
    pub fn record(&mut self, name: &str, t_ps: u64, value: u64) {
        if let Some(s) = self.series.get_mut(name) {
            s.push((t_ps, value));
        } else {
            self.series.insert(name.to_string(), vec![(t_ps, value)]);
        }
    }

    /// Merges `other` in, prefixing every series name with `prefix`. The
    /// sharded runner uses this to fold per-partition sets into one
    /// result set in host order.
    pub fn absorb_prefixed(&mut self, prefix: &str, other: SeriesSet) {
        if self.interval_ps == 0 {
            self.interval_ps = other.interval_ps;
        }
        for (name, samples) in other.series {
            self.series.insert(format!("{prefix}{name}"), samples);
        }
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

/// Periodic sampling driver: decides *when* the event loop should snapshot
/// gauges into its [`SeriesSet`].
///
/// The runner checks [`due`](Sampler::due) before dispatching each event;
/// when due, it calls [`begin_sample`](Sampler::begin_sample) (which stamps
/// the sample at the grid boundary `floor(now/interval)*interval` and
/// arms the next boundary) and then records its gauges. One sample is
/// taken per crossed boundary; quiet grid points with no events simply
/// collapse into the next crossing, which is itself a deterministic
/// function of the event sequence.
#[derive(Debug)]
pub struct Sampler {
    interval_ps: u64,
    next_ps: u64,
    set: SeriesSet,
}

impl Sampler {
    /// Creates a sampler on an `interval`-wide grid (clamped ≥ 1 ps).
    pub fn new(interval: Time) -> Self {
        let interval_ps = interval.as_ps().max(1);
        Sampler {
            interval_ps,
            next_ps: 0,
            set: SeriesSet {
                interval_ps,
                series: BTreeMap::new(),
            },
        }
    }

    /// The sampling grid width.
    pub fn interval(&self) -> Time {
        Time::from_ps(self.interval_ps)
    }

    /// Whether the loop has crossed the next grid boundary.
    #[inline]
    pub fn due(&self, now_ps: u64) -> bool {
        now_ps >= self.next_ps
    }

    /// Stamps the pending sample: returns the grid-aligned timestamp and
    /// arms the next boundary.
    pub fn begin_sample(&mut self, now_ps: u64) -> u64 {
        let boundary = (now_ps / self.interval_ps) * self.interval_ps;
        self.next_ps = boundary + self.interval_ps;
        boundary
    }

    /// Records one gauge value at `t_ps` (normally the value returned by
    /// [`begin_sample`](Sampler::begin_sample)).
    pub fn record(&mut self, name: &str, t_ps: u64, value: u64) {
        self.set.record(name, t_ps, value);
    }

    /// Merges a partition's series in under `prefix` (see
    /// [`SeriesSet::absorb_prefixed`]).
    pub(crate) fn absorb_prefixed(&mut self, prefix: &str, other: SeriesSet) {
        self.set.absorb_prefixed(prefix, other);
    }

    /// Consumes the sampler, returning its series.
    pub fn finish(self) -> SeriesSet {
        self.set
    }
}

/// Renders a [`SeriesSet`] (plus the run's metrics snapshot, when one was
/// recorded) as a compact JSON object. Integer-only formatting keeps the
/// output byte-deterministic.
pub fn render_json(set: &SeriesSet, metrics: Option<&MetricsSnapshot>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"interval_ps\":{},\"series\":{{",
        set.interval_ps
    ));
    let mut first = true;
    for (name, samples) in &set.series {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{name}\":["));
        for (i, (t, v)) in samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{t},{v}]"));
        }
        out.push(']');
    }
    out.push('}');
    match metrics {
        Some(m) => {
            out.push_str(&format!(",\"metrics\":{}", m.to_json()));
            out.push_str(",\"timelines\":{");
            for (i, (key, tl)) in m.timelines.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let bins: Vec<String> = tl.bins().iter().map(u64::to_string).collect();
                out.push_str(&format!(
                    "\"{key}\":{{\"interval_ps\":{},\"bins\":[{}]}}",
                    tl.interval().as_ps(),
                    bins.join(",")
                ));
            }
            out.push('}');
        }
        None => out.push_str(",\"metrics\":null"),
    }
    out.push('}');
    out
}

/// Renders a [`SeriesSet`] (plus optional metrics counters) in Prometheus
/// text exposition format.
///
/// Sampled gauges become `cord_obs{series="<name>"} <value> <t_ps>` rows —
/// the trailing timestamp is *simulated picoseconds*, not wall-clock
/// milliseconds, which is what makes the export deterministic. Trace event
/// totals become the `cord_trace_events_total` counter family. All maps
/// are ordered, all values integers, so the text is byte-identical across
/// worker counts.
pub fn render_prometheus(set: &SeriesSet, metrics: Option<&MetricsSnapshot>) -> String {
    let mut out = String::new();
    out.push_str(
        "# HELP cord_obs Gauges sampled on the simulated-time grid (timestamp = sim ps).\n",
    );
    out.push_str("# TYPE cord_obs gauge\n");
    for (name, samples) in &set.series {
        for (t, v) in samples {
            out.push_str(&format!("cord_obs{{series=\"{name}\"}} {v} {t}\n"));
        }
    }
    if let Some(m) = metrics {
        out.push_str("# HELP cord_trace_events_total Trace event totals by kind.\n");
        out.push_str("# TYPE cord_trace_events_total counter\n");
        for (kind, n) in &m.counts {
            out.push_str(&format!("cord_trace_events_total{{kind=\"{kind}\"}} {n}\n"));
        }
        out.push_str("# HELP cord_table_peak_entries Peak occupancy per bounded table.\n");
        out.push_str("# TYPE cord_table_peak_entries gauge\n");
        for (key, v) in &m.table_peaks {
            out.push_str(&format!("cord_table_peak_entries{{table=\"{key}\"}} {v}\n"));
        }
    }
    out
}

/// Creates `path`'s parent directories, if it names any.
pub(crate) fn create_parent(path: &str) -> std::io::Result<()> {
    match std::path::Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
}

/// Writes `text` to `path`, creating parent directories as needed.
pub fn write_output(path: &str, text: &str) -> std::io::Result<()> {
    create_parent(path)?;
    std::fs::write(path, text)
}

// ---------------------------------------------------------------------------
// Pillar 2: flight recorder
// ---------------------------------------------------------------------------

/// A parsed flight-recorder dump: the error that triggered it plus the
/// retained tail of trace events, each tagged with its partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// First line of the `RunError` (or panic message) that triggered the
    /// dump.
    pub error: String,
    /// `(partition, event)` pairs in file order (per-partition emission
    /// order; merge across partitions by `(at, partition, seq)`).
    pub events: Vec<(u32, TraceEvent)>,
}

impl FlightDump {
    /// The retained events merged across partitions into one global order
    /// `(at, partition, seq)` — the same order the sharded runner uses for
    /// trace merging.
    pub fn merged(&self) -> Vec<(u32, TraceEvent)> {
        let mut out = self.events.clone();
        out.sort_by_key(|(p, ev)| (ev.at, *p, ev.seq));
        out
    }
}

/// Renders a flight-recorder dump: a `# cord-flight v1` header, the
/// triggering error, per-partition ring summaries, then one line per
/// retained event (`<part> <at_ps> <seq> <kind> k=v ...`).
pub fn render_flight(error: &str, parts: &[(u32, RingSink)]) -> String {
    let mut out = String::from("# cord-flight v1\n");
    let first_line = error.lines().next().unwrap_or("");
    out.push_str(&format!("# error: {first_line}\n"));
    for (p, ring) in parts {
        out.push_str(&format!(
            "# partition {p}: {} event(s) retained (dropped {})\n",
            ring.len(),
            ring.dropped()
        ));
    }
    for (p, ring) in parts {
        for ev in ring.events() {
            out.push_str(&render_flight_line(*p, ev));
            out.push('\n');
        }
    }
    out
}

fn render_flight_line(part: u32, ev: &TraceEvent) -> String {
    let head = format!(
        "{part} {} {} {}",
        ev.at.as_ps(),
        ev.seq,
        ev.data.kind_name()
    );
    let body = match ev.data {
        TraceData::MsgSend {
            src,
            dst,
            kind,
            class,
            bytes,
            arrive,
        } => format!(
            "src={src} dst={dst} kind={kind} class={class} bytes={bytes} arrive={}",
            arrive.as_ps()
        ),
        TraceData::MsgDeliver {
            src,
            dst,
            kind,
            class,
            bytes,
        } => format!("src={src} dst={dst} kind={kind} class={class} bytes={bytes}"),
        TraceData::StoreIssue {
            core,
            tid,
            addr,
            bytes,
            release,
            epoch,
        } => format!(
            "core={core} tid={tid} addr={addr} bytes={bytes} release={} epoch={}",
            release as u8,
            fmt_opt(epoch)
        ),
        TraceData::StoreCommit {
            dir,
            core,
            tid,
            addr,
            release,
            epoch,
        } => format!(
            "dir={dir} core={core} tid={tid} addr={addr} release={} epoch={}",
            release as u8,
            fmt_opt(epoch)
        ),
        TraceData::EpochOpen { core, epoch } => format!("core={core} epoch={epoch}"),
        TraceData::EpochClose {
            core,
            epoch,
            fanout,
        } => format!("core={core} epoch={epoch} fanout={fanout}"),
        TraceData::NotifyRequest {
            core,
            pending_dir,
            dst_dir,
            epoch,
        } => format!("core={core} pending_dir={pending_dir} dst_dir={dst_dir} epoch={epoch}"),
        TraceData::NotifyArrive { dir, core, epoch } => {
            format!("dir={dir} core={core} epoch={epoch}")
        }
        TraceData::TableInsert {
            node,
            id,
            table,
            occ,
            cap,
        }
        | TraceData::TableEvict {
            node,
            id,
            table,
            occ,
            cap,
        } => format!("node={node} id={id} table={table} occ={occ} cap={cap}"),
        TraceData::TableStallFull {
            node,
            id,
            table,
            cap,
        } => format!("node={node} id={id} table={table} cap={cap}"),
        TraceData::StallBegin { core, cause } => format!("core={core} cause={cause}"),
        TraceData::StallEnd { core, cause, since } => {
            format!("core={core} cause={cause} since={}", since.as_ps())
        }
        TraceData::FaultInject {
            src,
            dst,
            class,
            fault,
            extra,
        } => format!(
            "src={src} dst={dst} class={class} fault={fault} extra={}",
            extra.as_ps()
        ),
        TraceData::XportRetrans {
            src,
            dst,
            seq,
            attempt,
        } => format!("src={src} dst={dst} seq={seq} attempt={attempt}"),
        TraceData::XportDupDrop { src, dst, seq } => format!("src={src} dst={dst} seq={seq}"),
        TraceData::CrashInject { host, kind, units } => {
            format!("host={host} kind={kind} units={units}")
        }
        TraceData::RecoverBegin { core, dir } => format!("core={core} dir={dir}"),
        TraceData::RecoverEnd { core, since, sends } => {
            format!("core={core} since={} sends={sends}", since.as_ps())
        }
        TraceData::XportStaleRej {
            src,
            dst,
            seq,
            sess,
        } => format!("src={src} dst={dst} seq={seq} sess={sess}"),
        TraceData::StaleDrop {
            dir,
            core,
            ep,
            what,
        } => {
            format!("dir={dir} core={core} ep={ep} what={what}")
        }
    };
    format!("{head} {body}")
}

fn fmt_opt(e: Option<u64>) -> String {
    match e {
        Some(v) => v.to_string(),
        None => "-".into(),
    }
}

/// Interns a parsed label so reconstructed [`TraceData`] can carry the
/// `&'static str` fields the tracer vocabulary uses. The set of distinct
/// labels is small and fixed by the emitting layers, so the leak is
/// bounded.
fn intern_label(s: &str) -> &'static str {
    static CACHE: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let mut map = CACHE.lock().expect("label cache poisoned");
    if let Some(&l) = map.get(s) {
        return l;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    map.insert(s.to_string(), leaked);
    leaked
}

/// Parses a flight-recorder dump produced by [`render_flight`].
pub fn parse_flight(text: &str) -> Result<FlightDump, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(l) if l.trim() == "# cord-flight v1" => {}
        other => return Err(format!("not a cord-flight v1 file (first line: {other:?})")),
    }
    let mut error = String::new();
    let mut events = Vec::new();
    for (n, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# error: ") {
            error = rest.to_string();
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let ev = parse_flight_line(line).map_err(|e| format!("line {}: {e}", n + 2))?;
        events.push(ev);
    }
    Ok(FlightDump { error, events })
}

fn parse_flight_line(line: &str) -> Result<(u32, TraceEvent), String> {
    let mut toks = line.split_ascii_whitespace();
    let mut head = |what: &str| toks.next().ok_or_else(|| format!("missing {what}"));
    let part: u32 = head("partition")?
        .parse()
        .map_err(|e| format!("partition: {e}"))?;
    let at_ps: u64 = head("time")?.parse().map_err(|e| format!("time: {e}"))?;
    let seq: u64 = head("seq")?.parse().map_err(|e| format!("seq: {e}"))?;
    let kind = head("kind")?;
    let mut fields = HashMap::new();
    for tok in toks {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("malformed field {tok:?}"))?;
        fields.insert(k, v);
    }
    let num = |k: &str| -> Result<u64, String> {
        fields
            .get(k)
            .ok_or_else(|| format!("missing field {k}"))?
            .parse()
            .map_err(|e| format!("field {k}: {e}"))
    };
    let num32 = |k: &str| -> Result<u32, String> {
        u32::try_from(num(k)?).map_err(|e| format!("field {k}: {e}"))
    };
    let flag = |k: &str| match num(k)? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(format!("field {k}: {v} is not 0 or 1")),
    };
    let label = |k: &str| -> Result<&'static str, String> {
        Ok(intern_label(
            fields.get(k).ok_or_else(|| format!("missing field {k}"))?,
        ))
    };
    let opt = |k: &str| -> Result<Option<u64>, String> {
        match fields.get(k) {
            Some(&"-") => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|e| format!("field {k}: {e}")),
            None => Err(format!("missing field {k}")),
        }
    };
    let data = match kind {
        "msg_send" => TraceData::MsgSend {
            src: num32("src")?,
            dst: num32("dst")?,
            kind: label("kind")?,
            class: label("class")?,
            bytes: num("bytes")?,
            arrive: Time::from_ps(num("arrive")?),
        },
        "msg_deliver" => TraceData::MsgDeliver {
            src: num32("src")?,
            dst: num32("dst")?,
            kind: label("kind")?,
            class: label("class")?,
            bytes: num("bytes")?,
        },
        "store_issue" => TraceData::StoreIssue {
            core: num32("core")?,
            tid: num("tid")?,
            addr: num("addr")?,
            bytes: num32("bytes")?,
            release: flag("release")?,
            epoch: opt("epoch")?,
        },
        "store_commit" => TraceData::StoreCommit {
            dir: num32("dir")?,
            core: num32("core")?,
            tid: num("tid")?,
            addr: num("addr")?,
            release: flag("release")?,
            epoch: opt("epoch")?,
        },
        "epoch_open" => TraceData::EpochOpen {
            core: num32("core")?,
            epoch: num("epoch")?,
        },
        "epoch_close" => TraceData::EpochClose {
            core: num32("core")?,
            epoch: num("epoch")?,
            fanout: num32("fanout")?,
        },
        "notify_request" => TraceData::NotifyRequest {
            core: num32("core")?,
            pending_dir: num32("pending_dir")?,
            dst_dir: num32("dst_dir")?,
            epoch: num("epoch")?,
        },
        "notify_arrive" => TraceData::NotifyArrive {
            dir: num32("dir")?,
            core: num32("core")?,
            epoch: num("epoch")?,
        },
        "table_insert" => TraceData::TableInsert {
            node: label("node")?,
            id: num32("id")?,
            table: label("table")?,
            occ: num("occ")?,
            cap: num("cap")?,
        },
        "table_evict" => TraceData::TableEvict {
            node: label("node")?,
            id: num32("id")?,
            table: label("table")?,
            occ: num("occ")?,
            cap: num("cap")?,
        },
        "table_stall_full" => TraceData::TableStallFull {
            node: label("node")?,
            id: num32("id")?,
            table: label("table")?,
            cap: num("cap")?,
        },
        "stall_begin" => TraceData::StallBegin {
            core: num32("core")?,
            cause: label("cause")?,
        },
        "stall_end" => TraceData::StallEnd {
            core: num32("core")?,
            cause: label("cause")?,
            since: Time::from_ps(num("since")?),
        },
        "fault_inject" => TraceData::FaultInject {
            src: num32("src")?,
            dst: num32("dst")?,
            class: label("class")?,
            fault: label("fault")?,
            extra: Time::from_ps(num("extra")?),
        },
        "xport_retrans" => TraceData::XportRetrans {
            src: num32("src")?,
            dst: num32("dst")?,
            seq: num("seq")?,
            attempt: num32("attempt")?,
        },
        "xport_dup_drop" => TraceData::XportDupDrop {
            src: num32("src")?,
            dst: num32("dst")?,
            seq: num("seq")?,
        },
        "crash_inject" => TraceData::CrashInject {
            host: num32("host")?,
            kind: label("kind")?,
            units: num32("units")?,
        },
        "recover_begin" => TraceData::RecoverBegin {
            core: num32("core")?,
            dir: num32("dir")?,
        },
        "recover_end" => TraceData::RecoverEnd {
            core: num32("core")?,
            since: Time::from_ps(num("since")?),
            sends: num32("sends")?,
        },
        "xport_stale_rej" => TraceData::XportStaleRej {
            src: num32("src")?,
            dst: num32("dst")?,
            seq: num("seq")?,
            sess: num32("sess")?,
        },
        "stale_drop" => TraceData::StaleDrop {
            dir: num32("dir")?,
            core: num32("core")?,
            ep: num("ep")?,
            what: label("what")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok((
        part,
        TraceEvent {
            at: Time::from_ps(at_ps),
            seq,
            data,
        },
    ))
}

// ---------------------------------------------------------------------------
// Pillar 3: wall-clock self-profiler
// ---------------------------------------------------------------------------

/// One profiled bucket: invocation count and accumulated host nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfCell {
    /// Number of timed invocations.
    pub count: u64,
    /// Accumulated wall-clock nanoseconds.
    pub nanos: u64,
}

/// Wall-clock accounting per event class and per sharded-round phase.
///
/// The numbers measure the *host*, not the simulation, so they are
/// non-deterministic by construction: they never enter fingerprints,
/// never gate regressions, and are marked `"non_deterministic":true` in
/// every JSON export.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    classes: ProfCells,
    phases: ProfCells,
}

type ProfCells = BTreeMap<&'static str, ProfCell>;

fn add_cell(cells: &mut ProfCells, label: &'static str, count: u64, nanos: u64) {
    let c = cells.entry(label).or_default();
    c.count += count;
    c.nanos += nanos;
}

fn cell_rows(cells: &ProfCells) -> Vec<(String, u64, u64)> {
    cells
        .iter()
        .map(|(&k, c)| (k.to_string(), c.count, c.nanos))
        .collect()
}

impl Profiler {
    /// Accounts `nanos` of host time to event class `label`.
    pub fn add_class(&mut self, label: &'static str, nanos: u64) {
        add_cell(&mut self.classes, label, 1, nanos);
    }

    /// Accounts `nanos` of host time to sharded-round phase `label`
    /// (`"execute"`, `"inbox_merge"`, `"barrier_wait"`).
    pub fn add_phase(&mut self, label: &'static str, nanos: u64) {
        add_cell(&mut self.phases, label, 1, nanos);
    }

    /// Folds `other`'s buckets into this profiler (partition → parent).
    pub fn merge(&mut self, other: &Profiler) {
        for (mine, theirs) in [
            (&mut self.classes, &other.classes),
            (&mut self.phases, &other.phases),
        ] {
            for (k, c) in theirs {
                add_cell(mine, k, c.count, c.nanos);
            }
        }
    }

    /// Snapshots the accumulated buckets.
    pub fn summary(&self) -> ProfileSummary {
        ProfileSummary {
            classes: cell_rows(&self.classes),
            phases: cell_rows(&self.phases),
        }
    }
}

/// A cloneable snapshot of a [`Profiler`], carried on `RunResult`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileSummary {
    /// `(event class, count, nanos)` rows, sorted by class.
    pub classes: Vec<(String, u64, u64)>,
    /// `(round phase, count, nanos)` rows, sorted by phase.
    pub phases: Vec<(String, u64, u64)>,
}

impl ProfileSummary {
    /// Whether nothing was profiled.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty() && self.phases.is_empty()
    }

    /// Renders collapsed-stack lines (`cord;event;<class> <nanos>`)
    /// consumable by standard flamegraph tooling.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (k, _, ns) in &self.classes {
            out.push_str(&format!("cord;event;{k} {ns}\n"));
        }
        for (k, _, ns) in &self.phases {
            out.push_str(&format!("cord;round;{k} {ns}\n"));
        }
        out
    }

    /// Renders the summary as JSON, explicitly marked non-deterministic.
    /// Field names (`"class"`, `"ns"`) are deliberately distinct from the
    /// benchmark schema's `"label"`/`"per_sec"` so regression scrapers
    /// never pick profile rows up as gateable entries.
    pub fn to_json(&self) -> String {
        let row = |(k, count, ns): &(String, u64, u64), tag: &str| {
            format!("{{\"{tag}\":\"{k}\",\"count\":{count},\"ns\":{ns}}}")
        };
        let classes: Vec<String> = self.classes.iter().map(|c| row(c, "class")).collect();
        let phases: Vec<String> = self.phases.iter().map(|p| row(p, "phase")).collect();
        format!(
            "{{\"non_deterministic\":true,\"classes\":[{}],\"phases\":[{}]}}",
            classes.join(","),
            phases.join(",")
        )
    }
}

/// Appends `summary` as collapsed-stack lines to `path`, truncating the
/// file on the first write of this process so repeated runs within one
/// process accumulate while a fresh process starts clean.
pub fn write_folded(path: &str, summary: &ProfileSummary) -> std::io::Result<()> {
    static TRUNCATED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let first = TRUNCATED
        .lock()
        .expect("folded path set poisoned")
        .insert(path.to_string());
    create_parent(path)?;
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(!first)
        .write(true)
        .truncate(first)
        .open(path)?;
    f.write_all(summary.collapsed().as_bytes())
}

/// A cheap scope timer: measures wall-clock when armed, is a no-op (and
/// never reads the clock) when not.
#[derive(Debug)]
pub struct ScopeTimer(Option<Instant>);

impl ScopeTimer {
    /// Starts timing iff `armed`.
    #[inline]
    pub fn start(armed: bool) -> Self {
        ScopeTimer(armed.then(Instant::now))
    }

    /// Elapsed nanoseconds since start, or `None` when unarmed.
    #[inline]
    pub fn stop(&self) -> Option<u64> {
        self.0.map(|t0| t0.elapsed().as_nanos() as u64)
    }
}

// ---------------------------------------------------------------------------
// Live campaign progress line
// ---------------------------------------------------------------------------

/// A live, rate-limited stderr status line for campaign bins.
///
/// Shared by reference across worker closures (all state is atomic).
/// Enabled when stderr is a terminal or `CORD_PROGRESS` is set truthy;
/// `CORD_PROGRESS=0` silences it unconditionally, so batch/CI output and
/// deterministic test stdout never see it.
#[derive(Debug)]
pub struct Progress {
    label: &'static str,
    total: u64,
    start: Instant,
    done: AtomicU64,
    flagged: AtomicU64,
    /// Milliseconds (since `start`) of the last redraw, for rate limiting.
    last_ms: AtomicU64,
    enabled: bool,
}

impl Progress {
    /// Creates a progress line for `total` units of work under `label`,
    /// honoring `CORD_PROGRESS` and the terminal check.
    pub fn new(label: &'static str, total: u64) -> Self {
        let enabled = match std::env::var("CORD_PROGRESS") {
            Ok(v) if v == "0" => false,
            Ok(v) if !v.is_empty() => true,
            _ => std::io::stderr().is_terminal(),
        };
        Progress {
            label,
            total,
            start: Instant::now(),
            done: AtomicU64::new(0),
            flagged: AtomicU64::new(0),
            last_ms: AtomicU64::new(0),
            enabled,
        }
    }

    /// Whether the line draws at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Marks `n` units complete and redraws (rate-limited to ~5 Hz).
    pub fn inc(&self, n: u64) {
        let done = self.done.fetch_add(n, Ordering::Relaxed) + n;
        if !self.enabled {
            return;
        }
        let now_ms = self.start.elapsed().as_millis() as u64;
        let last = self.last_ms.load(Ordering::Relaxed);
        if now_ms.saturating_sub(last) < 200 && done < self.total {
            return;
        }
        if self
            .last_ms
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return; // another worker is redrawing
        }
        self.draw(done, now_ms);
    }

    /// Marks one unit as noteworthy (a failure/violation), shown on the
    /// line as `flagged N`.
    pub fn flag(&self) {
        self.flagged.fetch_add(1, Ordering::Relaxed);
    }

    fn draw(&self, done: u64, now_ms: u64) {
        let secs = (now_ms as f64 / 1e3).max(1e-3);
        let rate = done as f64 / secs;
        let pct = (done * 100).checked_div(self.total).unwrap_or(0);
        let eta = if rate > 0.0 && self.total > done {
            format!(" eta {:.0}s", (self.total - done) as f64 / rate)
        } else {
            String::new()
        };
        let flagged = self.flagged.load(Ordering::Relaxed);
        let flags = if flagged > 0 {
            format!(" flagged {flagged}")
        } else {
            String::new()
        };
        eprint!(
            "\r{}: {done}/{} ({pct}%) {rate:.1}/s{eta}{flags}    ",
            self.label, self.total
        );
    }

    /// Clears the line and, when drawing was enabled and `summary` is
    /// non-empty, prints `summary` in its place.
    pub fn finish(&self, summary: &str) {
        if !self.enabled {
            return;
        }
        eprint!("\r{:80}\r", "");
        if !summary.is_empty() {
            eprintln!("{summary}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_stamps_grid_boundaries() {
        let mut s = Sampler::new(Time::from_ns(10));
        assert!(s.due(0));
        let t0 = s.begin_sample(0);
        assert_eq!(t0, 0);
        s.record("q", t0, 3);
        assert!(!s.due(5_000), "within first interval");
        assert!(s.due(10_000));
        // Skipped boundaries collapse: the next event at 37 ns samples once
        // at the 30 ns boundary.
        let t1 = s.begin_sample(37_000);
        assert_eq!(t1, 30_000);
        s.record("q", t1, 7);
        assert!(!s.due(39_999));
        assert!(s.due(40_000));
        let set = s.finish();
        assert_eq!(set.interval_ps, 10_000);
        assert_eq!(set.series["q"], vec![(0, 3), (30_000, 7)]);
    }

    #[test]
    fn series_merge_prefixes_deterministically() {
        let mut a = SeriesSet::default();
        let mut p0 = SeriesSet {
            interval_ps: 100,
            ..Default::default()
        };
        p0.record("q", 0, 1);
        let mut p1 = SeriesSet {
            interval_ps: 100,
            ..Default::default()
        };
        p1.record("q", 0, 2);
        a.absorb_prefixed("p0.", p0);
        a.absorb_prefixed("p1.", p1);
        assert_eq!(a.interval_ps, 100);
        let keys: Vec<&str> = a.series.keys().map(String::as_str).collect();
        assert_eq!(keys, vec!["p0.q", "p1.q"]);
        assert_eq!(a.series.values().map(Vec::len).sum::<usize>(), 2);
    }

    #[test]
    fn json_and_prometheus_are_integer_formatted() {
        let mut set = SeriesSet {
            interval_ps: 1_000_000,
            ..Default::default()
        };
        set.record("queue_depth", 0, 4);
        set.record("queue_depth", 1_000_000, 9);
        set.record("xport_unacked", 0, 0);
        let json = render_json(&set, None);
        assert!(
            json.contains("\"queue_depth\":[[0,4],[1000000,9]]"),
            "{json}"
        );
        assert!(json.contains("\"metrics\":null"), "{json}");
        let prom = render_prometheus(&set, None);
        assert!(
            prom.contains("cord_obs{series=\"queue_depth\"} 9 1000000"),
            "{prom}"
        );
        assert!(prom.starts_with("# HELP cord_obs"), "{prom}");
    }

    fn sample_events() -> Vec<TraceEvent> {
        let t = Time::from_ns;
        let data = vec![
            TraceData::MsgSend {
                src: 0,
                dst: 8,
                kind: "WtStore",
                class: "Data",
                bytes: 80,
                arrive: t(30),
            },
            TraceData::MsgDeliver {
                src: 0,
                dst: 8,
                kind: "WtStore",
                class: "Data",
                bytes: 80,
            },
            TraceData::StoreIssue {
                core: 0,
                tid: 7,
                addr: 0x1000,
                bytes: 64,
                release: true,
                epoch: Some(3),
            },
            TraceData::StoreCommit {
                dir: 8,
                core: 0,
                tid: 7,
                addr: 0x1000,
                release: false,
                epoch: None,
            },
            TraceData::EpochOpen { core: 1, epoch: 4 },
            TraceData::EpochClose {
                core: 1,
                epoch: 4,
                fanout: 2,
            },
            TraceData::NotifyRequest {
                core: 1,
                pending_dir: 9,
                dst_dir: 10,
                epoch: 4,
            },
            TraceData::NotifyArrive {
                dir: 10,
                core: 1,
                epoch: 4,
            },
            TraceData::TableInsert {
                node: "dir",
                id: 9,
                table: "cnt",
                occ: 3,
                cap: 64,
            },
            TraceData::TableEvict {
                node: "dir",
                id: 9,
                table: "cnt",
                occ: 2,
                cap: 64,
            },
            TraceData::TableStallFull {
                node: "core",
                id: 0,
                table: "unacked",
                cap: 8,
            },
            TraceData::StallBegin {
                core: 0,
                cause: "AckWait",
            },
            TraceData::StallEnd {
                core: 0,
                cause: "AckWait",
                since: t(5),
            },
            TraceData::FaultInject {
                src: 0,
                dst: 8,
                class: "Notify",
                fault: "drop",
                extra: t(2),
            },
            TraceData::XportRetrans {
                src: 0,
                dst: 8,
                seq: 5,
                attempt: 2,
            },
            TraceData::XportDupDrop {
                src: 0,
                dst: 8,
                seq: 5,
            },
        ];
        data.into_iter()
            .enumerate()
            .map(|(i, d)| TraceEvent {
                at: t(i as u64 + 1),
                seq: i as u64,
                data: d,
            })
            .collect()
    }

    #[test]
    fn flight_round_trips_every_event_kind() {
        let mut ring = crate::trace::RingSink::new(64);
        let evs = sample_events();
        for ev in &evs {
            use crate::trace::TraceSink;
            ring.emit(ev);
        }
        let text = render_flight(
            "run error: watchdog: no progress\nsecond line",
            &[(0, ring)],
        );
        assert!(text.starts_with("# cord-flight v1\n"), "{text}");
        assert!(
            text.contains("# error: run error: watchdog: no progress\n"),
            "{text}"
        );
        let dump = parse_flight(&text).expect("parse back");
        assert_eq!(dump.error, "run error: watchdog: no progress");
        assert_eq!(dump.events.len(), evs.len());
        for ((part, got), want) in dump.events.iter().zip(&evs) {
            assert_eq!(*part, 0);
            assert_eq!(got, want, "event diverged through the round trip");
        }
    }

    #[test]
    fn flight_merge_orders_across_partitions() {
        use crate::trace::TraceSink;
        let mk = |core: u32, at_ns: u64, seq: u64| TraceEvent {
            at: Time::from_ns(at_ns),
            seq,
            data: TraceData::EpochOpen { core, epoch: 0 },
        };
        let mut r0 = crate::trace::RingSink::new(8);
        r0.emit(&mk(0, 5, 0));
        let mut r1 = crate::trace::RingSink::new(8);
        r1.emit(&mk(1, 2, 0));
        r1.emit(&mk(1, 5, 1));
        let dump = parse_flight(&render_flight("e", &[(0, r0), (1, r1)])).unwrap();
        let order: Vec<(u64, u32)> = dump
            .merged()
            .iter()
            .map(|(p, ev)| (ev.at.as_ps(), *p))
            .collect();
        assert_eq!(order, vec![(2_000, 1), (5_000, 0), (5_000, 1)]);
    }

    #[test]
    fn parse_flight_rejects_garbage() {
        assert!(parse_flight("not a flight file").is_err());
        assert!(parse_flight("# cord-flight v1\n0 1 2 bogus_kind a=1").is_err());
        assert!(parse_flight("# cord-flight v1\n0 1 2 epoch_open core=0").is_err());
        // Out-of-range fields are rejected, not truncated or coerced.
        let err = parse_flight("# cord-flight v1\n0 1 2 epoch_open core=4294967296 epoch=0")
            .expect_err("u32 overflow");
        assert!(err.contains("field core"), "{err}");
        let store = |release: &str| {
            format!(
                "# cord-flight v1\n0 1 2 store_issue core=0 tid=1 addr=64 bytes=8 \
                 release={release} epoch=-"
            )
        };
        assert!(parse_flight(&store("1")).is_ok());
        let err = parse_flight(&store("7")).expect_err("release must be 0 or 1");
        assert!(err.contains("field release"), "{err}");
    }

    #[test]
    fn profiler_merges_and_renders() {
        let mut p = Profiler::default();
        p.add_class("deliver", 100);
        p.add_class("deliver", 50);
        p.add_phase("execute", 1000);
        let mut q = Profiler::default();
        q.add_class("core_step", 30);
        q.add_phase("execute", 500);
        p.merge(&q);
        let s = p.summary();
        assert_eq!(
            s.classes,
            vec![
                ("core_step".to_string(), 1, 30),
                ("deliver".to_string(), 2, 150)
            ]
        );
        assert_eq!(s.phases, vec![("execute".to_string(), 2, 1500)]);
        let folded = s.collapsed();
        assert!(folded.contains("cord;event;deliver 150\n"), "{folded}");
        assert!(folded.contains("cord;round;execute 1500\n"), "{folded}");
        let json = s.to_json();
        assert!(json.starts_with("{\"non_deterministic\":true"), "{json}");
        assert!(
            json.contains("{\"class\":\"deliver\",\"count\":2,\"ns\":150}"),
            "{json}"
        );
        assert!(
            !json.contains("\"label\""),
            "profile rows must not look like benchmark entries"
        );
    }

    #[test]
    fn scope_timer_noop_when_unarmed() {
        assert!(ScopeTimer::start(false).stop().is_none());
        assert!(ScopeTimer::start(true).stop().is_some());
    }

    #[test]
    fn progress_counts_without_drawing() {
        // In tests stderr is not a terminal and CORD_PROGRESS is unset (or
        // 0 in CI), so the line must stay silent while counters still work.
        let p = Progress {
            label: "test",
            total: 10,
            start: Instant::now(),
            done: AtomicU64::new(0),
            flagged: AtomicU64::new(0),
            last_ms: AtomicU64::new(0),
            enabled: false,
        };
        p.inc(3);
        p.flag();
        p.inc(7);
        p.finish("done");
        assert_eq!(p.done.load(Ordering::Relaxed), 10);
        assert_eq!(p.flagged.load(Ordering::Relaxed), 1);
    }
}
