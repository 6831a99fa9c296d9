//! Zero-cost-when-disabled protocol tracing and metrics.
//!
//! The paper's argument is about *where time and bandwidth go* — per-store
//! acknowledgment round-trips under source ordering vs. inter-directory
//! notifications under CORD (paper §4.2), and stalls when bounded tables
//! fill (§4.3). This module gives every layer of the simulator a shared,
//! typed event vocabulary ([`TraceData`]) and a pluggable output path
//! ([`TraceSink`]) so a run can be attributed event by event:
//!
//! * [`RingSink`] — a bounded in-memory ring buffer (tests, counterexample
//!   narration),
//! * [`ChromeTraceWriter`] — a streaming Chrome-trace-event JSON writer whose
//!   output loads directly into Perfetto (`ui.perfetto.dev`),
//! * [`MetricsRecorder`] — turns the event stream into per-interval
//!   timelines (table occupancy, in-flight stores) and histograms
//!   (store-commit latency, notification fan-out), summarized by
//!   [`MetricsSnapshot`].
//!
//! Instrumentation points hold a [`Tracer`], the run's one observer set: the
//! event consumers above plus a coverage map, a flight ring, and the
//! [`obs`] sampler and profiler, each an `Option`. When no event
//! consumer is installed, every emission compiles to a branch on `None` and
//! the event value is never even constructed (callers pass closures via
//! [`Tracer::emit_with`] or receive `Option<&mut Tracer>` and skip work when
//! it is `None`). The observability knobs parse into an [`ObsConfig`]
//! ([`ObsConfig::from_lookup`]), from which each run builds its tracer
//! ([`Tracer::from_config`]); the tracer forks and merges itself across the sharded
//! engine's partitions ([`Tracer::fork`], [`Tracer::absorb`]) and writes the
//! requested files at the end of a run ([`Tracer::write_outputs`]). Event
//! payloads use plain integers and `&'static str` labels so this
//! bottom-layer crate needs no protocol types.
//!
//! Determinism: emission order follows the (deterministic) event loop, all
//! payloads are integers, and timestamps are formatted with exact integer
//! arithmetic — the same run produces byte-identical trace files regardless
//! of `CORD_THREADS`.
//!
//! # Example
//!
//! ```
//! use cord_sim::trace::{RingSink, TraceData, Tracer};
//! use cord_sim::Time;
//!
//! let mut tr = Tracer::with_sink(Box::new(RingSink::new(16)));
//! tr.emit(Time::from_ns(5), TraceData::EpochOpen { core: 0, epoch: 1 });
//! assert!(tr.enabled());
//! ```

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::coverage::CoverageMap;
use crate::obs::{self, ProfileSummary, Profiler, Sampler, SeriesSet};
use crate::stats::Histogram;
use crate::time::Time;

/// One traced protocol occurrence (the payload of a [`TraceEvent`]).
///
/// Node identities are flat tile indices; `kind`/`class`/`cause`/`table`
/// labels are `&'static str` supplied by the emitting layer, keeping this
/// crate free of protocol types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceData {
    /// A message departed its source toward the interconnect.
    MsgSend {
        /// Source tile.
        src: u32,
        /// Destination tile.
        dst: u32,
        /// Message kind label (e.g. `"WtStore"`).
        kind: &'static str,
        /// Traffic-class label (e.g. `"Data"`).
        class: &'static str,
        /// Wire bytes.
        bytes: u64,
        /// Scheduled arrival time.
        arrive: Time,
    },
    /// A message arrived at its destination.
    MsgDeliver {
        /// Source tile.
        src: u32,
        /// Destination tile.
        dst: u32,
        /// Message kind label.
        kind: &'static str,
        /// Traffic-class label.
        class: &'static str,
        /// Wire bytes.
        bytes: u64,
    },
    /// A core issued a store (write-through, posted, or Release).
    StoreIssue {
        /// Issuing core.
        core: u32,
        /// Sender-local transaction id.
        tid: u64,
        /// First byte written.
        addr: u64,
        /// Payload bytes.
        bytes: u32,
        /// Whether this is a Release (ordered) store.
        release: bool,
        /// Issuing epoch, when the protocol has one.
        epoch: Option<u64>,
    },
    /// A directory committed a store to memory.
    StoreCommit {
        /// Committing directory.
        dir: u32,
        /// Originating core.
        core: u32,
        /// Transaction id from the issue (0 when the protocol has none).
        tid: u64,
        /// First byte written.
        addr: u64,
        /// Whether this was a Release (ordered) store.
        release: bool,
        /// Epoch the store belonged to, when the protocol has one.
        epoch: Option<u64>,
    },
    /// A core opened a new epoch (after a Release store).
    EpochOpen {
        /// The core.
        core: u32,
        /// The new epoch number.
        epoch: u64,
    },
    /// A core closed an epoch with a Release store.
    EpochClose {
        /// The core.
        core: u32,
        /// The epoch being closed.
        epoch: u64,
        /// Number of pending directories notified (paper §4.2 fan-out).
        fanout: u32,
    },
    /// A request-for-notification was issued to a pending directory.
    NotifyRequest {
        /// Requesting core.
        core: u32,
        /// Pending directory that must collect the epoch.
        pending_dir: u32,
        /// Destination directory of the triggering Release store.
        dst_dir: u32,
        /// Epoch being closed.
        epoch: u64,
    },
    /// An inter-directory notification arrived at the Release's destination.
    NotifyArrive {
        /// Receiving (destination) directory.
        dir: u32,
        /// Core whose epoch the notification covers.
        core: u32,
        /// The epoch.
        epoch: u64,
    },
    /// A bounded lookup table gained an entry.
    TableInsert {
        /// Owning node kind: `"core"` or `"dir"`.
        node: &'static str,
        /// Owning node's flat index.
        id: u32,
        /// Table label (e.g. `"cnt"`, `"unacked"`, `"noti"`, `"netbuf"`).
        table: &'static str,
        /// Occupancy after the insert (entries, or bytes for `"netbuf"`).
        occ: u64,
        /// Configured capacity (0 when unbounded).
        cap: u64,
    },
    /// A bounded lookup table reclaimed an entry (paper §4.3).
    TableEvict {
        /// Owning node kind: `"core"` or `"dir"`.
        node: &'static str,
        /// Owning node's flat index.
        id: u32,
        /// Table label.
        table: &'static str,
        /// Occupancy after the evict.
        occ: u64,
        /// Configured capacity (0 when unbounded).
        cap: u64,
    },
    /// An operation stalled because a lookup table was full (paper §4.3).
    TableStallFull {
        /// Owning node kind: `"core"` or `"dir"`.
        node: &'static str,
        /// Owning node's flat index.
        id: u32,
        /// Table label.
        table: &'static str,
        /// Configured capacity.
        cap: u64,
    },
    /// A core frontend entered a stall episode.
    StallBegin {
        /// The stalled core.
        core: u32,
        /// Stall-cause label (e.g. `"AckWait"`, `"TableFull"`).
        cause: &'static str,
    },
    /// A core frontend left a stall episode.
    StallEnd {
        /// The core.
        core: u32,
        /// Stall-cause label.
        cause: &'static str,
        /// When the episode began.
        since: Time,
    },
    /// The fault plan touched a message at the interconnect boundary.
    FaultInject {
        /// Source tile.
        src: u32,
        /// Destination tile.
        dst: u32,
        /// Traffic-class label.
        class: &'static str,
        /// Fault label: `"drop"`, `"dup"`, or `"delay"`.
        fault: &'static str,
        /// Injected extra latency (the duplicate's lag for `"dup"`).
        extra: Time,
    },
    /// The reliable transport retransmitted an unacknowledged message.
    XportRetrans {
        /// Source tile of the channel.
        src: u32,
        /// Destination tile of the channel.
        dst: u32,
        /// Channel sequence number being retransmitted.
        seq: u64,
        /// Retransmission attempt number (1 = first retry).
        attempt: u32,
    },
    /// The transport receiver suppressed a duplicate delivery.
    XportDupDrop {
        /// Source tile of the channel.
        src: u32,
        /// Destination tile of the channel.
        dst: u32,
        /// Duplicated sequence number.
        seq: u64,
    },
    /// A node-scoped crash fault struck (directory-controller reset or host
    /// transport reset).
    CrashInject {
        /// Host whose node(s) reset.
        host: u32,
        /// Crash-kind label: `"dir"` or `"xport"`.
        kind: &'static str,
        /// Units reset (directory engines wiped, or send channels replayed).
        units: u32,
    },
    /// A core entered the recovery fence after learning a directory crashed.
    RecoverBegin {
        /// The recovering core.
        core: u32,
        /// The crashed directory.
        dir: u32,
    },
    /// A core finished conservative re-fencing: in-flight epochs quiesced
    /// and its ordering state re-registered with the crashed directories.
    RecoverEnd {
        /// The core.
        core: u32,
        /// When the recovery fence began.
        since: Time,
        /// Re-fence messages sent (re-issued Releases + ReqNotifies).
        sends: u32,
    },
    /// The transport rejected an arrival tagged with a stale session epoch.
    XportStaleRej {
        /// Source tile of the channel.
        src: u32,
        /// Destination tile of the channel.
        dst: u32,
        /// Sequence number of the stale arrival.
        seq: u64,
        /// Session epoch it was tagged with.
        sess: u32,
    },
    /// A directory dropped a stale recovery re-issue whose epoch was already
    /// committed before the crash.
    StaleDrop {
        /// The directory.
        dir: u32,
        /// The issuing core.
        core: u32,
        /// The already-committed epoch.
        ep: u64,
        /// What was dropped: `"release"`, `"reqnotify"`, or `"notify"`.
        what: &'static str,
    },
}

impl TraceData {
    /// Short kind label, used for event counting and text rendering.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceData::MsgSend { .. } => "msg_send",
            TraceData::MsgDeliver { .. } => "msg_deliver",
            TraceData::StoreIssue { .. } => "store_issue",
            TraceData::StoreCommit { .. } => "store_commit",
            TraceData::EpochOpen { .. } => "epoch_open",
            TraceData::EpochClose { .. } => "epoch_close",
            TraceData::NotifyRequest { .. } => "notify_request",
            TraceData::NotifyArrive { .. } => "notify_arrive",
            TraceData::TableInsert { .. } => "table_insert",
            TraceData::TableEvict { .. } => "table_evict",
            TraceData::TableStallFull { .. } => "table_stall_full",
            TraceData::StallBegin { .. } => "stall_begin",
            TraceData::StallEnd { .. } => "stall_end",
            TraceData::FaultInject { .. } => "fault_inject",
            TraceData::XportRetrans { .. } => "xport_retrans",
            TraceData::XportDupDrop { .. } => "xport_dup_drop",
            TraceData::CrashInject { .. } => "crash_inject",
            TraceData::RecoverBegin { .. } => "recover_begin",
            TraceData::RecoverEnd { .. } => "recover_end",
            TraceData::XportStaleRej { .. } => "xport_stale_rej",
            TraceData::StaleDrop { .. } => "stale_drop",
        }
    }
}

/// A timestamped, sequence-numbered trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time of the occurrence.
    pub at: Time,
    /// Emission sequence number (total order within one run).
    pub seq: u64,
    /// The occurrence.
    pub data: TraceData,
}

/// Renders one event as a human-readable line (used by the `trace` binary's
/// verbose mode and `cord-check` counterexample narration).
pub fn render_event(ev: &TraceEvent) -> String {
    let t = ev.at.as_ps();
    let head = format!("[{:>7}.{:03} ns] ", t / 1000, t % 1000);
    let body = match ev.data {
        TraceData::MsgSend {
            src,
            dst,
            kind,
            bytes,
            ..
        } => format!("tile{src} -> tile{dst}: send {kind} ({bytes} B)"),
        TraceData::MsgDeliver {
            src,
            dst,
            kind,
            bytes,
            ..
        } => format!("tile{dst}: deliver {kind} from tile{src} ({bytes} B)"),
        TraceData::StoreIssue {
            core,
            tid,
            addr,
            bytes,
            release,
            epoch,
        } => format!(
            "core{core}: issue {} addr=0x{addr:x} bytes={bytes} tid={tid}{}",
            if release { "st.rel" } else { "st.rlx" },
            fmt_epoch(epoch)
        ),
        TraceData::StoreCommit {
            dir,
            core,
            addr,
            release,
            epoch,
            ..
        } => format!(
            "dir{dir}: commit {} addr=0x{addr:x} from core{core}{}",
            if release { "st.rel" } else { "st.rlx" },
            fmt_epoch(epoch)
        ),
        TraceData::EpochOpen { core, epoch } => format!("core{core}: open epoch {epoch}"),
        TraceData::EpochClose {
            core,
            epoch,
            fanout,
        } => format!("core{core}: close epoch {epoch} (fan-out {fanout})"),
        TraceData::NotifyRequest {
            core,
            pending_dir,
            dst_dir,
            epoch,
        } => format!(
            "core{core}: request notification dir{pending_dir} -> dir{dst_dir} for epoch {epoch}"
        ),
        TraceData::NotifyArrive { dir, core, epoch } => {
            format!("dir{dir}: notification collected for core{core} epoch {epoch}")
        }
        TraceData::TableInsert {
            node,
            id,
            table,
            occ,
            cap,
        } => format!("{node}{id}: {table} insert -> {occ}/{cap}"),
        TraceData::TableEvict {
            node,
            id,
            table,
            occ,
            cap,
        } => format!("{node}{id}: {table} evict -> {occ}/{cap}"),
        TraceData::TableStallFull {
            node,
            id,
            table,
            cap,
        } => format!("{node}{id}: {table} FULL at {cap} — stall"),
        TraceData::StallBegin { core, cause } => format!("core{core}: stall begin ({cause})"),
        TraceData::StallEnd { core, cause, since } => format!(
            "core{core}: stall end ({cause}, {} ns)",
            ev.at.saturating_sub(since).as_ns()
        ),
        TraceData::FaultInject {
            src,
            dst,
            class,
            fault,
            extra,
        } => format!(
            "fabric: {fault} {class} tile{src} -> tile{dst} (+{} ns)",
            extra.as_ns()
        ),
        TraceData::XportRetrans {
            src,
            dst,
            seq,
            attempt,
        } => format!("tile{src}: retransmit seq {seq} -> tile{dst} (attempt {attempt})"),
        TraceData::XportDupDrop { src, dst, seq } => {
            format!("tile{dst}: duplicate seq {seq} from tile{src} suppressed")
        }
        TraceData::CrashInject { host, kind, units } => {
            format!("fabric: CRASH {kind} reset on host{host} ({units} units)")
        }
        TraceData::RecoverBegin { core, dir } => {
            format!("core{core}: recovery fence begin (dir{dir} crashed)")
        }
        TraceData::RecoverEnd { core, since, sends } => format!(
            "core{core}: recovery fence end ({} ns, {sends} re-fence sends)",
            ev.at.saturating_sub(since).as_ns()
        ),
        TraceData::XportStaleRej {
            src,
            dst,
            seq,
            sess,
        } => format!("tile{dst}: stale session {sess} seq {seq} from tile{src} rejected"),
        TraceData::StaleDrop {
            dir,
            core,
            ep,
            what,
        } => {
            format!("dir{dir}: stale {what} for core{core} epoch {ep} dropped")
        }
    };
    head + &body
}

fn fmt_epoch(e: Option<u64>) -> String {
    match e {
        Some(ep) => format!(" ep={ep}"),
        None => String::new(),
    }
}

/// Consumer of trace events.
///
/// Implementations must be cheap per event; the runner calls [`emit`]
/// synchronously inside the DES hot loop.
///
/// [`emit`]: TraceSink::emit
pub trait TraceSink {
    /// Consumes one event.
    fn emit(&mut self, ev: &TraceEvent);

    /// Finalizes output (e.g. closes a JSON array). Called once at drain.
    fn flush(&mut self) {}
}

/// A run's one observer set, held by the system runner.
///
/// Every observer is `None` by default. [`enabled`](Tracer::enabled) checks
/// only the event consumers (sink, metrics, coverage, flight ring, and a
/// partition's replay buffer), so disabled tracing costs one branch per
/// emission site; the sampler and profiler read the loop, not the events.
#[derive(Default)]
pub struct Tracer {
    sink: Option<Box<dyn TraceSink + Send>>,
    metrics: Option<MetricsRecorder>,
    /// Coverage map fed from the same event stream (see
    /// [`cord_sim::coverage`](crate::coverage)).
    coverage: Option<CoverageMap>,
    /// Flight recorder: a bounded ring of the most recent events.
    flight: Option<RingSink>,
    /// A partition's events, kept for the parent's merged replay.
    replay: Option<Vec<TraceEvent>>,
    seq: u64,
    sampler: Option<Box<Sampler>>,
    profiler: Option<Box<Profiler>>,
    /// The last run's flight rings, keyed by partition.
    flight_rings: Vec<(u32, RingSink)>,
    /// The recipe this tracer was built from, whose paths
    /// [`Tracer::write_outputs`] writes.
    files: ObsConfig,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("sink", &self.sink.is_some())
            .field("metrics", &self.metrics.is_some())
            .field("coverage", &self.coverage.is_some())
            .field("flight", &self.flight.as_ref().map(|r| r.capacity()))
            .field("seq", &self.seq)
            .field("sampler", &self.sampler.as_ref().map(|s| s.interval()))
            .finish()
    }
}

/// Process-wide counts of trace and series files written for an
/// [`ObsConfig`], used to suffix them when one process runs many
/// simulations (e.g. a sweep).
static CONFIG_TRACES: AtomicU64 = AtomicU64::new(0);
static CONFIG_SERIES: AtomicU64 = AtomicU64::new(0);

/// The observability recipe of a run: which observers a [`Tracer`] arms
/// and where their files go. A plain value, parsed once from the knobs by
/// [`ObsConfig::from_lookup`] and built into a fresh tracer per run by
/// [`Tracer::from_config`]. The default arms nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// `CORD_TRACE`: the Chrome trace's base path (`CORD_TRACE_OUT`).
    pub trace_out: Option<String>,
    /// `CORD_OBS`: the sampling grid.
    pub sampling: Option<Time>,
    /// `CORD_OBS_OUT`: where a sampled series is written.
    pub obs_out: Option<String>,
    /// `CORD_PROFILE`: where the profile goes (`CORD_PROFILE_OUT`).
    pub profile_out: Option<String>,
    /// `CORD_FLIGHT`: the flight ring's capacity in events.
    pub flight: Option<usize>,
    /// `CORD_FLIGHT_OUT`: where a failed run's flight rings are dumped.
    pub flight_out: Option<String>,
}

impl ObsConfig {
    /// Parses the observability knobs from `get` (knob name → value). The
    /// four switches share one off rule: unset, empty, or `0` after
    /// trimming. `CORD_TRACE` streams a Chrome trace to `CORD_TRACE_OUT`;
    /// `CORD_OBS` samples every µs (`1`) or `n` ns, written to
    /// `CORD_OBS_OUT`; `CORD_PROFILE` profiles into `CORD_PROFILE_OUT`;
    /// `CORD_FLIGHT` keeps the last 256 (`1`) or `n` events, dumped on
    /// failure to `CORD_FLIGHT_OUT`.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Self {
        let on = |k: &str| {
            get(k)
                .map(|v| v.trim().to_string())
                .filter(|v| !v.is_empty() && v != "0")
        };
        let flight = on("CORD_FLIGHT").map(|v| match v.parse() {
            Ok(1) | Err(_) => 256,
            Ok(n) => n,
        });
        ObsConfig {
            trace_out: on("CORD_TRACE")
                .map(|_| get("CORD_TRACE_OUT").unwrap_or_else(|| "results/cord_trace.json".into())),
            sampling: on("CORD_OBS").map(|v| match v.parse() {
                Ok(ns) if ns != 1 => Time::from_ns(ns),
                _ => Time::from_us(1),
            }),
            obs_out: get("CORD_OBS_OUT").filter(|p| !p.is_empty()),
            profile_out: on("CORD_PROFILE").map(|_| {
                get("CORD_PROFILE_OUT").unwrap_or_else(|| "results/PROFILE.folded".into())
            }),
            flight_out: get("CORD_FLIGHT_OUT")
                .filter(|p| !p.trim().is_empty())
                .or_else(|| flight.map(|_| "results/FLIGHT_last.txt".into())),
            flight,
        }
    }
}

/// `base` for a process's first file of one kind, `base.N` for the N-th
/// later one.
fn numbered(count: &AtomicU64, base: String) -> String {
    match count.fetch_add(1, Ordering::Relaxed) {
        0 => base,
        n => format!("{base}.{n}"),
    }
}

impl Tracer {
    /// A tracer with nothing installed (all emissions are no-ops).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer writing to `sink`.
    pub fn with_sink(sink: Box<dyn TraceSink + Send>) -> Self {
        Tracer {
            sink: Some(sink),
            ..Tracer::default()
        }
    }

    /// Builds a run's observer set from `cfg`: the Chrome-trace writer
    /// and metrics recorder, sampler, profiler and flight ring it asks
    /// for, plus the files [`Tracer::write_outputs`] writes. Later trace
    /// and series files of one process get a `.N` suffix.
    pub fn from_config(cfg: &ObsConfig) -> Self {
        let mut tr = Tracer {
            files: cfg.clone(),
            ..Tracer::default()
        };
        if let Some(base) = &cfg.trace_out {
            let path = numbered(&CONFIG_TRACES, base.clone());
            match ChromeTraceWriter::create(&path) {
                Ok(w) => tr.install(Box::new(w)),
                Err(e) => eprintln!("CORD_TRACE: cannot open {path}: {e}"),
            }
            tr.attach_metrics(MetricsRecorder::default());
        }
        tr.set_sampling(cfg.sampling);
        tr.set_profiling(cfg.profile_out.is_some());
        if let Some(cap) = cfg.flight {
            tr.arm_flight(cap);
        }
        tr
    }

    /// Installs (or replaces) the sink.
    pub fn install(&mut self, sink: Box<dyn TraceSink + Send>) {
        self.sink = Some(sink);
    }

    /// Attaches (or replaces) the metrics recorder.
    pub fn attach_metrics(&mut self, m: MetricsRecorder) {
        self.metrics = Some(m);
    }

    /// Attaches (or replaces) the coverage map.
    pub fn attach_coverage(&mut self, c: CoverageMap) {
        self.coverage = Some(c);
    }

    /// Removes and returns the coverage map, if attached.
    pub fn take_coverage(&mut self) -> Option<CoverageMap> {
        self.coverage.take()
    }

    /// The attached coverage map, if any (mutably, for configuration).
    pub fn coverage_mut(&mut self) -> Option<&mut CoverageMap> {
        self.coverage.as_mut()
    }

    /// Arms the flight recorder: keep the most recent `cap` events for a
    /// post-mortem dump on `RunError`.
    pub fn arm_flight(&mut self, cap: usize) {
        self.flight = Some(RingSink::new(cap));
    }

    /// Arms (or disarms) sim-time sampling on an `interval`-wide grid.
    pub fn set_sampling(&mut self, interval: Option<Time>) {
        self.sampler = interval.map(|i| Box::new(Sampler::new(i)));
    }

    /// Arms (or disarms) the wall-clock self-profiler.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiler = on.then(Box::default);
    }

    /// The sampler, when sampling is armed.
    #[inline]
    pub fn sampler_mut(&mut self) -> Option<&mut Sampler> {
        self.sampler.as_deref_mut()
    }

    /// The profiler, when profiling is armed.
    #[inline]
    pub fn profiler_mut(&mut self) -> Option<&mut Profiler> {
        self.profiler.as_deref_mut()
    }

    /// Whether any event consumer is installed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
            || self.metrics.is_some()
            || self.coverage.is_some()
            || self.flight.is_some()
            || self.replay.is_some()
    }

    /// `Some(self)` when enabled — the shape instrumented code threads
    /// through contexts so the disabled path stays a branch on `None`.
    #[inline]
    pub fn active(&mut self) -> Option<&mut Tracer> {
        if self.enabled() {
            Some(self)
        } else {
            None
        }
    }

    /// Emits one event at time `at`.
    pub fn emit(&mut self, at: Time, data: TraceData) {
        let ev = TraceEvent {
            at,
            seq: self.seq,
            data,
        };
        self.seq += 1;
        if let Some(m) = self.metrics.as_mut() {
            m.observe(&ev);
        }
        if let Some(c) = self.coverage.as_mut() {
            c.observe(&ev);
        }
        if let Some(f) = self.flight.as_mut() {
            f.emit(&ev);
        }
        if let Some(r) = self.replay.as_mut() {
            r.push(ev);
        }
        if let Some(s) = self.sink.as_mut() {
            s.emit(&ev);
        }
    }

    /// Emits lazily: `f` runs only when a consumer is installed, so the
    /// disabled hot path never constructs the event.
    #[inline]
    pub fn emit_with(&mut self, at: Time, f: impl FnOnce() -> TraceData) {
        if self.enabled() {
            self.emit(at, f());
        }
    }

    /// Flushes the sink (closing streaming output).
    pub fn finish(&mut self) {
        if let Some(s) = self.sink.as_mut() {
            s.flush();
        }
    }

    /// Removes and returns the metrics recorder, if attached.
    pub fn take_metrics(&mut self) -> Option<MetricsRecorder> {
        self.metrics.take()
    }

    /// Removes and returns the sampled series, if sampling was armed.
    pub fn take_series(&mut self) -> Option<SeriesSet> {
        self.sampler.take().map(|s| s.finish())
    }

    /// Removes and returns the profile, if profiling was armed.
    pub fn take_profile(&mut self) -> Option<ProfileSummary> {
        self.profiler.take().map(|p| p.summary())
    }

    /// Removes and returns the flight rings the last run left (see
    /// [`Tracer::absorb`]).
    pub fn take_flight_rings(&mut self) -> Vec<(u32, RingSink)> {
        std::mem::take(&mut self.flight_rings)
    }

    /// A sharded partition's observer set: a replay buffer when a sink,
    /// metrics or coverage consumes the merged stream, a flight ring of the
    /// same capacity, a fresh sampler on the same grid, a fresh profiler.
    pub fn fork(&self) -> Tracer {
        let replay = self.sink.is_some() || self.metrics.is_some() || self.coverage.is_some();
        Tracer {
            replay: replay.then(Vec::new),
            flight: self.flight.as_ref().map(|r| RingSink::new(r.capacity())),
            sampler: self
                .sampler
                .as_ref()
                .map(|s| Box::new(Sampler::new(s.interval()))),
            profiler: self.profiler.as_ref().map(|_| Box::default()),
            ..Tracer::default()
        }
    }

    /// Merges the partitions' observer sets, `parts` in host order (empty
    /// when this set observed the run itself, its ring then partition 0):
    /// replays their events in `(time, partition, emission index)` order,
    /// reassigning global sequence numbers; keys flight rings by partition;
    /// absorbs series under `p<host>.`; merges the profilers.
    pub fn absorb(&mut self, parts: Vec<Tracer>) {
        if parts.is_empty() {
            self.flight_rings.extend(self.flight.take().map(|r| (0, r)));
        }
        let mut merged: Vec<(Time, usize, usize, TraceEvent)> = Vec::new();
        for (h, part) in parts.into_iter().enumerate() {
            let events = part.replay.into_iter().flatten().enumerate();
            merged.extend(events.map(|(i, ev)| (ev.at, h, i, ev)));
            self.flight_rings.extend(part.flight.map(|r| (h as u32, r)));
            if let (Some(into), Some(s)) = (self.sampler.as_deref_mut(), part.sampler) {
                into.absorb_prefixed(&format!("p{h}."), s.finish());
            }
            if let (Some(into), Some(p)) = (self.profiler.as_deref_mut(), part.profiler) {
                into.merge(&p);
            }
        }
        merged.sort_by_key(|&(t, h, i, _)| (t, h, i));
        for (_, _, _, ev) in merged {
            self.emit(ev.at, ev.data);
        }
    }

    /// The run's one exit writer, for the files [`Tracer::from_config`]
    /// was asked for: on success (`error` is `None`) the series with the
    /// metrics as JSON plus a `.prom` sibling, and the profile's collapsed
    /// stacks; on failure the flight dump headed by `error`.
    pub fn write_outputs(
        &self,
        error: Option<&str>,
        series: Option<&SeriesSet>,
        metrics: Option<&MetricsSnapshot>,
        profile: Option<&ProfileSummary>,
    ) {
        if let (Some(err), Some(path)) = (error, &self.files.flight_out) {
            if !self.flight_rings.is_empty() {
                let kept: usize = self.flight_rings.iter().map(|(_, r)| r.len()).sum();
                match obs::write_output(path, &obs::render_flight(err, &self.flight_rings)) {
                    Ok(()) => eprintln!(
                        "flight recorder: dumped {kept} event(s) to {path} (replay: trace --flight {path})"
                    ),
                    Err(e) => eprintln!("flight recorder: cannot write {path}: {e}"),
                }
            }
        }
        if let (Some(set), Some(base)) = (series, &self.files.obs_out) {
            let path = numbered(&CONFIG_SERIES, base.clone());
            let prom = format!("{path}.prom");
            for (p, text) in [
                (&path, obs::render_json(set, metrics)),
                (&prom, obs::render_prometheus(set, metrics)),
            ] {
                if let Err(e) = obs::write_output(p, &text) {
                    eprintln!("CORD_OBS_OUT: cannot write {p}: {e}");
                }
            }
        }
        if let (Some(p), Some(path)) = (profile, &self.files.profile_out) {
            if let Err(e) = obs::write_folded(path, p) {
                eprintln!("CORD_PROFILE_OUT: cannot write {path}: {e}");
            }
        }
    }
}

/// A bounded in-memory ring of the most recent events.
#[derive(Debug, Default)]
pub struct RingSink {
    cap: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring keeping at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            buf: VecDeque::with_capacity(cap.clamp(1, 4096)),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, ev: &TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(*ev);
    }
}

/// Shares a sink between the tracer and the caller.
///
/// The runner owns its [`Tracer`] (and thus the boxed sink), so tests and
/// tools that want to inspect a [`RingSink`] or [`MetricsRecorder`] after
/// the run wrap it in `Shared` and keep a clone. An `Arc<Mutex<_>>` keeps
/// the wrapper `Send`, so tracers can move into the sharded runner's worker
/// threads; emission sites are single-threaded per tracer, so the lock is
/// always uncontended.
///
/// # Example
///
/// ```
/// use cord_sim::trace::{RingSink, Shared, TraceData, Tracer};
/// use cord_sim::Time;
///
/// let ring = Shared::new(RingSink::new(8));
/// let mut tr = Tracer::with_sink(Box::new(ring.clone()));
/// tr.emit(Time::ZERO, TraceData::EpochOpen { core: 0, epoch: 0 });
/// assert_eq!(ring.with(|r| r.len()), 1);
/// ```
#[derive(Debug, Default)]
pub struct Shared<S>(std::sync::Arc<std::sync::Mutex<S>>);

impl<S> Clone for Shared<S> {
    fn clone(&self) -> Self {
        Shared(self.0.clone())
    }
}

impl<S> Shared<S> {
    /// Wraps `sink` for sharing.
    pub fn new(sink: S) -> Self {
        Shared(std::sync::Arc::new(std::sync::Mutex::new(sink)))
    }

    /// Runs `f` against the inner sink.
    pub fn with<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&self.0.lock().expect("trace sink poisoned"))
    }

    /// Runs `f` against the inner sink mutably.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.lock().expect("trace sink poisoned"))
    }
}

impl<S: TraceSink> TraceSink for Shared<S> {
    fn emit(&mut self, ev: &TraceEvent) {
        self.0.lock().expect("trace sink poisoned").emit(ev);
    }
    fn flush(&mut self) {
        self.0.lock().expect("trace sink poisoned").flush();
    }
}

/// Formats picoseconds as microseconds with six exact decimal digits
/// (1 µs = 10⁶ ps), keeping trace files byte-deterministic: no float
/// formatting is involved.
fn ts_us(t: Time) -> String {
    let ps = t.as_ps();
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

/// A streaming Chrome-trace-event (JSON array) writer.
///
/// The produced file loads directly into Perfetto or `chrome://tracing`:
/// instants for protocol occurrences, `B`/`E` duration pairs for core stall
/// episodes, and counter tracks for lookup-table occupancy. Timestamps are
/// microseconds with exact six-digit fractions, so output is
/// byte-deterministic.
pub struct ChromeTraceWriter<W: Write> {
    /// `None` only after `into_inner` has taken the stream.
    w: Option<W>,
    first: bool,
    closed: bool,
    failed: bool,
}

impl ChromeTraceWriter<io::BufWriter<std::fs::File>> {
    /// Creates a writer streaming to a new file at `path`, creating parent
    /// directories as needed.
    pub fn create(path: &str) -> io::Result<Self> {
        crate::obs::create_parent(path)?;
        Ok(Self::new(io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write> ChromeTraceWriter<W> {
    /// Creates a writer streaming to `w`.
    pub fn new(w: W) -> Self {
        ChromeTraceWriter {
            w: Some(w),
            first: true,
            closed: false,
            failed: false,
        }
    }

    /// Consumes the writer, returning the underlying stream (after closing
    /// the JSON array).
    pub fn into_inner(mut self) -> W {
        self.close();
        self.w.take().expect("stream present until into_inner")
    }

    fn close(&mut self) {
        if self.closed || self.failed {
            return;
        }
        self.closed = true;
        if let Some(w) = self.w.as_mut() {
            let _ = w.write_all(if self.first { b"[]\n" } else { b"\n]\n" });
            let _ = w.flush();
        }
    }

    fn line(&mut self, s: &str) {
        if self.closed || self.failed {
            return;
        }
        let sep: &[u8] = if self.first { b"[\n" } else { b",\n" };
        self.first = false;
        let Some(w) = self.w.as_mut() else { return };
        if w.write_all(sep).is_err() || w.write_all(s.as_bytes()).is_err() {
            self.failed = true;
        }
    }
}

impl<W: Write> TraceSink for ChromeTraceWriter<W> {
    fn emit(&mut self, ev: &TraceEvent) {
        let ts = ts_us(ev.at);
        let line = match ev.data {
            TraceData::MsgSend {
                src,
                dst,
                kind,
                class,
                bytes,
                arrive,
            } => format!(
                "{{\"name\":\"send:{kind}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":{src},\"args\":{{\"dst\":{dst},\"class\":\"{class}\",\"bytes\":{bytes},\
                 \"arrive_us\":{}}}}}",
                ts_us(arrive)
            ),
            TraceData::MsgDeliver {
                src,
                dst,
                kind,
                class,
                bytes,
            } => format!(
                "{{\"name\":\"recv:{kind}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":{dst},\"args\":{{\"src\":{src},\"class\":\"{class}\",\"bytes\":{bytes}}}}}"
            ),
            TraceData::StoreIssue {
                core,
                tid,
                addr,
                bytes,
                release,
                epoch,
            } => format!(
                "{{\"name\":\"issue:{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":{core},\"args\":{{\"tid\":{tid},\"addr\":\"0x{addr:x}\",\
                 \"bytes\":{bytes}{}}}}}",
                if release { "st.rel" } else { "st.rlx" },
                json_epoch(epoch)
            ),
            TraceData::StoreCommit {
                dir,
                core,
                tid,
                addr,
                release,
                epoch,
            } => format!(
                "{{\"name\":\"commit:{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":{dir},\"args\":{{\"core\":{core},\"tid\":{tid},\"addr\":\"0x{addr:x}\"{}}}}}",
                if release { "st.rel" } else { "st.rlx" },
                json_epoch(epoch)
            ),
            TraceData::EpochOpen { core, epoch } => format!(
                "{{\"name\":\"epoch_open\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":{core},\"args\":{{\"epoch\":{epoch}}}}}"
            ),
            TraceData::EpochClose {
                core,
                epoch,
                fanout,
            } => format!(
                "{{\"name\":\"epoch_close\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":{core},\"args\":{{\"epoch\":{epoch},\"fanout\":{fanout}}}}}"
            ),
            TraceData::NotifyRequest {
                core,
                pending_dir,
                dst_dir,
                epoch,
            } => format!(
                "{{\"name\":\"req_notify\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":{core},\"args\":{{\"pending_dir\":{pending_dir},\"dst_dir\":{dst_dir},\
                 \"epoch\":{epoch}}}}}"
            ),
            TraceData::NotifyArrive { dir, core, epoch } => format!(
                "{{\"name\":\"notify\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":{dir},\"args\":{{\"core\":{core},\"epoch\":{epoch}}}}}"
            ),
            TraceData::TableInsert {
                node,
                id,
                table,
                occ,
                ..
            }
            | TraceData::TableEvict {
                node,
                id,
                table,
                occ,
                ..
            } => format!(
                "{{\"name\":\"{node}{id}.{table}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":{id},\"args\":{{\"occ\":{occ}}}}}"
            ),
            TraceData::TableStallFull {
                node,
                id,
                table,
                cap,
            } => format!(
                "{{\"name\":\"table_full:{table}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                 \"pid\":0,\"tid\":{id},\"args\":{{\"node\":\"{node}\",\"cap\":{cap}}}}}"
            ),
            TraceData::StallBegin { core, cause } => format!(
                "{{\"name\":\"stall:{cause}\",\"ph\":\"B\",\"ts\":{ts},\"pid\":0,\"tid\":{core}}}"
            ),
            TraceData::StallEnd { core, cause, .. } => format!(
                "{{\"name\":\"stall:{cause}\",\"ph\":\"E\",\"ts\":{ts},\"pid\":0,\"tid\":{core}}}"
            ),
            TraceData::FaultInject {
                src,
                dst,
                class,
                fault,
                extra,
            } => format!(
                "{{\"name\":\"fault:{fault}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":{src},\"args\":{{\"dst\":{dst},\"class\":\"{class}\",\
                 \"extra_ns\":{}}}}}",
                extra.as_ns()
            ),
            TraceData::XportRetrans {
                src,
                dst,
                seq,
                attempt,
            } => format!(
                "{{\"name\":\"xport:retrans\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":{src},\"args\":{{\"dst\":{dst},\"seq\":{seq},\"attempt\":{attempt}}}}}"
            ),
            TraceData::XportDupDrop { src, dst, seq } => format!(
                "{{\"name\":\"xport:dup_drop\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":{dst},\"args\":{{\"src\":{src},\"seq\":{seq}}}}}"
            ),
            TraceData::CrashInject { host, kind, units } => format!(
                "{{\"name\":\"crash:{kind}\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":0,\"args\":{{\"host\":{host},\"units\":{units}}}}}"
            ),
            TraceData::RecoverBegin { core, dir } => format!(
                "{{\"name\":\"recover\",\"ph\":\"B\",\"ts\":{ts},\"pid\":0,\"tid\":{core},\
                 \"args\":{{\"dir\":{dir}}}}}"
            ),
            TraceData::RecoverEnd { core, sends, .. } => format!(
                "{{\"name\":\"recover\",\"ph\":\"E\",\"ts\":{ts},\"pid\":0,\"tid\":{core},\
                 \"args\":{{\"sends\":{sends}}}}}"
            ),
            TraceData::XportStaleRej {
                src,
                dst,
                seq,
                sess,
            } => format!(
                "{{\"name\":\"xport:stale\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":{dst},\"args\":{{\"src\":{src},\"seq\":{seq},\"sess\":{sess}}}}}"
            ),
            TraceData::StaleDrop { dir, core, ep, what } => format!(
                "{{\"name\":\"stale:{what}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":0,\
                 \"tid\":{dir},\"args\":{{\"core\":{core},\"epoch\":{ep}}}}}"
            ),
        };
        self.line(&line);
    }

    fn flush(&mut self) {
        self.close();
    }
}

impl<W: Write> Drop for ChromeTraceWriter<W> {
    fn drop(&mut self) {
        self.close();
    }
}

fn json_epoch(e: Option<u64>) -> String {
    match e {
        Some(ep) => format!(",\"epoch\":{ep}"),
        None => String::new(),
    }
}

/// A per-interval max timeline with adaptive bin widening.
///
/// Samples land in `floor(t / interval)` bins; each bin keeps the maximum
/// sample. When more than [`Timeline::MAX_BINS`] bins would be needed, the
/// interval doubles and neighbor bins merge, so memory stays bounded for
/// arbitrarily long runs while remaining deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    interval: Time,
    bins: Vec<u64>,
}

impl Timeline {
    /// Bin-count bound before the interval doubles.
    pub const MAX_BINS: usize = 1024;

    /// Creates an empty timeline with the given initial bin width.
    pub fn new(interval: Time) -> Self {
        Timeline {
            interval: Time::from_ps(interval.as_ps().max(1)),
            bins: Vec::new(),
        }
    }

    /// Records `value` at time `at` (keeping per-bin maxima).
    pub fn record(&mut self, at: Time, value: u64) {
        let mut idx = (at.as_ps() / self.interval.as_ps()) as usize;
        while idx >= Self::MAX_BINS {
            self.rescale();
            idx = (at.as_ps() / self.interval.as_ps()) as usize;
        }
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0);
        }
        self.bins[idx] = self.bins[idx].max(value);
    }

    fn rescale(&mut self) {
        self.interval = Time::from_ps(self.interval.as_ps() * 2);
        let merged: Vec<u64> = self
            .bins
            .chunks(2)
            .map(|c| c.iter().copied().max().unwrap_or(0))
            .collect();
        self.bins = merged;
    }

    /// Current bin width.
    pub fn interval(&self) -> Time {
        self.interval
    }

    /// Per-bin maxima, oldest first.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Largest recorded value (0 if empty).
    pub fn peak(&self) -> u64 {
        self.bins.iter().copied().max().unwrap_or(0)
    }
}

/// Turns the event stream into timelines and histograms (paper-facing
/// metrics: table occupancy, in-flight stores, commit latency percentiles,
/// notification fan-out).
#[derive(Debug)]
pub struct MetricsRecorder {
    interval: Time,
    /// Per-table occupancy timelines, keyed `"<node><id>.<table>"`.
    occupancy: BTreeMap<String, Timeline>,
    /// In-flight (issued, not yet committed) stores.
    inflight: u64,
    inflight_timeline: Timeline,
    inflight_peak: u64,
    /// Pending store issues: (core, tid) → issue time.
    pending: HashMap<(u32, u64), Time>,
    /// Store-commit latency in nanoseconds.
    latency_ns: Histogram,
    /// Release notification fan-out (pending directories per Release).
    fanout: Histogram,
    /// Transport retransmission attempt numbers.
    retrans: Histogram,
    /// Event totals by kind label.
    counts: BTreeMap<&'static str, u64>,
    stall_episodes: u64,
    table_full_stalls: u64,
    /// Watchdog near-miss tracking: time of the previous store commit and
    /// the longest observed gap between consecutive commits.
    last_commit: Option<Time>,
    commit_gap_max: Time,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new(Time::from_us(1))
    }
}

impl MetricsRecorder {
    /// Creates a recorder with the given timeline bin width.
    pub fn new(interval: Time) -> Self {
        MetricsRecorder {
            interval,
            occupancy: BTreeMap::new(),
            inflight: 0,
            inflight_timeline: Timeline::new(interval),
            inflight_peak: 0,
            pending: HashMap::new(),
            latency_ns: Histogram::new(),
            fanout: Histogram::new(),
            retrans: Histogram::new(),
            counts: BTreeMap::new(),
            stall_episodes: 0,
            table_full_stalls: 0,
            last_commit: None,
            commit_gap_max: Time::ZERO,
        }
    }

    /// Consumes one event.
    pub fn observe(&mut self, ev: &TraceEvent) {
        *self.counts.entry(ev.data.kind_name()).or_insert(0) += 1;
        match ev.data {
            TraceData::StoreIssue { core, tid, .. } => {
                self.pending.insert((core, tid), ev.at);
                self.inflight += 1;
                self.inflight_peak = self.inflight_peak.max(self.inflight);
                self.inflight_timeline.record(ev.at, self.inflight);
            }
            TraceData::StoreCommit { core, tid, .. } => {
                if let Some(prev) = self.last_commit {
                    self.commit_gap_max = self.commit_gap_max.max(ev.at.saturating_sub(prev));
                }
                self.last_commit = Some(ev.at);
                if let Some(t0) = self.pending.remove(&(core, tid)) {
                    self.latency_ns.record(ev.at.saturating_sub(t0).as_ns());
                    self.inflight = self.inflight.saturating_sub(1);
                    self.inflight_timeline.record(ev.at, self.inflight);
                }
            }
            TraceData::EpochClose { fanout, .. } => self.fanout.record(fanout as u64),
            TraceData::TableInsert {
                node,
                id,
                table,
                occ,
                ..
            }
            | TraceData::TableEvict {
                node,
                id,
                table,
                occ,
                ..
            } => {
                let key = format!("{node}{id}.{table}");
                self.occupancy
                    .entry(key)
                    .or_insert_with(|| Timeline::new(self.interval))
                    .record(ev.at, occ);
            }
            TraceData::TableStallFull { .. } => self.table_full_stalls += 1,
            TraceData::StallBegin { .. } => self.stall_episodes += 1,
            TraceData::XportRetrans { attempt, .. } => self.retrans.record(attempt as u64),
            _ => {}
        }
    }

    /// Summarizes everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            events: self.counts.values().sum(),
            counts: self.counts.iter().map(|(&k, &v)| (k, v)).collect(),
            latency_ns: LatencySummary::of(&self.latency_ns),
            fanout_mean: self.fanout.mean(),
            fanout_max: self.fanout.max(),
            inflight_peak: self.inflight_peak,
            table_peaks: self
                .occupancy
                .iter()
                .map(|(k, t)| (k.clone(), t.peak()))
                .collect(),
            table_full_stalls: self.table_full_stalls,
            stall_episodes: self.stall_episodes,
            retrans_count: self.retrans.count(),
            retrans_max_attempt: self.retrans.max(),
            commit_gap_max_ns: self.commit_gap_max.as_ns(),
            timelines: self
                .occupancy
                .iter()
                .map(|(k, t)| (k.clone(), t.clone()))
                .chain(std::iter::once((
                    "inflight".to_string(),
                    self.inflight_timeline.clone(),
                )))
                .collect(),
        }
    }
}

/// Percentile summary of a latency histogram (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean.
    pub mean: f64,
    /// Estimated 50th percentile (bucket upper bound).
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

impl LatencySummary {
    /// Summarizes `h`.
    pub fn of(h: &Histogram) -> Self {
        LatencySummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.percentile(0.50),
            p90: h.percentile(0.90),
            p99: h.percentile(0.99),
            max: h.max(),
        }
    }
}

/// A cloneable summary of one run's metrics, carried on `RunResult` and
/// appended to `results/BENCH_sweeps.json` by the sweep engine.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Total events observed.
    pub events: u64,
    /// Event totals by kind label, sorted by label.
    pub counts: Vec<(&'static str, u64)>,
    /// Store-commit latency summary (issue → directory commit).
    pub latency_ns: LatencySummary,
    /// Mean Release notification fan-out.
    pub fanout_mean: f64,
    /// Largest Release notification fan-out.
    pub fanout_max: u64,
    /// Peak simultaneous in-flight stores.
    pub inflight_peak: u64,
    /// Peak occupancy per table, keyed `"<node><id>.<table>"`.
    pub table_peaks: Vec<(String, u64)>,
    /// Stalls caused by a full lookup table.
    pub table_full_stalls: u64,
    /// Core stall episodes.
    pub stall_episodes: u64,
    /// Transport retransmissions observed.
    pub retrans_count: u64,
    /// Highest retransmission attempt number for any one message.
    pub retrans_max_attempt: u64,
    /// Watchdog near-miss: longest gap between consecutive store commits
    /// (nanoseconds) — how close the run came to tripping a liveness
    /// watchdog keyed on commit progress.
    pub commit_gap_max_ns: u64,
    /// Full per-interval timelines: every occupancy key plus
    /// `"inflight"`. Not part of [`to_json`](MetricsSnapshot::to_json) /
    /// [`render_text`](MetricsSnapshot::render_text) (whose formats are
    /// frozen); exported by `cord_sim::obs::render_json`.
    pub timelines: Vec<(String, Timeline)>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a compact JSON object (no external deps; keys
    /// are fixed, values are numbers/strings needing no escaping).
    pub fn to_json(&self) -> String {
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let peaks: Vec<String> = self
            .table_peaks
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!(
            "{{\"events\":{},\"latency_ns\":{{\"count\":{},\"mean\":{:.1},\"p50\":{},\
             \"p90\":{},\"p99\":{},\"max\":{}}},\"fanout\":{{\"mean\":{:.3},\"max\":{}}},\
             \"inflight_peak\":{},\"table_full_stalls\":{},\"stall_episodes\":{},\
             \"retrans\":{{\"count\":{},\"max_attempt\":{}}},\"commit_gap_max_ns\":{},\
             \"counts\":{{{}}},\"table_peaks\":{{{}}}}}",
            self.events,
            self.latency_ns.count,
            self.latency_ns.mean,
            self.latency_ns.p50,
            self.latency_ns.p90,
            self.latency_ns.p99,
            self.latency_ns.max,
            self.fanout_mean,
            self.fanout_max,
            self.inflight_peak,
            self.table_full_stalls,
            self.stall_episodes,
            self.retrans_count,
            self.retrans_max_attempt,
            self.commit_gap_max_ns,
            counts.join(","),
            peaks.join(",")
        )
    }

    /// Renders a human-readable multi-line summary (the `trace` binary's
    /// text timeline).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("events          : {}\n", self.events));
        for (k, v) in &self.counts {
            out.push_str(&format!("  {k:<16}: {v}\n"));
        }
        let l = &self.latency_ns;
        out.push_str(&format!(
            "commit latency  : n={} mean={:.1} ns p50≤{} p90≤{} p99≤{} max={} ns\n",
            l.count, l.mean, l.p50, l.p90, l.p99, l.max
        ));
        out.push_str(&format!(
            "release fan-out : mean={:.3} max={}\n",
            self.fanout_mean, self.fanout_max
        ));
        out.push_str(&format!(
            "in-flight peak  : {} stores\n",
            self.inflight_peak
        ));
        out.push_str(&format!(
            "stalls          : {} episodes ({} table-full)\n",
            self.stall_episodes, self.table_full_stalls
        ));
        out.push_str(&format!(
            "retransmissions : {} (max attempt {})\n",
            self.retrans_count, self.retrans_max_attempt
        ));
        out.push_str(&format!(
            "commit gap max  : {} ns (watchdog near-miss)\n",
            self.commit_gap_max_ns
        ));
        if !self.table_peaks.is_empty() {
            out.push_str("table peaks     :\n");
            for (k, v) in &self.table_peaks {
                out.push_str(&format!("  {k:<20}: {v}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ns: u64, data: TraceData) -> TraceEvent {
        TraceEvent {
            at: Time::from_ns(at_ns),
            seq: 0,
            data,
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut tr = Tracer::disabled();
        assert!(!tr.enabled());
        assert!(tr.active().is_none());
        let mut ran = false;
        tr.emit_with(Time::ZERO, || {
            ran = true;
            TraceData::EpochOpen { core: 0, epoch: 0 }
        });
        assert!(!ran, "disabled tracer must not construct events");
    }

    #[test]
    fn ring_sink_bounds_and_drops() {
        let mut ring = RingSink::new(2);
        for i in 0..5u64 {
            ring.emit(&ev(i, TraceData::EpochOpen { core: 0, epoch: i }));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let epochs: Vec<u64> = ring
            .events()
            .map(|e| match e.data {
                TraceData::EpochOpen { epoch, .. } => epoch,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(epochs, vec![3, 4], "oldest events evicted first");
    }

    #[test]
    fn shared_sink_allows_post_run_inspection() {
        let ring = Shared::new(RingSink::new(8));
        let mut tr = Tracer::with_sink(Box::new(ring.clone()));
        tr.emit(Time::from_ns(1), TraceData::EpochOpen { core: 2, epoch: 7 });
        tr.finish();
        assert_eq!(ring.with(|r| r.len()), 1);
        assert_eq!(ring.with(|r| r.events().next().unwrap().seq), 0);
    }

    #[test]
    fn chrome_writer_produces_wellformed_array() {
        let mut w = ChromeTraceWriter::new(Vec::new());
        w.emit(&ev(
            1,
            TraceData::MsgSend {
                src: 0,
                dst: 8,
                kind: "WtStore",
                class: "Data",
                bytes: 80,
                arrive: Time::from_ns(30),
            },
        ));
        w.emit(&ev(
            2,
            TraceData::StallBegin {
                core: 0,
                cause: "AckWait",
            },
        ));
        w.emit(&ev(
            5,
            TraceData::StallEnd {
                core: 0,
                cause: "AckWait",
                since: Time::from_ns(2),
            },
        ));
        let out = String::from_utf8(w.into_inner()).unwrap();
        assert!(out.starts_with("[\n"), "array opened: {out}");
        assert!(out.trim_end().ends_with(']'), "array closed: {out}");
        assert!(out.contains("\"ph\":\"B\"") && out.contains("\"ph\":\"E\""));
        assert!(out.contains("\"ts\":0.001000"), "exact 6-digit µs: {out}");
        // Cheap structural sanity: balanced braces, one object per line.
        let opens = out.matches('{').count();
        let closes = out.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn chrome_writer_empty_is_valid_json() {
        let w = ChromeTraceWriter::new(Vec::new());
        let out = String::from_utf8(w.into_inner()).unwrap();
        assert_eq!(out, "[]\n");
    }

    #[test]
    fn timeline_rescales_deterministically() {
        let mut t = Timeline::new(Time::from_ns(1));
        t.record(Time::from_ns(0), 5);
        t.record(Time::from_ns(1), 7);
        // Force a rescale far past MAX_BINS (bin 100_000 at 1 ns width).
        t.record(Time::from_us(100), 3);
        assert!(t.bins().len() <= Timeline::MAX_BINS);
        assert!(t.interval() > Time::from_ns(1));
        assert_eq!(t.peak(), 7, "maxima survive merging");
    }

    #[test]
    fn metrics_latency_and_fanout() {
        let mut m = MetricsRecorder::new(Time::from_ns(100));
        m.observe(&ev(
            10,
            TraceData::StoreIssue {
                core: 0,
                tid: 1,
                addr: 0x40,
                bytes: 64,
                release: false,
                epoch: Some(0),
            },
        ));
        m.observe(&ev(
            40,
            TraceData::StoreCommit {
                dir: 8,
                core: 0,
                tid: 1,
                addr: 0x40,
                release: false,
                epoch: Some(0),
            },
        ));
        m.observe(&ev(
            50,
            TraceData::EpochClose {
                core: 0,
                epoch: 0,
                fanout: 3,
            },
        ));
        let s = m.snapshot();
        assert_eq!(s.latency_ns.count, 1);
        assert!(s.latency_ns.p50 >= 30, "30 ns latency in p50 bucket bound");
        assert_eq!(s.fanout_max, 3);
        assert_eq!(s.inflight_peak, 1);
        assert_eq!(s.events, 3);
        let json = s.to_json();
        assert!(json.contains("\"fanout\""));
        assert!(json.contains("\"store_issue\":1"));
        assert!(!s.render_text().is_empty());
    }

    #[test]
    fn metrics_tracks_table_occupancy() {
        let mut m = MetricsRecorder::default();
        m.observe(&ev(
            5,
            TraceData::TableInsert {
                node: "dir",
                id: 3,
                table: "cnt",
                occ: 2,
                cap: 64,
            },
        ));
        m.observe(&ev(
            9,
            TraceData::TableEvict {
                node: "dir",
                id: 3,
                table: "cnt",
                occ: 1,
                cap: 64,
            },
        ));
        let s = m.snapshot();
        assert_eq!(s.table_peaks, vec![("dir3.cnt".to_string(), 2)]);
    }

    #[test]
    fn metrics_track_retransmissions_and_commit_gaps() {
        let mut m = MetricsRecorder::default();
        let commit = |at, tid| {
            ev(
                at,
                TraceData::StoreCommit {
                    dir: 8,
                    core: 0,
                    tid,
                    addr: 0x40,
                    release: false,
                    epoch: None,
                },
            )
        };
        m.observe(&commit(10, 1));
        m.observe(&commit(500, 2)); // 490 ns gap — the near-miss
        m.observe(&commit(520, 3));
        m.observe(&ev(
            30,
            TraceData::XportRetrans {
                src: 0,
                dst: 8,
                seq: 4,
                attempt: 1,
            },
        ));
        m.observe(&ev(
            90,
            TraceData::XportRetrans {
                src: 0,
                dst: 8,
                seq: 4,
                attempt: 2,
            },
        ));
        m.observe(&ev(
            95,
            TraceData::XportDupDrop {
                src: 0,
                dst: 8,
                seq: 4,
            },
        ));
        let s = m.snapshot();
        assert_eq!(s.retrans_count, 2);
        assert_eq!(s.retrans_max_attempt, 2);
        assert_eq!(s.commit_gap_max_ns, 490);
        let json = s.to_json();
        assert!(
            json.contains("\"retrans\":{\"count\":2,\"max_attempt\":2}"),
            "{json}"
        );
        assert!(json.contains("\"commit_gap_max_ns\":490"), "{json}");
        assert!(json.contains("\"xport_retrans\":2"), "{json}");
        let text = s.render_text();
        assert!(text.contains("retransmissions : 2"), "{text}");
        assert!(text.contains("490 ns"), "{text}");
    }

    #[test]
    fn render_and_chrome_cover_fault_events() {
        let fault = ev(
            7,
            TraceData::FaultInject {
                src: 0,
                dst: 8,
                class: "Notify",
                fault: "drop",
                extra: Time::ZERO,
            },
        );
        let line = render_event(&fault);
        assert!(line.contains("drop Notify"), "{line}");
        let retrans = ev(
            9,
            TraceData::XportRetrans {
                src: 0,
                dst: 8,
                seq: 3,
                attempt: 2,
            },
        );
        assert!(render_event(&retrans).contains("attempt 2"));
        let mut w = ChromeTraceWriter::new(Vec::new());
        w.emit(&fault);
        w.emit(&retrans);
        w.emit(&ev(
            11,
            TraceData::XportDupDrop {
                src: 0,
                dst: 8,
                seq: 3,
            },
        ));
        let out = String::from_utf8(w.into_inner()).unwrap();
        assert!(out.contains("fault:drop"), "{out}");
        assert!(out.contains("xport:retrans"), "{out}");
        assert!(out.contains("xport:dup_drop"), "{out}");
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn render_event_is_human_readable() {
        let line = render_event(&ev(
            1500,
            TraceData::StoreCommit {
                dir: 8,
                core: 0,
                tid: 7,
                addr: 0x1000,
                release: true,
                epoch: Some(4),
            },
        ));
        assert!(line.contains("dir8"), "{line}");
        assert!(line.contains("st.rel"), "{line}");
        assert!(line.contains("ep=4"), "{line}");
        assert!(line.contains("1500.000 ns"), "{line}");
    }

    /// A knob lookup over fixed pairs, so the parser is tested without
    /// touching the process environment.
    fn lookup<'a>(pairs: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            pairs
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn from_lookup_shares_one_off_rule() {
        for off in ["", "0", " 0 ", "  "] {
            let pairs = [
                ("CORD_TRACE", off),
                ("CORD_OBS", off),
                ("CORD_PROFILE", off),
                ("CORD_FLIGHT", off),
                ("CORD_PROFILE_OUT", "unused.folded"),
            ];
            let cfg = ObsConfig::from_lookup(lookup(&pairs));
            assert_eq!(
                cfg,
                ObsConfig::default(),
                "{off:?} must leave every observer off"
            );
        }
        assert_eq!(ObsConfig::from_lookup(lookup(&[])), ObsConfig::default());
    }

    #[test]
    fn from_lookup_parses_values_and_paths() {
        let interval = |v: &str| ObsConfig::from_lookup(lookup(&[("CORD_OBS", v)])).sampling;
        assert_eq!(interval("1"), Some(Time::from_us(1)));
        assert_eq!(interval(" 250 "), Some(Time::from_ns(250)));
        assert_eq!(interval("fast"), Some(Time::from_us(1)));
        let cap = |v: &str| {
            let cfg = ObsConfig::from_lookup(lookup(&[("CORD_FLIGHT", v)]));
            assert_eq!(cfg.flight_out.as_deref(), Some("results/FLIGHT_last.txt"));
            cfg.flight
        };
        assert_eq!(cap("1"), Some(256));
        assert_eq!(cap("32"), Some(32));
        assert_eq!(cap("lots"), Some(256));
        let cfg = ObsConfig::from_lookup(lookup(&[
            ("CORD_PROFILE", " 1"),
            ("CORD_OBS_OUT", "o.json"),
            ("CORD_FLIGHT_OUT", "f.txt"),
        ]));
        assert_eq!(cfg.profile_out.as_deref(), Some("results/PROFILE.folded"));
        assert_eq!(cfg.obs_out.as_deref(), Some("o.json"));
        // An explicit dump path serves a ring armed programmatically.
        assert_eq!(cfg.flight_out.as_deref(), Some("f.txt"));
        assert_eq!(cfg.flight, None);
        let cfg = ObsConfig::from_lookup(lookup(&[
            ("CORD_PROFILE", "yes"),
            ("CORD_PROFILE_OUT", "p.folded"),
        ]));
        assert_eq!(cfg.profile_out.as_deref(), Some("p.folded"));
    }

    #[test]
    fn from_lookup_trace_switch_opens_writer() {
        let dir = std::env::temp_dir().join(format!("cord-trace-lookup-{}", std::process::id()));
        let out = dir.join("t.json");
        let out = out.to_str().expect("utf-8 temp path");
        let cfg = ObsConfig::from_lookup(lookup(&[
            ("CORD_TRACE", " 1 "),
            ("CORD_TRACE_OUT", out),
            ("CORD_OBS", "250"),
            ("CORD_PROFILE", "1"),
            ("CORD_FLIGHT", "32"),
        ]));
        let tr = Tracer::from_config(&cfg);
        assert!(tr.sink.is_some() && tr.metrics.is_some() && tr.profiler.is_some());
        assert_eq!(
            tr.sampler.as_ref().map(|s| s.interval()),
            Some(Time::from_ns(250))
        );
        assert_eq!(tr.flight.as_ref().map(RingSink::capacity), Some(32));
        assert_eq!(tr.files, cfg);
        drop(tr);
        std::fs::remove_dir_all(&dir).expect("trace file written under its directory");
    }

    #[test]
    fn fork_and_absorb_merge_every_observer() {
        let ring = Shared::new(RingSink::new(64));
        let mut parent = Tracer::with_sink(Box::new(ring.clone()));
        parent.arm_flight(4);
        parent.set_sampling(Some(Time::from_ns(10)));
        parent.set_profiling(true);
        let mut parts = vec![parent.fork(), parent.fork()];
        for (h, p) in parts.iter_mut().enumerate() {
            assert!(p.enabled() && p.sink.is_none() && p.files.flight_out.is_none());
            for t in [5, 1] {
                p.emit(
                    Time::from_ns(t),
                    TraceData::EpochOpen {
                        core: h as u32,
                        epoch: t,
                    },
                );
            }
            let s = p.sampler_mut().expect("sampler forked");
            assert_eq!(s.interval(), Time::from_ns(10));
            s.record("q", 0, h as u64);
            p.profiler_mut()
                .expect("profiler forked")
                .add_class("deliver", 7);
        }
        parent.absorb(parts);
        let order: Vec<(u64, u32, u64)> = ring.with(|r| {
            r.events()
                .map(|e| match e.data {
                    TraceData::EpochOpen { core, .. } => (e.at.as_ns(), core, e.seq),
                    _ => unreachable!(),
                })
                .collect()
        });
        // Time first, then partition, then emission index; fresh global seqs.
        assert_eq!(order, vec![(1, 0, 0), (1, 1, 1), (5, 0, 2), (5, 1, 3)]);
        let rings = parent.take_flight_rings();
        let keys: Vec<(u32, usize)> = rings.iter().map(|(p, r)| (*p, r.len())).collect();
        assert_eq!(keys, vec![(0, 2), (1, 2)]);
        let series = parent.take_series().expect("series");
        let names: Vec<&str> = series.series.keys().map(String::as_str).collect();
        assert_eq!(names, vec!["p0.q", "p1.q"]);
        let profile = parent.take_profile().expect("profile");
        assert_eq!(profile.classes, vec![("deliver".to_string(), 2, 14)]);
    }

    #[test]
    fn absorb_without_parts_keys_own_ring_as_partition_zero() {
        let mut tr = Tracer::disabled();
        tr.arm_flight(8);
        tr.emit(Time::ZERO, TraceData::EpochOpen { core: 0, epoch: 0 });
        tr.absorb(Vec::new());
        assert!(!tr.enabled(), "the ring moved out of the live set");
        let rings = tr.take_flight_rings();
        assert_eq!(rings.len(), 1);
        assert_eq!((rings[0].0, rings[0].1.len()), (0, 1));
    }

    #[test]
    fn tracer_sequences_events() {
        let ring = Shared::new(RingSink::new(8));
        let mut tr = Tracer::with_sink(Box::new(ring.clone()));
        for i in 0..3 {
            tr.emit(Time::from_ns(i), TraceData::EpochOpen { core: 0, epoch: i });
        }
        let seqs: Vec<u64> = ring.with(|r| r.events().map(|e| e.seq).collect());
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
