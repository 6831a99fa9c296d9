//! The system runner: cores + directories + interconnect + event loop.
//!
//! [`System`] composes the paper's Table 1 machine: one [`Frontend`] +
//! protocol core engine and one directory engine + memory slice per tile,
//! wired through the `cord-noc` interconnect, driven by a deterministic
//! event queue. [`System::run`] executes every program to completion and
//! returns a [`RunResult`] with the measurements the paper's figures report:
//! execution time, per-class interconnect traffic, stall attribution, and
//! peak lookup-table/buffer storage.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use cord_mem::{Addr, Memory};
use cord_noc::{EgressDelivery, MsgClass, Noc, PairFlow, TileId, TrafficStats};
use cord_proto::{
    CoreCtx, CoreEffect, CoreId, CoreProtoStats, CoreProtocol, DirCtx, DirEffect, DirId,
    DirProtocol, DirStorage, FaultSpec, Msg, MsgKind, NodeRef, Program, RecvOutcome, Resend,
    StallCause, SystemConfig, Transport, TransportConfig, ACK_BYTES,
};
use cord_sim::fault::{CrashKind, FaultPlan};
use cord_sim::obs::{ProfileSummary, SeriesSet};
use cord_sim::trace::{MetricsSnapshot, RingSink, TraceData, Tracer};
use cord_sim::{EventQueue, Time};

use crate::any::{AnyCore, AnyDir};
use crate::frontend::{FeAction, Frontend};
use crate::run_config::RunConfig;
use crate::shard::LoopState;

/// Events driving the simulation.
#[derive(Debug)]
pub(crate) enum Event {
    /// A message arrives at its destination (clean fabric, no transport).
    Deliver(Msg),
    /// A transport-tagged message arrives (fault-injection mode).
    DeliverSeq {
        /// The protocol message.
        msg: Msg,
        /// The sender's session epoch when it was transmitted.
        sess: u32,
        /// Its host-pair link sequence number.
        seq: u64,
        /// Which transmission of the message this copy is (1 = first).
        attempt: u32,
    },
    /// A transport acknowledgment arrives back at tile `src`, the sender
    /// of link sequence `seq` to tile `dst`; it echoes the acknowledged
    /// copy's `attempt`, and `dup` reports a duplicate delivery.
    XportAck {
        src: u32,
        dst: u32,
        sess: u32,
        seq: u64,
        attempt: u32,
        dup: bool,
    },
    /// A source host's retransmission timer fires.
    XportTimeout { host: u32 },
    /// A core's scheduled issue step (with its generation stamp).
    CoreStep { core: u32, gen: u64 },
    /// A protocol wake for a stalled core.
    CoreWake { core: u32 },
    /// A directory retry callback.
    DirWake { dir: u32 },
    /// A message reaches its destination host's switch port; ingress
    /// contention + port-to-tile mesh hops still apply before the payload
    /// event fires. Carries every cross-partition message of a sharded run
    /// and both copies of a monolithic run's duplicated inter-host
    /// messages.
    PortArrive {
        /// Wire size, for ingress serialization.
        bytes: u64,
        /// The event to schedule once ingress resolves.
        wire: Wire,
    },
    /// A scheduled crash fault strikes a host's node (from the
    /// `CORD_FAULTS` crash grammar).
    Crash {
        /// What resets: the directory controllers or the transport.
        kind: CrashKind,
        /// The struck host.
        host: u32,
    },
    /// Recovery poll for a core re-fencing after a directory crash: once
    /// the core's transport egress is drained, run one
    /// [`AnyCore::finish_recover`] step; re-polls until recovery completes.
    RecoverCheck {
        /// The recovering core.
        core: u32,
    },
}

impl Event {
    /// Event-class labels, indexed by [`Event::kind_index`]. Shared by the
    /// self-profiler's per-class buckets and the sampler's in-flight
    /// series.
    pub(crate) const KINDS: [&'static str; 10] = [
        "deliver",
        "deliver_seq",
        "xport_ack",
        "xport_timeout",
        "core_step",
        "core_wake",
        "dir_wake",
        "port_arrive",
        "crash",
        "recover_check",
    ];

    /// Index of this event's class in [`Event::KINDS`].
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            Event::Deliver(_) => 0,
            Event::DeliverSeq { .. } => 1,
            Event::XportAck { .. } => 2,
            Event::XportTimeout { .. } => 3,
            Event::CoreStep { .. } => 4,
            Event::CoreWake { .. } => 5,
            Event::DirWake { .. } => 6,
            Event::PortArrive { .. } => 7,
            Event::Crash { .. } => 8,
            Event::RecoverCheck { .. } => 9,
        }
    }

    /// This event's class label.
    pub(crate) fn kind_label(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }
}

/// What travels the fabric: the payload of every send (see
/// [`View::send_wire`]) and of a sharded run's [`Event::PortArrive`] —
/// everything the destination needs to finish a delivery whose egress half
/// was computed at the source.
#[derive(Debug, Clone)]
pub(crate) enum Wire {
    /// Clean-fabric delivery.
    Deliver(Msg),
    /// Transport-tagged delivery.
    DeliverSeq {
        msg: Msg,
        sess: u32,
        seq: u64,
        attempt: u32,
    },
    /// Transport acknowledgment travelling back to the sender.
    XportAck {
        src: u32,
        dst: u32,
        sess: u32,
        seq: u64,
        attempt: u32,
        dup: bool,
    },
}

impl Wire {
    /// Flat index of the tile this wire departs from.
    fn src_flat(&self) -> u32 {
        match self {
            Wire::Deliver(m) | Wire::DeliverSeq { msg: m, .. } => m.src.tile_flat(),
            // Acks depart from the original receiver's tile.
            Wire::XportAck { dst, .. } => *dst,
        }
    }

    /// Flat index of the tile this wire terminates at.
    fn dst_flat(&self) -> u32 {
        match self {
            Wire::Deliver(m) | Wire::DeliverSeq { msg: m, .. } => m.dst.tile_flat(),
            // Acks travel back to the original sender's tile.
            Wire::XportAck { src, .. } => *src,
        }
    }

    /// The event that delivers this wire at its destination.
    fn into_event(self) -> Event {
        match self {
            Wire::Deliver(msg) => Event::Deliver(msg),
            Wire::DeliverSeq {
                msg,
                sess,
                seq,
                attempt,
            } => Event::DeliverSeq {
                msg,
                sess,
                seq,
                attempt,
            },
            Wire::XportAck {
                src,
                dst,
                sess,
                seq,
                attempt,
                dup,
            } => Event::XportAck {
                src,
                dst,
                sess,
                seq,
                attempt,
                dup,
            },
        }
    }
}

/// A message crossing partitions in a sharded run: the source partition ran
/// the egress half (mesh-to-port, serialization, fabric latency, faults) and
/// stamped the port-arrival time; the destination partition finishes with
/// ingress contention.
#[derive(Debug)]
pub(crate) struct CrossMsg {
    /// Port-arrival time at the destination host. Always at least the
    /// departure round's LBTS plus the fabric's minimum latency — the
    /// conservative-lookahead guarantee.
    pub(crate) reach: Time,
    /// Wire size in bytes.
    pub(crate) bytes: u64,
    /// The payload.
    pub(crate) wire: Wire,
}

/// Sharded-run state carried by a host's [`Lane`]: which host it owns and
/// the per-destination outboxes flushed to the coordinator's mailboxes at
/// each round barrier.
pub(crate) struct Partition {
    /// The host this lane simulates.
    pub(crate) host: u32,
    /// Outgoing cross-partition messages, keyed by destination host. Sparse:
    /// only destinations actually written this round hold an entry, so a
    /// 512-host run never materializes O(hosts) empty vectors per lane
    /// (ordered so the flush visits destinations deterministically).
    pub(crate) outbox: BTreeMap<u32, Vec<CrossMsg>>,
}

/// Why a run could not complete (see [`System::try_run`]).
#[derive(Debug, Clone)]
pub enum RunError {
    /// The event cap was exceeded (livelock or runaway program).
    EventCap {
        /// Events processed when the cap tripped.
        events: u64,
    },
    /// The event queue drained with unfinished programs.
    Deadlock {
        /// First stuck core.
        core: u32,
        /// Human-readable description of the stuck state.
        detail: String,
    },
    /// The liveness watchdog tripped while at least one core was still
    /// inside a directory-crash recovery fence: the crash was injected but
    /// recovery never quiesced (stuck re-fence, lost replay, ...).
    Unrecovered {
        /// First core still recovering.
        core: u32,
        /// When progress was last observed.
        since: Time,
        /// Narrative dump of stuck cores, crash plan and transport state.
        narrative: String,
    },
    /// The liveness watchdog saw no forward progress for a full window.
    NoProgress {
        /// When progress was last observed.
        since: Time,
        /// Simulation time at detection.
        now: Time,
        /// The configured no-progress window.
        window: Time,
        /// Narrative dump of stuck cores, in-flight events and transport
        /// state (tracer-style, one line per item).
        narrative: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::EventCap { events } => write!(
                f,
                "event cap exceeded ({events}): livelock or runaway program?"
            ),
            RunError::Deadlock { detail, .. } => write!(f, "{detail}"),
            RunError::Unrecovered {
                core,
                since,
                narrative,
            } => write!(
                f,
                "unrecovered crash: core {core} still re-fencing after a directory/transport reset (no progress since {since})\n{narrative}"
            ),
            RunError::NoProgress {
                since,
                now,
                window,
                narrative,
            } => write!(
                f,
                "liveness watchdog: no forward progress since {since} (now {now}, window {window})\n{narrative}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Measurements from one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Latest per-core program completion time ("execution time").
    pub makespan: Time,
    /// Time the last event (including protocol drain) was processed.
    pub drained: Time,
    /// Interconnect traffic by class and scope.
    pub traffic: TrafficStats,
    /// Aggregate stalled time per cause, summed over cores.
    pub stalls: HashMap<StallCause, Time>,
    /// Sum of per-core busy spans (finish times), for stall-fraction math.
    pub core_time_total: Time,
    /// Per-core protocol storage peaks.
    pub proc_storages: Vec<CoreProtoStats>,
    /// Per-directory protocol storage peaks.
    pub dir_storages: Vec<DirStorage>,
    /// Final register files (observations).
    pub regs: Vec<[u64; 16]>,
    /// Total flag polls across cores.
    pub polls: u64,
    /// Events processed.
    pub events: u64,
    /// Trace-derived metrics, when a `MetricsRecorder` was attached (by
    /// the installed [`RunConfig`] or via [`System::tracer_mut`]).
    pub metrics: Option<MetricsSnapshot>,
    /// Sim-time-sampled observability series, when sampling was armed (by
    /// the installed [`RunConfig`] or via [`System::set_sampling`]). Deterministic:
    /// bit-identical at any worker count.
    pub obs: Option<SeriesSet>,
    /// Wall-clock self-profile, when profiling was armed (by the installed
    /// [`RunConfig`] or via [`System::set_profiling`]). Non-deterministic by
    /// construction — never part of run fingerprints.
    pub profile: Option<ProfileSummary>,
    /// Sparse per-host-pair flow counters, sorted by `(src, dst)`, when
    /// pair accounting was enabled ([`System::set_pair_accounting`]).
    pub pair_flows: Option<Vec<(u32, u32, PairFlow)>>,
}

impl RunResult {
    /// Total stalled time for `cause` across all cores.
    pub fn stall(&self, cause: StallCause) -> Time {
        self.stalls.get(&cause).copied().unwrap_or(Time::ZERO)
    }

    /// Largest per-core storage peak (paper Fig. 11 "Proc Storage").
    pub fn proc_storage_peak(&self) -> CoreProtoStats {
        self.proc_storages
            .iter()
            .copied()
            .max_by_key(|s| s.peak_total())
            .unwrap_or_default()
    }

    /// Largest per-directory storage peak (paper Fig. 11 "Dir Storage").
    pub fn dir_storage_peak(&self) -> DirStorage {
        self.dir_storages
            .iter()
            .copied()
            .max_by_key(|s| s.peak_total())
            .unwrap_or_default()
    }

    /// Total inter-host bytes (the paper's "traffic" metric).
    pub fn inter_bytes(&self) -> u64 {
        self.traffic.inter_bytes()
    }

    /// Completion time including protocol drain — the right "execution
    /// time" for fire-and-forget workloads with no consumer to gate the
    /// makespan (e.g. the §5.3 single-thread microbenchmark).
    pub fn completion(&self) -> Time {
        self.makespan.max(self.drained)
    }
}

/// A complete simulated multi-PU system.
///
/// # Example
///
/// ```
/// use cord::System;
/// use cord_mem::Addr;
/// use cord_proto::{Program, ProtocolKind, SystemConfig};
///
/// let cfg = SystemConfig::cxl(ProtocolKind::Cord, 2);
/// // Core 0 (host 0) publishes data + flag into host 1's memory;
/// // core 8 (host 1, tile 0) polls the flag, then reads the data.
/// let data = cfg.map.addr_on_host(1, 0);
/// let flag = cfg.map.addr_on_host(1, 4096);
/// let producer = Program::build()
///     .store_relaxed(data, 42)
///     .store_release(flag, 1)
///     .finish();
/// let consumer = Program::build()
///     .wait_value(flag, 1)
///     .load(data, 8, cord_proto::LoadOrd::Relaxed, 0)
///     .finish();
/// let mut programs = vec![Program::new(); 16];
/// programs[0] = producer;
/// programs[8] = consumer;
/// let result = System::new(cfg, programs).run();
/// assert_eq!(result.regs[8][0], 42, "consumer observed the data");
/// ```
///
/// The system keeps every tile and the run settings once. Events run on a
/// view: a block of tiles borrowed together with a lane (queue, NoC,
/// transport, tracer). The monolithic engine has one view over every
/// tile with the system's own lane; the sharded engine lends each host's
/// block to a lane of its own, so a run of either engine never moves a
/// tile out of the system.
pub struct System {
    pub(crate) cfg: SystemConfig,
    /// Per-core state in struct-of-arrays layout, numbered host-major: the
    /// event loop's hottest accesses (frontend step/wake, fingerprint walks,
    /// stall scans) touch only `fes`, so splitting the engines out keeps
    /// those walks dense.
    pub(crate) fes: Vec<Frontend>,
    pub(crate) engines: Vec<AnyCore>,
    /// Per-directory state, split the same way.
    pub(crate) dir_engines: Vec<AnyDir>,
    pub(crate) mems: Vec<Memory>,
    pub(crate) max_events: u64,
    /// Liveness watchdog window: trip when no core makes forward progress
    /// for this much simulated time. Defaults on (1 ms) in fault mode.
    pub(crate) watchdog: Option<Time>,
    /// Fault spec as installed (plan + transport config), kept so the
    /// sharded engine's lanes can install it too.
    pub(crate) fault_spec: Option<(FaultPlan, TransportConfig)>,
    /// `Some(w)`: run through the sharded conservative-lookahead engine with
    /// `w` workers (from the installed [`RunConfig`] or
    /// [`System::set_sim_threads`]).
    pub(crate) sim_threads: Option<usize>,
    /// The monolithic engine's lane. A sharded run's lanes hand their NoC
    /// statistics and observers to it.
    pub(crate) lane: Lane,
}

/// One execution lane: the event-loop state a run keeps besides the tiles.
pub(crate) struct Lane {
    pub(crate) queue: EventQueue<Event>,
    pub(crate) noc: Noc,
    /// Reliable-transport shim, present only in fault-injection mode (the
    /// clean-fabric fast path stays byte-identical when this is `None`).
    pub(crate) xport: Option<Transport>,
    /// The lane's observer set; the system's is armed from the installed
    /// [`RunConfig`] or programmatically ([`System::tracer_mut`]).
    pub(crate) tracer: Tracer,
    /// Scratch buffers reused across events (the hot loop would otherwise
    /// allocate one effect vector and one action vector per event).
    scratch_fx: Vec<CoreEffect>,
    scratch_acts: Vec<FeAction>,
    scratch_dfx: Vec<DirEffect>,
    /// Per-host count of directory crashes already injected (the `gen`
    /// stamped into [`MsgKind::DirRecover`] notices). Per-host so sharded
    /// and monolithic runs stamp identical generations.
    crash_gens: Vec<u32>,
    /// A sharded lane's host and outboxes; `None` on the system's lane.
    pub(crate) part: Option<Partition>,
}

/// What a lane's events run on: a block of the system's tiles, borrowed
/// with the lane and the shared settings. Events, traces and engine ids
/// carry global tile ids; slice accesses subtract `base`, the block's first
/// tile.
pub(crate) struct View<'a> {
    cfg: &'a SystemConfig,
    pub(crate) watchdog: Option<Time>,
    base: u32,
    fes: &'a mut [Frontend],
    engines: &'a mut [AnyCore],
    dir_engines: &'a mut [AnyDir],
    mems: &'a mut [Memory],
    pub(crate) lane: &'a mut Lane,
}

impl System {
    /// Builds a system running `cfg.protocol`, loading `programs[i]` onto
    /// core `i` (missing entries run empty programs), with the faults,
    /// engine and observers of the installed [`RunConfig`] (none without
    /// one). Reads no environment. Each program moves into its core's
    /// [`Frontend`], the one copy the run keeps.
    ///
    /// # Panics
    ///
    /// Panics if `programs` has more entries than the system has cores, or
    /// if `cfg` is internally inconsistent.
    pub fn new(cfg: SystemConfig, mut programs: Vec<Program>) -> Self {
        cfg.validate();
        let tiles = cfg.total_tiles();
        assert!(
            programs.len() <= tiles as usize,
            "{} programs for {} cores",
            programs.len(),
            tiles
        );
        programs.resize(tiles as usize, Program::new());
        let fes: Vec<Frontend> = programs
            .into_iter()
            .map(|p| Frontend::new(p, &cfg.costs))
            .collect();
        let mut sys = System {
            engines: (0..tiles).map(|i| AnyCore::new(CoreId(i), &cfg)).collect(),
            dir_engines: (0..tiles).map(|i| AnyDir::new(DirId(i), &cfg)).collect(),
            mems: (0..tiles).map(|_| Memory::new()).collect(),
            lane: Lane::new(Noc::new(cfg.noc), Tracer::disabled(), 0, &fes),
            fes,
            cfg,
            max_events: 500_000_000,
            watchdog: None,
            fault_spec: None,
            sim_threads: None,
        };
        RunConfig::apply_installed(&mut sys);
        sys
    }

    /// Enables fault injection: installs `plan` on the interconnect and the
    /// reliable-transport shim configured by `xcfg` (its `fifo` field is
    /// overridden from the protocol under test — see
    /// [`cord_proto::ProtocolKind::needs_fifo`]). Also arms the liveness
    /// watchdog (1 ms window) unless one was already set.
    pub fn set_faults(&mut self, plan: FaultPlan, xcfg: TransportConfig) {
        self.lane.set_faults(&self.cfg, plan.clone(), xcfg);
        self.fault_spec = Some((plan, xcfg));
        if self.watchdog.is_none() {
            self.watchdog = Some(Time::from_us(1000));
        }
    }

    /// Parses a `CORD_FAULTS`-grammar spec and enables fault injection.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed directive.
    pub fn set_fault_spec(&mut self, spec: &str) -> Result<(), String> {
        let fs = FaultSpec::parse(spec)?;
        self.set_faults(fs.plan, fs.xport);
        Ok(())
    }

    /// Sets (or disables) the liveness watchdog window.
    pub fn set_watchdog(&mut self, window: Option<Time>) {
        self.watchdog = window;
    }

    /// Arms (or disarms) sim-time sampling at the given grid interval. The
    /// resulting series rides [`RunResult::obs`] and is bit-identical at
    /// any worker count. Overrides the installed [`RunConfig`].
    pub fn set_sampling(&mut self, interval: Option<Time>) {
        self.lane.tracer.set_sampling(interval);
    }

    /// Arms (or disarms) the wall-clock self-profiler; the summary rides
    /// [`RunResult::profile`]. Overrides the installed [`RunConfig`].
    pub fn set_profiling(&mut self, on: bool) {
        self.lane.tracer.set_profiling(on);
    }

    /// After a failed [`System::try_run`] with the flight recorder armed
    /// (by the installed [`RunConfig`] or via [`Tracer::arm_flight`]): the rings
    /// of last-seen trace events, for callers that want to render the dump
    /// themselves (the `trace` binary).
    pub fn take_flight_rings(&mut self) -> Vec<(u32, RingSink)> {
        self.lane.tracer.take_flight_rings()
    }

    /// Selects the execution engine: `Some(w)` runs through the sharded
    /// conservative-lookahead engine with `w` worker threads (the partition
    /// count is always the host count, so results are identical for every
    /// `w`); `None` runs the classic single-queue loop. Defaults to the
    /// installed [`RunConfig`]'s `sim_threads` (monolithic without one).
    pub fn set_sim_threads(&mut self, workers: Option<usize>) {
        self.sim_threads = workers.filter(|&w| w >= 1);
    }

    /// Enables per-host-pair flow accounting on the interconnect; the
    /// sorted flows of every pair that carried traffic then ride
    /// [`RunResult::pair_flows`]. Off by default (zero hot-path cost);
    /// identical under both engines at any worker count.
    pub fn set_pair_accounting(&mut self, on: bool) {
        self.lane.noc.set_pair_accounting(on);
    }

    /// The system's tracer, for installing sinks or a metrics recorder
    /// programmatically (tests, the `trace` binary).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.lane.tracer
    }

    /// Caps the number of processed events (guards against livelock in
    /// exploratory experiments).
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Reads a committed word from its home directory (test observation).
    pub fn mem_peek(&self, addr: Addr) -> u64 {
        self.mems[self.cfg.map.home_dir(addr) as usize].peek(addr)
    }

    /// Runs to completion.
    ///
    /// # Panics
    ///
    /// Panics on any [`RunError`]: deadlock (event queue drained with
    /// unfinished programs), event-cap exhaustion, or a liveness-watchdog
    /// trip. Use [`System::try_run`] to handle these structurally.
    pub fn run(&mut self) -> RunResult {
        match self.try_run() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs to completion, reporting livelock/deadlock/no-progress as a
    /// structured [`RunError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`RunError`] describing why the run could not complete.
    pub fn try_run(&mut self) -> Result<RunResult, RunError> {
        // An attached coverage map needs the run parameters some edges are
        // defined against (watchdog near-miss threshold, backoff cap); both
        // engines share this configuration point, and the sharded engine's
        // merged replay feeds this same system-held map.
        let watchdog_ns = self.watchdog.map(|w| w.as_ns());
        let backoff_cap = self.fault_spec.as_ref().map(|(_, x)| x.max_backoff_exp);
        if let Some(cov) = self.lane.tracer.coverage_mut() {
            cov.configure(watchdog_ns, backoff_cap);
        }
        let res = if let Some(workers) = self.sim_threads {
            crate::shard::run_sharded(self, workers)
        } else {
            self.run_monolithic()
        };
        // The one shared exit point for observability outputs: series and
        // profile exports on success, the flight-recorder dump on failure.
        match &res {
            Ok(r) => self.lane.tracer.write_outputs(
                None,
                r.obs.as_ref(),
                r.metrics.as_ref(),
                r.profile.as_ref(),
            ),
            Err(e) => self
                .lane
                .tracer
                .write_outputs(Some(&e.to_string()), None, None, None),
        }
        res
    }

    /// The classic single-queue engine: the view over every tile, run with
    /// an open horizon.
    fn run_monolithic(&mut self) -> Result<RunResult, RunError> {
        self.lane.schedule_crashes(self.fault_spec.as_ref(), None);
        let max_events = self.max_events;
        let mut view = self.view();
        let mut st = LoopState::new(&view);
        let verdict = view.run_until(u64::MAX, max_events, &mut st, true).err();
        view.finish(st.drained, verdict.is_none());
        self.finish_run(Vec::new(), st.drained, st.events, verdict)
    }

    /// The view over every tile with the system's own lane.
    fn view(&mut self) -> View<'_> {
        View {
            cfg: &self.cfg,
            watchdog: self.watchdog,
            base: 0,
            fes: &mut self.fes,
            engines: &mut self.engines,
            dir_engines: &mut self.dir_engines,
            mems: &mut self.mems,
            lane: &mut self.lane,
        }
    }

    /// One view per host, over the host's block of tiles with
    /// `lanes[host]`; tiles are numbered host-major, so each block is one
    /// chunk of every per-tile vector.
    pub(crate) fn host_views<'a>(&'a mut self, lanes: &'a mut [Lane]) -> Vec<View<'a>> {
        let tph = self.cfg.noc.tiles_per_host as usize;
        let (cfg, watchdog) = (&self.cfg, self.watchdog);
        let blocks = self
            .fes
            .chunks_mut(tph)
            .zip(self.engines.chunks_mut(tph))
            .zip(self.dir_engines.chunks_mut(tph))
            .zip(self.mems.chunks_mut(tph));
        blocks
            .zip(lanes)
            .enumerate()
            .map(|(h, ((((fes, engines), dir_engines), mems), lane))| View {
                cfg,
                watchdog,
                base: (h * tph) as u32,
                fes,
                engines,
                dir_engines,
                mems,
                lane,
            })
            .collect()
    }

    /// Tracer-style narrative of a stuck run over the `lanes` that executed
    /// it: unfinished cores, the earliest in-flight events, and outstanding
    /// transport state.
    pub(crate) fn narrate_hang(&self, lanes: &[&Lane]) -> String {
        let mut s = String::new();
        for (i, fe) in self.fes.iter().enumerate() {
            if fe.is_done() {
                continue;
            }
            let _ = writeln!(
                s,
                "  core {i}: stuck at pc {} on {:?} (stall: {}, polls: {}, engine quiesced: {}, recovering: {})",
                fe.pc(),
                fe.current_op().map(|o| o.mnemonic()),
                fe.open_stall()
                    .map_or("none".to_string(), |(c, since)| format!(
                        "{} since {since}",
                        c.label()
                    )),
                fe.polls(),
                self.engines[i].quiesced(),
                self.engines[i].recovering(),
            );
        }
        let mut pending: Vec<(Time, String)> = lanes
            .iter()
            .flat_map(|l| l.queue.iter().map(|(t, ev)| (t, Self::describe_event(ev))))
            .collect();
        pending.sort();
        let _ = writeln!(s, "  in-flight events: {}", pending.len());
        for (t, d) in pending.iter().take(12) {
            let _ = writeln!(s, "    at {t}: {d}");
        }
        if pending.len() > 12 {
            let _ = writeln!(s, "    … {} more", pending.len() - 12);
        }
        let xports: Vec<&Transport> = lanes.iter().filter_map(|l| l.xport.as_ref()).collect();
        if let Some(x) = xports.first() {
            let _ = writeln!(
                s,
                "  transport: {} unacked ({} retransmits, {} session resets, {} replays, reliable: {})",
                xports.iter().map(|x| x.unacked_total()).sum::<usize>(),
                xports.iter().map(|x| x.stats().retransmits).sum::<u64>(),
                xports.iter().map(|x| x.stats().sessions_reset).sum::<u64>(),
                xports.iter().map(|x| x.stats().replayed).sum::<u64>(),
                x.config().reliable,
            );
        }
        if let Some(plan) = self.crash_plan_summary() {
            s.push_str(&plan);
        }
        s
    }

    /// One-line-per-host summary of the active fault plan's crash schedule,
    /// for hang/deadlock narratives; `None` when no crash faults are armed.
    fn crash_plan_summary(&self) -> Option<String> {
        let (plan, _) = self.fault_spec.as_ref()?;
        if !plan.has_crashes() {
            return None;
        }
        let hosts = self.cfg.noc.hosts;
        let evs = plan.crash_events(hosts);
        let mut per_host: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
        for e in &evs {
            let slot = per_host.entry(e.host).or_default();
            match e.kind {
                CrashKind::DirReset => slot.0 += 1,
                CrashKind::XportReset => slot.1 += 1,
            }
        }
        let mut s = format!("  fault plan: {} crash injection(s)\n", evs.len());
        for (h, (d, x)) in per_host {
            let _ = writeln!(s, "    host {h}: {d} dir reset(s), {x} transport reset(s)");
        }
        for e in evs.iter().take(8) {
            let _ = writeln!(
                s,
                "    at {}: {} reset on host {}",
                e.at,
                e.kind.label(),
                e.host
            );
        }
        if evs.len() > 8 {
            let _ = writeln!(s, "    … {} more", evs.len() - 8);
        }
        Some(s)
    }

    fn describe_event(ev: &Event) -> String {
        match ev {
            Event::Deliver(m) => format!(
                "deliver {} tile{} -> tile{}",
                m.kind.name(),
                m.src.tile_flat(),
                m.dst.tile_flat()
            ),
            Event::DeliverSeq { msg, sess, seq, .. } => format!(
                "deliver {} sess {sess} seq {seq} tile{} -> tile{}",
                msg.kind.name(),
                msg.src.tile_flat(),
                msg.dst.tile_flat()
            ),
            Event::XportAck {
                src,
                dst,
                sess,
                seq,
                ..
            } => {
                format!("xport ack sess {sess} seq {seq} for tile{src} -> tile{dst}")
            }
            Event::XportTimeout { host } => format!("xport timer host {host}"),
            Event::CoreStep { core, .. } => format!("core {core} step"),
            Event::CoreWake { core } => format!("core {core} wake"),
            Event::DirWake { dir } => format!("dir {dir} retry"),
            Event::PortArrive { bytes, wire } => {
                format!("port arrival for tile{} ({bytes} B)", wire.dst_flat())
            }
            Event::Crash { kind, host } => format!("crash {} host {host}", kind.label()),
            Event::RecoverCheck { core } => format!("recover check core {core}"),
        }
    }

    pub(crate) fn check_finished(&self) -> Result<(), RunError> {
        // A stuck core is reported before any engine is checked: the
        // message it lacks may be one a finished core still awaits an
        // acknowledgment for.
        if let Some(i) = self.fes.iter().position(|fe| !fe.is_done()) {
            let fe = &self.fes[i];
            let mut detail = format!(
                "deadlock: core {i} stuck at pc {} on {:?} (engine quiesced: {}, recovering: {})",
                fe.pc(),
                fe.current_op().map(|o| o.mnemonic()),
                self.engines[i].quiesced(),
                self.engines[i].recovering(),
            );
            if let Some(plan) = self.crash_plan_summary() {
                detail.push('\n');
                detail.push_str(&plan);
            }
            return Err(RunError::Deadlock {
                core: i as u32,
                detail,
            });
        }
        for (i, engine) in self.engines.iter().enumerate() {
            debug_assert!(engine.quiesced(), "core {i} engine not quiesced at drain");
        }
        Ok(())
    }

    pub(crate) fn collect(&self, drained: Time, events: u64) -> RunResult {
        let mut stalls: HashMap<StallCause, Time> = HashMap::new();
        let mut makespan = Time::ZERO;
        let mut core_time_total = Time::ZERO;
        let mut polls = 0;
        for fe in &self.fes {
            for (cause, t) in fe.stall_totals() {
                *stalls.entry(cause).or_insert(Time::ZERO) += t;
            }
            if let Some(f) = fe.finish_time() {
                makespan = makespan.max(f);
                core_time_total += f;
            }
            polls += fe.polls();
        }
        let noc = &self.lane.noc;
        RunResult {
            makespan,
            drained,
            traffic: *noc.stats(),
            stalls,
            core_time_total,
            proc_storages: self.engines.iter().map(|c| c.stats()).collect(),
            dir_storages: self.dir_engines.iter().map(|d| d.storage()).collect(),
            regs: self.fes.iter().map(|fe| *fe.regs()).collect(),
            polls,
            events,
            metrics: None,
            obs: None,
            profile: None,
            pair_flows: noc.pair_accounting().then(|| noc.pair_flows_sorted()),
        }
    }
}

impl Lane {
    /// An idle lane over `noc` and `tracer` whose queue holds the first
    /// step of each of `fes`, numbered from tile `base`.
    pub(crate) fn new(noc: Noc, tracer: Tracer, base: u32, fes: &[Frontend]) -> Self {
        // Steady state holds roughly one in-flight event per tile plus
        // messages on the wire; start with a few slots per tile so the
        // calendar never regrows during warm-up.
        let mut queue = EventQueue::with_capacity(4 * fes.len());
        for (core, fe) in (base..).zip(fes) {
            let FeAction::StepAt { at, gen } = fe.initial_action();
            queue.push(at, Event::CoreStep { core, gen });
        }
        Lane {
            crash_gens: vec![0; noc.config().hosts as usize],
            queue,
            noc,
            xport: None,
            tracer,
            scratch_fx: Vec::new(),
            scratch_acts: Vec::new(),
            scratch_dfx: Vec::new(),
            part: None,
        }
    }

    /// Installs `plan` on the lane's interconnect and a transport
    /// configured by `xcfg`, whose `fifo` follows `cfg`'s protocol.
    pub(crate) fn set_faults(
        &mut self,
        cfg: &SystemConfig,
        plan: FaultPlan,
        mut xcfg: TransportConfig,
    ) {
        xcfg.fifo = cfg.protocol.needs_fifo();
        self.noc.set_faults(Some(plan));
        self.xport = Some(Transport::new(xcfg, cfg.noc.hosts, cfg.noc.tiles_per_host));
    }

    /// Schedules the crash events of the fault `spec` into the queue. The
    /// monolithic lane passes `None` (all hosts); a sharded lane passes its
    /// own host, so each crash fires exactly once, in the lane that owns
    /// the struck node. The schedule is a pure function of the plan and
    /// host count, so results stay bit-identical at any worker count.
    pub(crate) fn schedule_crashes(
        &mut self,
        spec: Option<&(FaultPlan, TransportConfig)>,
        only_host: Option<u32>,
    ) {
        let Some((plan, _)) = spec.filter(|(plan, _)| plan.has_crashes()) else {
            return;
        };
        let hosts = self.noc.config().hosts;
        for ev in plan.crash_events(hosts) {
            // Explicit `crash.K.H=NS` directives may name a host the
            // topology doesn't have (fuzzed specs do); skip those.
            if ev.host >= hosts || only_host.is_some_and(|h| h != ev.host) {
                continue;
            }
            self.queue.push(
                ev.at,
                Event::Crash {
                    kind: ev.kind,
                    host: ev.host,
                },
            );
        }
    }

    /// Copies the transport shim's counters into the interconnect's fault
    /// statistics so they ride `RunResult::traffic`.
    fn mirror_xport_stats(&mut self) {
        if let Some(x) = &self.xport {
            let s = *x.stats();
            let f = self.noc.fault_stats_mut();
            f.retransmits = s.retransmits;
            f.spurious_retransmits = s.spurious_retransmits;
            f.dup_dropped = s.dup_dropped;
            f.sessions_reset = s.sessions_reset;
            f.replayed = s.replayed;
            f.stale_rejected = s.stale_rejected;
        }
    }

    /// Snapshots the loop's gauges into the sampler once `now` crosses its
    /// next grid boundary.
    pub(crate) fn take_sample(&mut self, now: Time) {
        let Some(s) = self.tracer.sampler_mut().filter(|s| s.due(now.as_ps())) else {
            return;
        };
        let t = s.begin_sample(now.as_ps());
        s.record("queue_depth", t, self.queue.len() as u64);
        let (near, staged, far) = self.queue.rung_depths();
        s.record("queue_near", t, near as u64);
        s.record("queue_staged", t, staged as u64);
        s.record("queue_far", t, far as u64);
        let mut counts = [0u64; Event::KINDS.len()];
        for (_, ev) in self.queue.iter() {
            counts[ev.kind_index()] += 1;
        }
        for (kind, n) in Event::KINDS.iter().zip(counts) {
            s.record(&format!("inflight_{kind}"), t, n);
        }
        if let Some(x) = &self.xport {
            s.record("xport_unacked", t, x.unacked_total() as u64);
            s.record("xport_retransmits", t, x.stats().retransmits);
        }
    }

    /// How often a recovering core re-checks its quiesce condition: the
    /// transport RTO (the bound on how long an unacked message stays
    /// outstanding before resend), or 1µs without a transport.
    fn recover_poll_interval(&self) -> Time {
        self.xport
            .as_ref()
            .map_or(Time::from_ns(1_000), |x| x.config().rto)
    }

    /// Schedules `host`'s retransmission timer at `arm`, when the transport
    /// moved it earlier (a timer it superseded fires as a no-op).
    fn arm_xport_timer(&mut self, host: u32, arm: Option<Time>) {
        if let Some(at) = arm {
            self.queue.push(at, Event::XportTimeout { host });
        }
    }

    /// Lands one copy of a wire whose egress half reached `dst`'s host port
    /// at `reach`, and returns when it lands (its port arrival, if ingress
    /// is still to be paid). `delayed` is the injected delay of a single
    /// copy (zero when clean), `None` for either copy of a duplicated pair.
    ///
    /// A monolithic single inter-host copy pays [`Noc::ingress`] at once,
    /// at its clean port arrival, and carries its delay past the port:
    /// clean, that is exactly [`Noc::send`]. A delayed copy thus does not
    /// hold the port for traffic that arrives before it, yet still lands
    /// its delay later, so jitter reorders a tile's inter-host traffic.
    /// A duplicated pair has no one clean
    /// arrival (its second copy left later), so each copy lands through a
    /// local [`Event::PortArrive`] and pays ingress on arrival. A sharded
    /// cross-host copy joins the outbox for the destination lane, which
    /// pays ingress on arrival. Anything else was fully delivered by
    /// egress (it models the whole mesh path) and goes straight into the
    /// local queue.
    fn land(
        &mut self,
        reach: Time,
        delayed: Option<Time>,
        src_host: u32,
        dst: TileId,
        bytes: u64,
        wire: Wire,
    ) -> Time {
        match (&mut self.part, delayed) {
            (Some(part), _) if dst.host != part.host => {
                part.outbox
                    .entry(dst.host)
                    .or_default()
                    .push(CrossMsg { reach, bytes, wire });
                reach
            }
            (None, Some(extra)) if src_host != dst.host => {
                let at = self.noc.ingress(reach - extra, dst, bytes) + extra;
                self.queue.push(at, wire.into_event());
                at
            }
            (None, None) if src_host != dst.host => {
                self.queue.push(reach, Event::PortArrive { bytes, wire });
                reach
            }
            _ => {
                self.queue.push(reach, wire.into_event());
                reach
            }
        }
    }
}

impl View<'_> {
    /// Processes one event (the body of [`View::run_until`], the event
    /// loop of both engines).
    pub(crate) fn handle_event(&mut self, now: Time, ev: Event) {
        match ev {
            Event::Deliver(msg) => self.dispatch(now, msg),
            Event::DeliverSeq {
                msg,
                sess,
                seq,
                attempt,
            } => self.deliver_tagged(now, msg, sess, seq, attempt),
            Event::XportAck {
                src,
                dst,
                sess,
                seq,
                attempt,
                dup,
            } => {
                if let Some(x) = self.lane.xport.as_mut() {
                    x.on_ack(src, dst, sess, seq, attempt, dup);
                }
            }
            Event::XportTimeout { host } => self.on_xport_timer(now, host),
            Event::CoreStep { core, gen } => {
                self.with_core(core, now, |fe, eng, fx, acts, tr| {
                    fe.on_step(gen, now, eng, fx, acts, tr);
                });
            }
            Event::CoreWake { core } => {
                self.with_core(core, now, |fe, eng, fx, acts, tr| {
                    fe.on_wake(now, eng, fx, acts, tr);
                });
            }
            Event::DirWake { dir } => self.with_dir(dir, now, |eng, ctx| eng.retry(ctx)),
            Event::PortArrive { bytes, wire } => {
                let tph = self.cfg.noc.tiles_per_host;
                let dst = TileId::from_flat(wire.dst_flat(), tph);
                let at = self.lane.noc.ingress(now, dst, bytes);
                self.lane.queue.push(at, wire.into_event());
            }
            Event::Crash { kind, host } => self.on_crash(now, kind, host),
            Event::RecoverCheck { core } => self.on_recover_check(now, core),
        }
    }

    /// A crash fault strikes `host`: reset its directory controllers (and
    /// broadcast the recovery notice) or its transport send channels.
    fn on_crash(&mut self, now: Time, kind: CrashKind, host: u32) {
        let tph = self.cfg.noc.tiles_per_host;
        let (lo, hi) = (host * tph, (host + 1) * tph);
        match kind {
            CrashKind::DirReset => {
                // Reset every directory engine on the host. Engines without
                // recoverable ordering state (every non-CORD protocol)
                // report `None`: the crash is traced with zero units wiped
                // and otherwise ignored — graceful degradation.
                let mut units = 0u32;
                let mut struck = Vec::new();
                for t in lo..hi {
                    if let Some(u) = self.dir_engines[(t - self.base) as usize].crash_reset() {
                        units += u;
                        struck.push(t);
                    }
                }
                self.lane.tracer.emit_with(now, || TraceData::CrashInject {
                    host,
                    kind: kind.label(),
                    units,
                });
                let gen = self.lane.crash_gens[host as usize];
                self.lane.crash_gens[host as usize] += 1;
                // Tell every core the directory lost its tables; cores with
                // in-flight epochs enter the conservative recovery fence.
                // The notices ride the normal (faulty, reliable) fabric.
                let cores = self.cfg.total_tiles();
                for d in struck {
                    for c in 0..cores {
                        let msg = Msg::new(
                            NodeRef::Dir(DirId(d)),
                            NodeRef::Core(CoreId(c)),
                            MsgKind::DirRecover { gen },
                        );
                        self.route(now, msg);
                    }
                }
            }
            CrashKind::XportReset => {
                let Some(x) = self.lane.xport.as_mut() else {
                    self.lane.tracer.emit_with(now, || TraceData::CrashInject {
                        host,
                        kind: kind.label(),
                        units: 0,
                    });
                    return;
                };
                let mut replays = Vec::new();
                let arm = x.reset_host(host, now, &mut replays);
                self.lane.tracer.emit_with(now, || TraceData::CrashInject {
                    host,
                    kind: kind.label(),
                    units: replays.len() as u32,
                });
                self.resend(now, replays, arm, host);
            }
        }
    }

    /// Recovery poll: once the recovering core's transport egress has fully
    /// drained (every outbound message acknowledged), run one
    /// [`AnyCore::finish_recover`] step; re-poll until recovery completes.
    fn on_recover_check(&mut self, now: Time, core: u32) {
        if !self.engines[(core - self.base) as usize].recovering() {
            return;
        }
        let drained = self
            .lane
            .xport
            .as_ref()
            .is_none_or(|x| x.unacked_from(core) == 0);
        if drained {
            self.with_core(core, now, |_fe, eng, fx, _acts, tr| {
                let mut ctx = CoreCtx::traced(now, fx, tr);
                eng.finish_recover(&mut ctx);
            });
        }
        self.poll_recovery(now, core);
    }

    /// Arms `core`'s next quiesce poll while it is inside the recovery
    /// fence.
    fn poll_recovery(&mut self, now: Time, core: u32) {
        if self.engines[(core - self.base) as usize].recovering() {
            let at = now + self.lane.recover_poll_interval();
            self.lane.queue.push(at, Event::RecoverCheck { core });
        }
    }

    /// Ends the lane's share of a run that drained at `drained`: on
    /// success, closes the stall episodes still open, so they are neither
    /// lost from `RunResult::stalls` nor left dangling in the trace (only
    /// on success, so failure traces stay comparable across engines); then
    /// mirrors the transport's counters into the NoC's.
    pub(crate) fn finish(&mut self, drained: Time, ok: bool) {
        if ok {
            debug_assert!(self.lane.queue.peek_time().is_none(), "events after drain");
            for (core, fe) in (self.base..).zip(self.fes.iter_mut()) {
                if let Some((cause, since)) = fe.open_stall() {
                    self.lane.tracer.emit_with(drained, || TraceData::StallEnd {
                        core,
                        cause: cause.label(),
                        since,
                    });
                }
                fe.flush_stalls(drained);
            }
        }
        self.lane.mirror_xport_stats();
    }

    /// Forward-progress fingerprint for the liveness watchdog: advances
    /// whenever any core's program counter moves or finishes, or the
    /// transport retransmits (active loss recovery is progress, not a
    /// hang). Deliberately excludes poll counts, raw event counts, and
    /// first transmissions — a consumer spinning on a flag that will never
    /// be set keeps polling (and sending read requests) forever without
    /// advancing this fingerprint.
    pub(crate) fn progress_fingerprint(&self) -> (u64, u64, u64) {
        let mut pcs = 0u64;
        let mut done = 0u64;
        for fe in self.fes.iter() {
            pcs += fe.pc() as u64;
            done += fe.is_done() as u64;
        }
        let xp = self.lane.xport.as_ref().map_or(0, |x| {
            let s = x.stats();
            // Session resets and replays are active crash recovery, not a
            // hang; counting them keeps the watchdog quiet mid-recovery.
            s.retransmits + s.sessions_reset + s.replayed
        });
        (pcs, done, xp)
    }

    /// Delivers a protocol message to its destination engine.
    fn dispatch(&mut self, now: Time, msg: Msg) {
        self.lane.tracer.emit_with(now, || TraceData::MsgDeliver {
            src: msg.src.tile_flat(),
            dst: msg.dst.tile_flat(),
            kind: msg.kind.name(),
            class: msg.class().label(),
            bytes: msg.bytes,
        });
        match msg.dst {
            NodeRef::Core(CoreId(c)) => {
                // Directory-recovery notices are a runner-level protocol:
                // they may flip the core into the recovery fence, which the
                // runner then polls with `RecoverCheck` events.
                if matches!(msg.kind, MsgKind::DirRecover { .. }) {
                    return self.on_dir_recover_msg(now, msg);
                }
                self.with_core(c, now, |_fe, eng, fx, _acts, tr| {
                    let mut ctx = CoreCtx::traced(now, fx, tr);
                    eng.on_msg(msg.src, msg.kind, &mut ctx);
                });
            }
            NodeRef::Dir(DirId(d)) => self.with_dir(d, now, |eng, ctx| eng.on_msg(msg, ctx)),
        }
    }

    /// Delivers a [`MsgKind::DirRecover`] notice to its core and, if the
    /// core entered (or re-armed) the recovery fence, arms the quiesce poll.
    fn on_dir_recover_msg(&mut self, now: Time, msg: Msg) {
        let NodeRef::Dir(dir) = msg.src else {
            return;
        };
        let NodeRef::Core(CoreId(c)) = msg.dst else {
            return;
        };
        self.with_core(c, now, |_fe, eng, fx, _acts, tr| {
            let mut ctx = CoreCtx::traced(now, fx, tr);
            eng.on_dir_recover(dir, &mut ctx);
        });
        self.poll_recovery(now, c);
    }

    /// Handles the arrival of a transport-tagged message: acknowledge,
    /// suppress duplicates, and deliver whatever the receiver releases
    /// (possibly several messages when a FIFO gap fills, or none when the
    /// arrival is held back).
    fn deliver_tagged(&mut self, now: Time, msg: Msg, sess: u32, seq: u64, attempt: u32) {
        let (sflat, dflat) = (msg.src.tile_flat(), msg.dst.tile_flat());
        let Some(x) = self.lane.xport.as_mut() else {
            return self.dispatch(now, msg);
        };
        let outcome = x.on_deliver(sess, seq, msg);
        if outcome == RecvOutcome::Duplicate {
            self.lane.tracer.emit_with(now, || TraceData::XportDupDrop {
                src: sflat,
                dst: dflat,
                seq,
            });
        }
        if outcome == RecvOutcome::Stale {
            // A retransmission from before a transport reset: reject it
            // WITHOUT acknowledging — the new session replayed this
            // sequence, and an ack here could retire the replay first.
            self.lane
                .tracer
                .emit_with(now, || TraceData::XportStaleRej {
                    src: sflat,
                    dst: dflat,
                    seq,
                    sess,
                });
            return;
        }
        // Always acknowledge — the sender may have missed an earlier ack.
        // Acks are unsequenced: losing one is recovered by sender
        // retransmission and receiver re-ack.
        self.send_wire(
            now,
            Wire::XportAck {
                src: sflat,
                dst: dflat,
                sess,
                seq,
                attempt,
                dup: outcome == RecvOutcome::Duplicate,
            },
        );
        if let RecvOutcome::Deliver(msgs) = outcome {
            for m in msgs {
                self.dispatch(now, m);
            }
        }
    }

    /// Host `host`'s retransmission timer: retransmit every overdue
    /// unacknowledged message of the host and re-arm at its next deadline.
    /// A message that is never acknowledged is retransmitted forever, each
    /// time up to [`Time::SPEC_MAX`] later, and retransmissions count as
    /// progress; so the transport gives up once the clock passes its
    /// midpoint, before the sums formed from `now` can overflow. The lost
    /// message then deadlocks the run or trips the watchdog.
    fn on_xport_timer(&mut self, now: Time, host: u32) {
        let Some(x) = self.lane.xport.as_mut() else {
            return;
        };
        if now.as_ps() > u64::MAX / 2 {
            return;
        }
        let mut resends = Vec::new();
        let arm = x.on_timer(host, now, &mut resends);
        for r in &resends {
            self.lane.tracer.emit_with(now, || TraceData::XportRetrans {
                src: r.msg.src.tile_flat(),
                dst: r.msg.dst.tile_flat(),
                seq: r.seq,
                attempt: r.attempt,
            });
        }
        self.resend(now, resends, arm, host);
    }

    /// Sends transport copies (retransmissions or session replays) of
    /// `host`'s messages at `now`, then arms the host's retransmission
    /// timer at `arm`, if the transport moved it.
    fn resend(&mut self, now: Time, copies: Vec<Resend>, arm: Option<Time>, host: u32) {
        for r in copies {
            self.send_wire(
                now,
                Wire::DeliverSeq {
                    msg: r.msg,
                    sess: r.sess,
                    seq: r.seq,
                    attempt: r.attempt,
                },
            );
        }
        self.lane.arm_xport_timer(host, arm);
    }

    /// Sends one wire through the (possibly faulty) fabric: the one send
    /// path of both engines, for clean deliveries, transport-tagged
    /// messages and transport acks alike. [`Noc::transmit_egress`] decides
    /// the copy's fate, the injected fault and the departure are traced,
    /// and each surviving copy lands via [`View::land`].
    fn send_wire(&mut self, depart: Time, wire: Wire) {
        let tph = self.cfg.noc.tiles_per_host;
        let src = TileId::from_flat(wire.src_flat(), tph);
        let dst = TileId::from_flat(wire.dst_flat(), tph);
        let (bytes, class) = match &wire {
            Wire::Deliver(m) | Wire::DeliverSeq { msg: m, .. } => (m.bytes, m.class()),
            Wire::XportAck { .. } => (ACK_BYTES, MsgClass::Ack),
        };
        let d = self
            .lane
            .noc
            .transmit_egress(depart, src, dst, bytes, class);
        let fault = match d {
            EgressDelivery::Deliver { faulted, .. } if faulted > Time::ZERO => {
                Some(("delay", faulted))
            }
            EgressDelivery::Deliver { .. } => None,
            EgressDelivery::Drop => Some(("drop", Time::ZERO)),
            EgressDelivery::Duplicate { first, second } => Some(("dup", second - first)),
        };
        if let Some((fault, extra)) = fault {
            self.lane
                .tracer
                .emit_with(depart, || TraceData::FaultInject {
                    src: src.flat(tph),
                    dst: dst.flat(tph),
                    class: class.label(),
                    fault,
                    extra,
                });
        }
        match d {
            EgressDelivery::Deliver { reach, faulted } => {
                let kind = match &wire {
                    Wire::Deliver(m) | Wire::DeliverSeq { msg: m, .. } => Some(m.kind.name()),
                    Wire::XportAck { .. } => None,
                };
                let at = self
                    .lane
                    .land(reach, Some(faulted), src.host, dst, bytes, wire);
                if let Some(kind) = kind {
                    self.lane.tracer.emit_with(depart, || TraceData::MsgSend {
                        src: src.flat(tph),
                        dst: dst.flat(tph),
                        kind,
                        class: class.label(),
                        bytes,
                        arrive: at,
                    });
                }
            }
            EgressDelivery::Drop => {}
            EgressDelivery::Duplicate { first, second } => {
                self.lane
                    .land(first, None, src.host, dst, bytes, wire.clone());
                self.lane.land(second, None, src.host, dst, bytes, wire);
            }
        }
    }

    /// Runs a closure against core `gid`'s frontend+engine, then applies
    /// all produced effects and scheduling actions.
    fn with_core(
        &mut self,
        gid: u32,
        now: Time,
        f: impl FnOnce(
            &mut Frontend,
            &mut AnyCore,
            &mut Vec<CoreEffect>,
            &mut Vec<FeAction>,
            Option<&mut Tracer>,
        ),
    ) {
        // Reuse the scratch vectors (taken, not borrowed, so the apply loop
        // below can still call &mut self methods).
        let i = (gid - self.base) as usize;
        let mut fx = std::mem::take(&mut self.lane.scratch_fx);
        let mut acts = std::mem::take(&mut self.lane.scratch_acts);
        fx.clear();
        acts.clear();
        {
            let traced = self.lane.tracer.enabled();
            let before = if traced {
                self.fes[i].open_stall()
            } else {
                None
            };
            f(
                &mut self.fes[i],
                &mut self.engines[i],
                &mut fx,
                &mut acts,
                self.lane.tracer.active(),
            );
            if traced {
                // Frontend stall transitions are observable as open-stall
                // diffs around the callback; emitting here keeps the hot
                // untraced path free of any bookkeeping.
                let after = self.fes[i].open_stall();
                if before != after {
                    if let Some((cause, since)) = before {
                        self.lane.tracer.emit(
                            now,
                            TraceData::StallEnd {
                                core: gid,
                                cause: cause.label(),
                                since,
                            },
                        );
                    }
                    if let Some((cause, since)) = after {
                        self.lane.tracer.emit(
                            since,
                            TraceData::StallBegin {
                                core: gid,
                                cause: cause.label(),
                            },
                        );
                    }
                }
            }
        }
        // Effects may re-enter the frontend (load/op completions), which can
        // append more effects; index-iterate so appends are seen.
        let mut k = 0;
        while k < fx.len() {
            match fx[k].clone() {
                CoreEffect::Send { msg, at } => self.route(at.max(now), msg),
                CoreEffect::Wake(t) => {
                    self.lane
                        .queue
                        .push(t.max(now), Event::CoreWake { core: gid });
                }
                CoreEffect::LoadDone { value } => {
                    self.fes[i].on_load_done(value, now, &mut acts);
                }
                CoreEffect::OpDone => {
                    self.fes[i].on_op_done(now, &mut acts);
                }
            }
            k += 1;
        }
        for FeAction::StepAt { at, gen } in acts.drain(..) {
            self.lane
                .queue
                .push(at.max(now), Event::CoreStep { core: gid, gen });
        }
        self.lane.scratch_fx = fx;
        self.lane.scratch_acts = acts;
    }

    /// Runs a closure against directory `dir`'s engine and memory, then
    /// applies the effects it produced.
    fn with_dir(&mut self, dir: u32, now: Time, f: impl FnOnce(&mut AnyDir, &mut DirCtx)) {
        let d = (dir - self.base) as usize;
        let mut fx = std::mem::take(&mut self.lane.scratch_dfx);
        fx.clear();
        {
            let mut ctx =
                DirCtx::traced(now, &mut self.mems[d], &mut fx, self.lane.tracer.active());
            f(&mut self.dir_engines[d], &mut ctx);
        }
        for e in fx.drain(..) {
            match e {
                DirEffect::Send { msg, at } => self.route(at.max(now), msg),
                DirEffect::Wake(t) => self.lane.queue.push(t.max(now), Event::DirWake { dir }),
            }
        }
        self.lane.scratch_dfx = fx;
    }

    /// Routes a message through the interconnect and schedules its delivery.
    fn route(&mut self, depart: Time, mut msg: Msg) {
        if let Some(x) = self.lane.xport.as_mut() {
            // Fault-injection mode: tag with a sequence number and retain a
            // retransmission copy.
            let (sess, seq, arm) = x.wrap(depart, &mut msg);
            let host = msg.src.tile_flat() / self.cfg.noc.tiles_per_host;
            let wire = Wire::DeliverSeq {
                msg,
                sess,
                seq,
                attempt: 1,
            };
            self.send_wire(depart, wire);
            self.lane.arm_xport_timer(host, arm);
            return;
        }
        self.send_wire(depart, Wire::Deliver(msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_noc::MsgClass;
    use cord_proto::{ConsistencyModel, LoadOrd, Op, ProtocolKind};

    /// Producer on host 0 writes `n` relaxed words + release flag into host
    /// 1's memory; consumer on host 1 polls the flag then reads a word.
    fn producer_consumer(cfg: &SystemConfig, n: u64) -> Vec<Program> {
        let data = cfg.map.addr_on_host(1, 0);
        let flag = cfg.map.addr_on_host(1, 1 << 20);
        let producer = {
            // Stride of 8 lines keeps every store homed on slice 0 of host 1
            // (single-directory communication).
            let mut b = Program::build();
            for i in 0..n {
                b = b.store(
                    data.offset(i * 512),
                    64,
                    i + 1,
                    cord_proto::StoreOrd::Relaxed,
                );
            }
            b.store_release(flag, 1).finish()
        };
        let consumer = Program::build()
            .wait_value(flag, 1)
            .load(data, 8, LoadOrd::Relaxed, 0)
            .finish();
        let tiles = cfg.total_tiles() as usize;
        let mut programs = vec![Program::new(); tiles];
        programs[0] = producer;
        programs[cfg.noc.tiles_per_host as usize] = consumer;
        programs
    }

    fn run(kind: ProtocolKind) -> RunResult {
        let cfg = SystemConfig::cxl(kind, 2);
        let programs = producer_consumer(&cfg, 16);
        System::new(cfg, programs).run()
    }

    #[test]
    fn frontends_read_the_callers_program_buffers() {
        let cfg = SystemConfig::cxl(ProtocolKind::Cord, 2);
        let programs = producer_consumer(&cfg, 16);
        let buffers = |ps: Vec<&Program>| -> Vec<*const Op> {
            ps.iter().map(|p| p.iter().as_slice().as_ptr()).collect()
        };
        let before = buffers(programs.iter().collect());
        let sys = System::new(cfg, programs);
        let after = buffers(sys.fes.iter().map(|fe| &fe.program).collect());
        assert_eq!(after, before, "System::new copied a program");
    }

    #[test]
    fn all_protocols_deliver_the_data() {
        for kind in [
            ProtocolKind::Cord,
            ProtocolKind::So,
            ProtocolKind::Mp,
            ProtocolKind::Wb,
            ProtocolKind::Seq { bits: 8 },
        ] {
            let r = run(kind);
            assert_eq!(r.regs[8][0], 1, "{kind:?}: consumer must see data");
            assert!(r.makespan > Time::ZERO);
        }
    }

    #[test]
    fn cord_beats_so_on_latency_and_traffic() {
        let cord = run(ProtocolKind::Cord);
        let so = run(ProtocolKind::So);
        assert!(
            cord.makespan < so.makespan,
            "CORD {} vs SO {}",
            cord.makespan,
            so.makespan
        );
        assert!(
            cord.inter_bytes() < so.inter_bytes(),
            "CORD {} B vs SO {} B",
            cord.inter_bytes(),
            so.inter_bytes()
        );
        // SO's extra traffic is exactly acknowledgments.
        assert!(so.traffic[MsgClass::Ack].inter_msgs >= 17); // 16 relaxed + release
        assert_eq!(cord.traffic[MsgClass::Ack].inter_msgs, 1); // release only
    }

    #[test]
    fn cord_close_to_mp() {
        let cord = run(ProtocolKind::Cord);
        let mp = run(ProtocolKind::Mp);
        // Single-destination communication: no notifications, so CORD's only
        // extra cost is the release metadata + ack.
        let gap = cord.inter_bytes() as f64 / mp.inter_bytes() as f64;
        assert!(gap < 1.10, "CORD within 10% of MP traffic, got {gap}");
    }

    #[test]
    fn so_release_stall_is_visible() {
        let so = run(ProtocolKind::So);
        assert!(
            so.stall(StallCause::AckWait) > Time::ZERO,
            "source ordering must stall on acknowledgments"
        );
        let cord = run(ProtocolKind::Cord);
        assert_eq!(cord.stall(StallCause::AckWait), Time::ZERO);
    }

    #[test]
    fn multi_directory_release_consistency_under_cord() {
        // Producer writes data on host 1 AND host 2, flag on host 3.
        let cfg = SystemConfig::cxl(ProtocolKind::Cord, 4);
        let d1 = cfg.map.addr_on_host(1, 0);
        let d2 = cfg.map.addr_on_host(2, 0);
        let flag = cfg.map.addr_on_host(3, 0);
        let tiles = cfg.total_tiles() as usize;
        let tph = cfg.noc.tiles_per_host as usize;
        let producer = Program::build()
            .store_relaxed(d1, 11)
            .store_relaxed(d2, 22)
            .store_release(flag, 1)
            .finish();
        let consumer = Program::build()
            .wait_value(flag, 1)
            .load(d1, 8, LoadOrd::Relaxed, 0)
            .load(d2, 8, LoadOrd::Relaxed, 1)
            .finish();
        let mut programs = vec![Program::new(); tiles];
        programs[0] = producer;
        programs[3 * tph] = consumer;
        let mut sys = System::new(cfg, programs);
        let r = sys.run();
        assert_eq!(r.regs[3 * tph][0], 11);
        assert_eq!(r.regs[3 * tph][1], 22);
        // The release crossed directories: notifications must have flowed.
        assert_eq!(r.traffic[MsgClass::ReqNotify].inter_msgs, 2);
        assert_eq!(r.traffic[MsgClass::Notify].inter_msgs, 2);
    }

    #[test]
    fn tso_mode_runs_and_cord_outruns_so() {
        let mk = |kind| {
            let cfg = SystemConfig::cxl(kind, 2).with_model(ConsistencyModel::Tso);
            let programs = producer_consumer(&cfg, 16);
            System::new(cfg, programs).run()
        };
        let cord = mk(ProtocolKind::Cord);
        let so = mk(ProtocolKind::So);
        assert_eq!(cord.regs[8][0], 1);
        assert_eq!(so.regs[8][0], 1);
        assert!(
            cord.makespan * 2 < so.makespan,
            "directory ordering should crush serialized TSO source ordering: {} vs {}",
            cord.makespan,
            so.makespan
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = run(ProtocolKind::Cord);
        let b = run(ProtocolKind::Cord);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.inter_bytes(), b.inter_bytes());
        assert_eq!(a.events, b.events);
    }

    #[test]
    #[should_panic(expected = "event cap exceeded")]
    fn unsatisfied_poll_is_reported() {
        let cfg = SystemConfig::cxl(ProtocolKind::Cord, 2);
        let flag = cfg.map.addr_on_host(1, 0);
        let tiles = cfg.total_tiles() as usize;
        let mut programs = vec![Program::new(); tiles];
        programs[0] = Program::build().wait_value(flag, 1).finish();
        let mut sys = System::new(cfg, programs);
        sys.set_max_events(50_000);
        sys.run(); // poll spins until the event cap...
    }

    /// Queue entries are `Event`s: a field added for faulted runs (the
    /// transport's attempt number) must not grow every clean run's queue.
    #[test]
    fn event_stays_120_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 120);
    }

    fn faulted_run(kind: ProtocolKind, spec: &str) -> RunResult {
        let cfg = SystemConfig::cxl(kind, 2);
        let programs = producer_consumer(&cfg, 16);
        let mut sys = System::new(cfg, programs);
        sys.set_fault_spec(spec).unwrap();
        sys.run()
    }

    #[test]
    fn lossy_fabric_recovered_by_retransmission() {
        for kind in [
            ProtocolKind::Cord,
            ProtocolKind::So,
            ProtocolKind::Mp,
            ProtocolKind::Wb,
            ProtocolKind::Seq { bits: 8 },
        ] {
            let r = faulted_run(kind, "seed=3; drop=0.1; dup=0.05; jitter=100");
            assert_eq!(
                r.regs[8][0], 1,
                "{kind:?}: data must survive a lossy fabric"
            );
            let f = r.traffic.faults;
            assert!(f.dropped > 0, "{kind:?}: plan must have dropped something");
            // Not every drop forces a retransmission (a redundant duplicate
            // ack can be lost for free), but recovering the lost protocol
            // messages must have taken at least some.
            assert!(
                f.retransmits > 0,
                "{kind:?}: lost messages need retransmissions"
            );
        }
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let a = faulted_run(
            ProtocolKind::Cord,
            "seed=11; drop=0.08; dup=0.05; jitter=150",
        );
        let b = faulted_run(
            ProtocolKind::Cord,
            "seed=11; drop=0.08; dup=0.05; jitter=150",
        );
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.traffic, b.traffic);
        let c = faulted_run(
            ProtocolKind::Cord,
            "seed=12; drop=0.08; dup=0.05; jitter=150",
        );
        assert_ne!(
            a.events, c.events,
            "a different seed should perturb the run"
        );
    }

    #[test]
    fn faults_cost_nothing_when_disabled() {
        // A system without a fault plan must behave byte-identically to the
        // pre-transport fast path (same events, same traffic, no fault or
        // transport overhead anywhere).
        let r = run(ProtocolKind::Cord);
        assert!(!r.traffic.faults.any());
    }

    #[test]
    fn watchdog_reports_lost_notify_without_retransmission() {
        // Multi-directory CORD release: data on hosts 1 and 2, flag on host
        // 3, so the release fans out notifications. Drop every notification
        // on an *unreliable* transport: the destination directory waits for
        // notifications that will never arrive and the consumer polls
        // forever — exactly the hang the liveness watchdog exists to catch.
        let cfg = SystemConfig::cxl(ProtocolKind::Cord, 4);
        let d1 = cfg.map.addr_on_host(1, 0);
        let d2 = cfg.map.addr_on_host(2, 0);
        let flag = cfg.map.addr_on_host(3, 0);
        let tiles = cfg.total_tiles() as usize;
        let tph = cfg.noc.tiles_per_host as usize;
        let mut programs = vec![Program::new(); tiles];
        programs[0] = Program::build()
            .store_relaxed(d1, 11)
            .store_relaxed(d2, 22)
            .store_release(flag, 1)
            .finish();
        programs[3 * tph] = Program::build().wait_value(flag, 1).finish();
        let mut sys = System::new(cfg, programs);
        sys.set_fault_spec("seed=1; drop.Notify=1.0; unreliable")
            .unwrap();
        sys.set_watchdog(Some(Time::from_us(100)));
        let err = sys.try_run().expect_err("the hang must be detected");
        match &err {
            RunError::NoProgress { narrative, .. } => {
                assert!(
                    narrative.contains("stuck at pc"),
                    "narrative names the stuck core: {narrative}"
                );
                assert!(
                    narrative.contains("unacked"),
                    "narrative reports outstanding transport state: {narrative}"
                );
            }
            other => panic!("expected NoProgress, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("liveness watchdog"), "{msg}");
    }

    #[test]
    fn largest_fault_spec_times_do_not_overflow_the_clock() {
        let max = Time::SPEC_MAX.as_ns();
        let cap = TransportConfig::default().max_backoff_exp;
        let rto = (Time::SPEC_MAX.as_ps() >> cap) / 1_000;
        // Every message delayed and jittered by the spec limit, some of
        // them duplicated, under the largest timeout: the run completes.
        let r = faulted_run(
            ProtocolKind::Cord,
            &format!("seed=3; dup=0.3; delay={max}; jitter={max}; rto={rto}"),
        );
        assert_eq!(r.regs[8][0], 1);
        assert!(r.makespan > Time::SPEC_MAX);
        // A fabric that loses everything: the transport retransmits at its
        // backoff cap until the clock passes its midpoint, then gives up,
        // and the run ends in an error rather than an overflow.
        let cfg = SystemConfig::cxl(ProtocolKind::Cord, 2);
        let programs = producer_consumer(&cfg, 16);
        let mut sys = System::new(cfg, programs);
        sys.set_fault_spec(&format!("drop=1.0; rto={rto}")).unwrap();
        match sys.try_run() {
            Err(RunError::Deadlock { .. }) => {}
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    fn reordering_fabric_needs_no_fifo_for_cord_but_mp_holds_back() {
        let cord = faulted_run(ProtocolKind::Cord, "seed=5; jitter=300");
        assert_eq!(cord.regs[8][0], 1);
        // The producer's stores all travel one inter-host channel to one
        // directory tile. Jitter must reorder their arrivals there (a
        // delayed copy takes the destination port when it arrives, not in
        // send order), so MP's FIFO transport has to hold some back.
        let cfg = SystemConfig::cxl(ProtocolKind::Mp, 2);
        let programs = producer_consumer(&cfg, 16);
        let mut sys = System::new(cfg, programs);
        sys.set_fault_spec("seed=5; jitter=300").unwrap();
        let mp = sys.run();
        assert_eq!(mp.regs[8][0], 1);
        let held = sys.lane.xport.as_ref().map_or(0, |x| x.stats().held_back);
        assert!(held > 0, "jitter reordered no arrivals");
    }
}
