//! Conservative-lookahead parallel simulation (sharded engine).
//!
//! The simulation is partitioned **by host**: each host's tiles (cores +
//! directory slices), its share of transport state, and its half of every
//! fabric channel become one logical process with a private event queue — a
//! partition is a [`System`] restricted to one host. Crucially the partition
//! count is always the host count, *never* the worker count: worker threads
//! only decide which partitions execute concurrently, so traces, metrics,
//! traffic counters and [`RunResult`]s are bit-identical at 1, 2, or N
//! workers.
//!
//! Progress follows the classic Chandy–Misra/LBTS recipe. Any message from
//! another partition departs no earlier than the global minimum event time
//! `M` and spends at least [`cord_noc::NocConfig::min_latency`] on the
//! fabric, so every event strictly before `M + min_latency` is safe to
//! execute without hearing from the other partitions. Rounds alternate:
//!
//! 1. **drain** — each partition sorts its inbound cross-partition messages
//!    by `(port-arrival, source partition, emission index)` — a
//!    deterministic merge order — and schedules them;
//! 2. **decide** — after a barrier, every worker independently computes the
//!    same LBTS `M`, event-cap and liveness verdicts from per-partition
//!    atomics (no coordinator thread, no worker-count-dependent state);
//! 3. **execute** — each partition runs its queue up to `M + min_latency`,
//!    buffering cross-partition sends in per-destination outboxes that are
//!    flushed to mailboxes before the closing barrier.
//!
//! Cross-host delivery splits at the switch port: the source partition runs
//! the egress half (mesh-to-port, serialization, fabric latency, fault
//! injection with per-channel-pair sequence numbers) and stamps the
//! port-arrival time; the destination applies ingress contention when the
//! [`Event::PortArrive`] fires. Single-host systems have no cross-partition
//! edges at all (`min_latency` is `Time::MAX`), so the one partition runs to
//! completion in a single round with the in-round (solo) liveness checks.
//!
//! The monolithic engine is the same partition loop over the whole system
//! with an open horizon ([`System::run_until`] to `u64::MAX`, solo), and both
//! engines leave through [`System::finish_run`]. Both also send through the
//! same egress half and fault numbering; the monolithic engine charges a
//! single cross-host copy's ingress at once, at its clean port arrival,
//! instead of at its (possibly delayed) port arrival.
//!
//! Observers follow the same split: each partition gets
//! [`Tracer::fork`](cord_sim::trace::Tracer::fork) of the parent's observer
//! set, and [`System::finish_run`] hands the partitions' sets back, in host
//! order, to [`Tracer::absorb`](cord_sim::trace::Tracer::absorb).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use cord_sim::obs::ScopeTimer;
use cord_sim::Time;

use crate::any::AnyCore;
use crate::runner::{CrossMsg, Event, Partition, RunError, RunResult, System};

/// Per-partition loop state carried across rounds.
#[derive(Debug, Clone)]
pub(crate) struct LoopState {
    /// Events processed by this partition so far.
    events: u64,
    /// Last event time processed by this partition.
    drained: Time,
    /// Solo liveness fingerprint and when it last changed (single-partition
    /// and monolithic runs execute in one round, so they judge liveness
    /// inside [`System::run_until`]).
    wd_fp: (u64, u64, u64),
    wd_since: Time,
}

impl LoopState {
    /// The state before `s` executes its first event.
    pub(crate) fn new(s: &System) -> Self {
        LoopState {
            events: 0,
            drained: Time::ZERO,
            wd_fp: s.progress_fingerprint(),
            wd_since: Time::ZERO,
        }
    }
}

/// A run-ending condition detected inside the event loop. `Deadlock` is
/// never produced here — it falls out of the final `check_finished` pass
/// over the gathered partitions.
#[derive(Debug, Clone)]
pub(crate) enum Verdict {
    EventCap {
        events: u64,
    },
    NoProgress {
        since: Time,
        now: Time,
        window: Time,
    },
}

impl Verdict {
    /// The run's error, narrated over `parts` (the systems that executed
    /// events: the monolithic system itself, or every partition).
    fn into_error(self, parts: &[System]) -> RunError {
        match self {
            Verdict::EventCap { events } => RunError::EventCap { events },
            Verdict::NoProgress { since, now, window } => {
                let narrative = System::narrate_hang(parts);
                // A core stuck inside the recovery fence is an unrecovered
                // crash, not a generic hang — report it as such.
                let recovering = parts.iter().find_map(|p| {
                    p.engines
                        .iter()
                        .position(AnyCore::recovering)
                        .map(|c| p.tile_base + c as u32)
                });
                match recovering {
                    Some(core) => RunError::Unrecovered {
                        core,
                        since,
                        narrative,
                    },
                    None => RunError::NoProgress {
                        since,
                        now,
                        window,
                        narrative,
                    },
                }
            }
        }
    }
}

/// Sense-reversing spin barrier. Rounds are short (one lookahead window of
/// events per partition), so parking on a mutex/condvar per phase — what
/// `std::sync::Barrier` does — costs more than the work between barriers;
/// spin briefly, then yield.
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    parties: usize,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            parties,
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            spins += 1;
            if spins < 4096 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Shared coordination state. All cross-worker decisions are computed
/// redundantly by every worker from these per-partition cells, so no
/// decision ever depends on which thread got where first.
struct Coord {
    barrier: SpinBarrier,
    /// Per-partition next-event time in ps (`u64::MAX` = empty queue).
    mins: Vec<AtomicU64>,
    /// Per-partition cumulative event counts.
    counts: Vec<AtomicU64>,
    /// Per-partition progress fingerprints (pc sum, done count,
    /// retransmits), summed globally for the round-level watchdog.
    fps: Vec<[AtomicU64; 3]>,
    /// Mailbox lanes, one per *destination* partition — O(nparts), not the
    /// O(nparts²) src-major matrix a 512-host run would otherwise allocate.
    /// Each entry is tagged `(src partition, emission index within this
    /// round's batch)`; the reader sorts by `(port-arrival, src, idx)`, so
    /// the merge order is identical to the per-pair-lane scheme no matter
    /// how writer lock acquisitions interleave. Writers only contend with
    /// the few other workers flushing to the same destination in the same
    /// phase; the reader drains in a different phase.
    mailboxes: Vec<Mutex<Vec<(u32, u32, CrossMsg)>>>,
    /// Set when any worker has decided the run is over (error or panic).
    aborted: AtomicBool,
    /// First error by partition id (lowest wins — deterministic regardless
    /// of which worker recorded first).
    verdict: Mutex<Option<(usize, Verdict)>>,
    /// A panic captured from partition execution, re-raised after join so
    /// workers waiting on the barrier are never abandoned.
    panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>>,
}

impl Coord {
    fn record_verdict(&self, part: usize, v: Verdict) {
        let mut g = self.verdict.lock().expect("verdict lock");
        match &*g {
            Some((p, _)) if *p <= part => {}
            _ => *g = Some((part, v)),
        }
        self.aborted.store(true, Ordering::SeqCst);
    }

    fn record_panic(&self, part: usize, payload: Box<dyn std::any::Any + Send>) {
        let mut g = self.panic.lock().expect("panic lock");
        match &*g {
            Some((p, _)) if *p <= part => {}
            _ => *g = Some((part, payload)),
        }
        self.aborted.store(true, Ordering::SeqCst);
    }
}

impl System {
    /// Executes queued events strictly before `horizon_ps`. `solo` enables
    /// the in-round liveness watchdog (monolithic and single-partition runs
    /// only — with several partitions liveness is judged globally at round
    /// barriers).
    pub(crate) fn run_until(
        &mut self,
        horizon_ps: u64,
        st: &mut LoopState,
        solo: bool,
    ) -> Result<(), Verdict> {
        let profiling = self.tracer.profiler_mut().is_some();
        let mut pending = match self.queue.peek_time() {
            Some(t) if t.as_ps() < horizon_ps => self.queue.pop(),
            _ => None,
        };
        while let Some((now, ev)) = pending {
            st.events += 1;
            if st.events > self.max_events {
                return Err(Verdict::EventCap { events: st.events });
            }
            // Amortized liveness check: the fingerprint walk is O(cores), so
            // only look every 4096 events (bounded relative overhead).
            if solo && st.events & 0xFFF == 0 {
                if let Some(window) = self.watchdog {
                    let fp = self.progress_fingerprint();
                    if fp != st.wd_fp {
                        st.wd_fp = fp;
                        st.wd_since = now;
                    } else if now > st.wd_since + window {
                        return Err(Verdict::NoProgress {
                            since: st.wd_since,
                            now,
                            window,
                        });
                    }
                }
            }
            // Deterministic sim-time sampling, one snapshot per crossed grid
            // boundary of the pre-dispatch state: the per-partition pop order
            // is worker-count independent, so so are the sampled series.
            if self.tracer.sampler_mut().is_some() {
                self.take_sample(now);
            }
            st.drained = now;
            let label = profiling.then(|| ev.kind_label());
            let timer = ScopeTimer::start(profiling);
            self.handle_event(now, ev);
            if let (Some(l), Some(ns), Some(p)) = (label, timer.stop(), self.tracer.profiler_mut())
            {
                p.add_class(l, ns);
            }
            // Cycle-accurate fabrics land bursts of deliveries on one
            // timestamp; drain the burst through the cached-head fast path
            // before paying a full pop for the next timestamp.
            pending = match self.queue.pop_if_at(now) {
                Some(ev) => Some((now, ev)),
                None => match self.queue.peek_time() {
                    Some(t) if t.as_ps() < horizon_ps => self.queue.pop(),
                    _ => None,
                },
            };
        }
        Ok(())
    }
}

/// Builds the partition for `host`: a **sparse** `System` holding only that
/// host's tiles (its frontends, engines, directory slices and memories),
/// with transport, tracer and fault state mirrored from the parent. Its
/// frontends take the programs out of the parent's, so no program is
/// copied; [`System::finish_run`] swaps the frontends back on success. Tile
/// identities stay global (`tile_base = host × tiles_per_host`), so events,
/// traces and engine ids are bit-identical to the monolithic engine's; only
/// the vectors are host-local. The fabric's per-pair latency table is shared
/// with the parent via [`cord_noc::Noc::fork`], so 512 partitions cost
/// O(hosts²) once, not per partition.
fn make_partition(parent: &mut System, host: u32) -> System {
    let tph = parent.cfg.noc.tiles_per_host;
    let lo = (host * tph) as usize;
    let programs = parent.fes[lo..lo + tph as usize]
        .iter_mut()
        .map(|fe| std::mem::take(&mut fe.program))
        .collect();
    let mut s = System::build(parent.cfg.clone(), parent.noc.fork(), programs, host * tph);
    // `System::build` applies no `RunConfig`; partitions mirror the
    // parent's *effective* state instead, which may have been set
    // programmatically.
    if let Some((plan, xcfg)) = &parent.fault_spec {
        s.set_faults(plan.clone(), *xcfg);
    }
    s.watchdog = parent.watchdog;
    s.max_events = parent.max_events;
    s.tracer = parent.tracer.fork();
    // Each partition injects only its own host's crash events, so every
    // crash fires exactly once regardless of worker count.
    s.schedule_crashes(Some(host));
    s.part = Some(Partition {
        host,
        outbox: std::collections::BTreeMap::new(),
    });
    s
}

/// Sorts one partition's inbound cross-partition messages into its queue in
/// the deterministic merge order `(port-arrival, source partition, emission
/// index)` — independent of worker count and flush timing.
fn drain_inbox(s: &mut System, me: usize, coord: &Coord) {
    let mut incoming: Vec<(u64, u32, u32, CrossMsg)> = {
        let mut lane = coord.mailboxes[me].lock().expect("mailbox");
        lane.drain(..)
            .map(|(src, idx, cm)| (cm.reach.as_ps(), src, idx, cm))
            .collect()
    };
    incoming.sort_by_key(|&(t, src, idx, _)| (t, src, idx));
    for (_, _, _, cm) in incoming {
        s.queue.push(
            cm.reach,
            Event::PortArrive {
                bytes: cm.bytes,
                wire: cm.wire,
            },
        );
    }
}

/// Flushes one partition's sparse outbox into the destination mailbox
/// lanes, tagging each message with `(src partition, emission index)` so the
/// reader can reconstruct the deterministic merge order. Since every reader
/// drains its lane each phase A, at most one batch per source is ever in a
/// lane, so the per-batch index is unambiguous.
fn flush_outbox(s: &mut System, me: usize, coord: &Coord) {
    let part = s.part.as_mut().expect("partition state");
    // Taking the map keeps the outbox sparse: a lane kept, even empty, for
    // every destination ever written would hold O(hosts²) buffers.
    for (dst, msgs) in std::mem::take(&mut part.outbox) {
        let mut lane = coord.mailboxes[dst as usize].lock().expect("mailbox");
        lane.extend(
            msgs.into_iter()
                .enumerate()
                .map(|(idx, cm)| (me as u32, idx as u32, cm)),
        );
    }
}

/// One worker's round loop over its contiguous chunk of partitions.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    mut shards: Vec<System>,
    mut states: Vec<LoopState>,
    base: usize,
    wid: usize,
    nparts: usize,
    lookahead_ps: u64,
    watchdog: Option<Time>,
    max_events: u64,
    coord: &Coord,
) -> (Vec<System>, Vec<LoopState>) {
    let solo = nparts == 1;
    let profiling = shards
        .first_mut()
        .is_some_and(|s| s.tracer.profiler_mut().is_some());
    // Wall-clock spent parked at the two round barriers, folded into the
    // chunk's first partition at the end (profiles are merged additively and
    // marked non-deterministic, so the attribution point doesn't matter).
    let mut barrier_ns = 0u64;
    // Round-level watchdog state: every worker tracks it identically from
    // the shared per-partition fingerprints.
    let mut wd_fp: (u64, u64, u64) = global_fingerprint(coord, nparts);
    let mut wd_since = Time::ZERO;
    loop {
        // Phase A: drain inboxes, publish per-partition minimums, event
        // counts and progress fingerprints. *Everything* phase B reads is
        // published here, before the barrier: a worker still deciding must
        // never observe values a faster worker already updated in this
        // round's execute phase, or the two compute different verdicts and
        // part ways at different barriers (deadlock). Caught panics still
        // arrive at the barrier; the run unwinds at the synchronized
        // post-execute check instead of stranding a peer.
        for (k, s) in shards.iter_mut().enumerate() {
            let me = base + k;
            let timer = ScopeTimer::start(profiling);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| drain_inbox(s, me, coord))) {
                coord.record_panic(me, payload);
            }
            if let (Some(ns), Some(p)) = (timer.stop(), s.tracer.profiler_mut()) {
                p.add_phase("inbox_merge", ns);
            }
            let min = s.queue.peek_time().map_or(u64::MAX, |t| t.as_ps());
            coord.mins[me].store(min, Ordering::SeqCst);
            coord.counts[me].store(states[k].events, Ordering::SeqCst);
            let fp = s.progress_fingerprint();
            coord.fps[me][0].store(fp.0, Ordering::SeqCst);
            coord.fps[me][1].store(fp.1, Ordering::SeqCst);
            coord.fps[me][2].store(fp.2, Ordering::SeqCst);
        }
        let timer = ScopeTimer::start(profiling);
        coord.barrier.wait();
        if let Some(ns) = timer.stop() {
            barrier_ns += ns;
        }
        // Phase B: global decisions — identical on every worker. There is
        // deliberately *no* `aborted` check here: another worker may set the
        // flag during this same round's execute phase, so reading it outside
        // the post-execute barrier races with scheduling (a worker could
        // break out while its peer still waits at the execute barrier —
        // deadlock). Every abort path is instead either computed identically
        // by all workers below, or latched by the barrier-ordered check
        // after the execute phase.
        let m_ps = (0..nparts)
            .map(|i| coord.mins[i].load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        let total: u64 = (0..nparts)
            .map(|i| coord.counts[i].load(Ordering::SeqCst))
            .sum();
        if total > max_events {
            if wid == 0 {
                coord.record_verdict(usize::MAX, Verdict::EventCap { events: total });
            }
            break;
        }
        if let Some(window) = watchdog {
            if !solo && m_ps != u64::MAX {
                let fp = global_fingerprint(coord, nparts);
                let now = Time::from_ps(m_ps);
                if fp != wd_fp {
                    wd_fp = fp;
                    wd_since = now;
                } else if now > wd_since + window {
                    if wid == 0 {
                        coord.record_verdict(
                            usize::MAX,
                            Verdict::NoProgress {
                                since: wd_since,
                                now,
                                window,
                            },
                        );
                    }
                    break;
                }
            }
        }
        if m_ps == u64::MAX {
            break; // every queue empty: the run is drained
        }
        let horizon_ps = m_ps.saturating_add(lookahead_ps);
        // Phase C: execute up to the horizon, publish, flush. Keep going
        // through the whole chunk even after an error so the candidate
        // verdict set (and thus the lowest-partition winner) never depends
        // on worker count.
        for (k, s) in shards.iter_mut().enumerate() {
            let me = base + k;
            let st = &mut states[k];
            let timer = ScopeTimer::start(profiling);
            let outcome = catch_unwind(AssertUnwindSafe(|| s.run_until(horizon_ps, st, solo)));
            if let (Some(ns), Some(p)) = (timer.stop(), s.tracer.profiler_mut()) {
                p.add_phase("execute", ns);
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| flush_outbox(s, me, coord))) {
                coord.record_panic(me, payload);
            }
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(v)) => coord.record_verdict(me, v),
                Err(payload) => coord.record_panic(me, payload),
            }
        }
        let timer = ScopeTimer::start(profiling);
        coord.barrier.wait();
        if let Some(ns) = timer.stop() {
            barrier_ns += ns;
        }
        if coord.aborted.load(Ordering::SeqCst) {
            break;
        }
    }
    if barrier_ns > 0 {
        if let Some(p) = shards.first_mut().and_then(|s| s.tracer.profiler_mut()) {
            p.add_phase("barrier_wait", barrier_ns);
        }
    }
    (shards, states)
}

fn global_fingerprint(coord: &Coord, nparts: usize) -> (u64, u64, u64) {
    let mut fp = (0u64, 0u64, 0u64);
    for i in 0..nparts {
        fp.0 += coord.fps[i][0].load(Ordering::SeqCst);
        fp.1 += coord.fps[i][1].load(Ordering::SeqCst);
        fp.2 += coord.fps[i][2].load(Ordering::SeqCst);
    }
    fp
}

/// Runs `sys` through the sharded engine with `workers` threads and
/// reassembles a [`RunResult`] identical for every worker count.
pub(crate) fn run_sharded(sys: &mut System, workers: usize) -> Result<RunResult, RunError> {
    let nparts = (sys.cfg.noc.hosts as usize).max(1);
    let workers = workers.clamp(1, nparts);
    let lookahead_ps = sys.cfg.noc.min_latency().as_ps();

    // The parent's queue only holds the initial core steps; partitions
    // rebuild their own, so clear it for a sane post-run state.
    while sys.queue.pop().is_some() {}

    let shards: Vec<System> = (0..nparts).map(|h| make_partition(sys, h as u32)).collect();
    let coord = Coord {
        barrier: SpinBarrier::new(workers),
        mins: (0..nparts).map(|_| AtomicU64::new(u64::MAX)).collect(),
        counts: (0..nparts).map(|_| AtomicU64::new(0)).collect(),
        fps: shards
            .iter()
            .map(|s| {
                let fp = s.progress_fingerprint();
                [
                    AtomicU64::new(fp.0),
                    AtomicU64::new(fp.1),
                    AtomicU64::new(fp.2),
                ]
            })
            .collect(),
        mailboxes: (0..nparts).map(|_| Mutex::new(Vec::new())).collect(),
        aborted: AtomicBool::new(false),
        verdict: Mutex::new(None),
        panic: Mutex::new(None),
    };
    let watchdog = sys.watchdog;
    let max_events = sys.max_events;

    // Contiguous chunks of partitions per worker.
    let mut chunks: Vec<(usize, Vec<System>)> = Vec::with_capacity(workers);
    {
        let mut iter = shards.into_iter();
        for wid in 0..workers {
            let lo = wid * nparts / workers;
            let hi = (wid + 1) * nparts / workers;
            chunks.push((lo, iter.by_ref().take(hi - lo).collect()));
        }
    }

    let mut gathered: Vec<(Vec<System>, Vec<LoopState>)> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let coord = &coord;
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(wid, (base, chunk))| {
                let states: Vec<LoopState> = chunk.iter().map(LoopState::new).collect();
                scope.spawn(move || {
                    worker_loop(
                        chunk,
                        states,
                        base,
                        wid,
                        nparts,
                        lookahead_ps,
                        watchdog,
                        max_events,
                        coord,
                    )
                })
            })
            .collect();
        for h in handles {
            gathered.push(
                h.join()
                    .expect("sharded worker panicked outside a partition"),
            );
        }
    });

    let mut shards: Vec<System> = Vec::with_capacity(nparts);
    let mut states: Vec<LoopState> = Vec::with_capacity(nparts);
    for (ss, sts) in gathered {
        shards.extend(ss);
        states.extend(sts);
    }

    if let Some((part, payload)) = coord.panic.into_inner().expect("panic lock") {
        sys.absorb_observers(&mut shards);
        let err = format!("worker panic in partition {part}");
        sys.tracer.write_outputs(Some(&err), None, None, None);
        resume_unwind(payload);
    }
    let verdict = coord.verdict.into_inner().expect("verdict lock");
    sys.finish_run(shards, &states, verdict.map(|(_, v)| v))
}

impl System {
    /// The systems that executed this run's events: every partition of a
    /// sharded run, or the monolithic system itself when `shards` is empty.
    fn parts_mut<'a>(&'a mut self, shards: &'a mut [System]) -> &'a mut [System] {
        if shards.is_empty() {
            std::slice::from_mut(self)
        } else {
            shards
        }
    }

    /// Merges the observer sets of the systems that executed this run into
    /// this system's (see [`cord_sim::trace::Tracer::absorb`]).
    fn absorb_observers(&mut self, shards: &mut [System]) {
        let parts = shards.iter_mut().map(|s| std::mem::take(&mut s.tracer));
        self.tracer.absorb(parts.collect());
    }

    /// The end of a run, shared by both engines: `shards` holds a sharded
    /// run's partitions in host order and is empty for a monolithic run;
    /// `states` holds the loop state of every system that executed events.
    pub(crate) fn finish_run(
        &mut self,
        mut shards: Vec<System>,
        states: &[LoopState],
        verdict: Option<Verdict>,
    ) -> Result<RunResult, RunError> {
        let drained = states
            .iter()
            .map(|st| st.drained)
            .max()
            .unwrap_or(Time::ZERO);
        let events = states.iter().map(|st| st.events).sum();
        for p in self.parts_mut(&mut shards) {
            // Close stall episodes at the *global* drain time so stall
            // totals and traces match for every worker count. Only on
            // success, so failure traces stay comparable across engines.
            if verdict.is_none() {
                debug_assert!(p.queue.peek_time().is_none(), "events after drain");
                p.close_stalls(drained);
            }
            p.mirror_xport_stats();
        }
        // The merge replays every partition's events through this system's
        // consumers. The round-barrier loop makes the buffers worker-count
        // independent even when a verdict aborted the run, so the replay
        // also happens on the failure path — coverage maps and sink output
        // for a hang or event-cap repro are identical at any worker count.
        self.absorb_observers(&mut shards);
        self.tracer.finish();
        // A failure is narrated from the systems that ran, before their
        // tiles move back.
        let error = verdict.map(|v| v.into_error(self.parts_mut(&mut shards)));

        // Gather per-tile state back from the partitions (each tile from its
        // owning partition) and sum the additive counters, on failure too,
        // so a failed run leaves the memory it wrote.
        let tph = self.cfg.noc.tiles_per_host as usize;
        for (h, sh) in shards.into_iter().enumerate() {
            let System {
                mut fes,
                mut engines,
                mut dir_engines,
                mut mems,
                noc,
                ..
            } = sh;
            // Pair flows are recorded exactly once per inter-host message, on
            // the *source* partition's egress, so summing per-partition rows
            // reproduces the monolithic flows without double counting.
            self.noc.absorb(noc);
            // Partitions are sparse: their vectors hold exactly their own
            // host's tiles, which are tiles `lo..lo + tph` here.
            let lo = h * tph;
            self.fes[lo..lo + tph].swap_with_slice(&mut fes);
            self.engines[lo..lo + tph].swap_with_slice(&mut engines);
            self.dir_engines[lo..lo + tph].swap_with_slice(&mut dir_engines);
            self.mems[lo..lo + tph].swap_with_slice(&mut mems);
        }
        if let Some(e) = error {
            return Err(e);
        }

        self.check_finished()?;
        let mut result = self.collect(drained, events);
        result.metrics = self.tracer.take_metrics().map(|m| m.snapshot());
        result.obs = self.tracer.take_series();
        result.profile = self.tracer.take_profile();
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use cord_proto::{Op, Program, ProtocolKind, SystemConfig};
    use cord_sim::Time;

    use crate::{RunError, System};

    /// The address of each program's ops buffer.
    fn op_buffers<'a>(programs: impl Iterator<Item = &'a Program>) -> Vec<*const Op> {
        programs.map(|p| p.iter().as_slice().as_ptr()).collect()
    }

    #[test]
    fn sharded_runs_copy_no_program() {
        for workers in [1, 2] {
            let cfg = SystemConfig::cxl(ProtocolKind::Cord, 4);
            // Every core publishes into the next host, so every program is
            // non-empty and owns a distinct buffer.
            let hosts = cfg.noc.hosts;
            let programs: Vec<Program> = (0..cfg.total_tiles())
                .map(|t| {
                    let host = (t / cfg.noc.tiles_per_host + 1) % hosts;
                    let flag = cfg.map.addr_on_host(host, 64 * t as u64);
                    Program::build()
                        .store_relaxed(flag.offset(8), 1)
                        .store_release(flag, 1)
                        .finish()
                })
                .collect();
            let before = op_buffers(programs.iter());
            let mut sys = System::new(cfg, programs);
            sys.set_sim_threads(Some(workers));
            sys.run();
            assert!(sys.fes.iter().all(|fe| fe.is_done()));
            let after = op_buffers(sys.fes.iter().map(|fe| &fe.program));
            assert_eq!(after, before, "{workers} worker(s) copied a program");
        }
    }

    /// A failed run leaves the memory it wrote under either engine: core 0
    /// makes 200 Relaxed stores to a host-1 word, then either polls a flag
    /// nobody sets until the watchdog fires (`hang`) or is stopped by the
    /// event cap.
    #[test]
    fn failed_runs_keep_the_memory_they_wrote() {
        let peek = |workers: Option<usize>, hang: bool| {
            let cfg = SystemConfig::cxl(ProtocolKind::Cord, 2);
            let addr = cfg.map.addr_on_host(1, 0);
            let mut b = Program::build();
            for v in 1..=200 {
                b = b.store_relaxed(addr, v);
            }
            if hang {
                b = b.wait_value(cfg.map.addr_on_host(1, 4096), 1);
            }
            let mut sys = System::new(cfg, vec![b.finish()]);
            sys.set_sim_threads(workers);
            sys.set_watchdog(hang.then(|| Time::from_us(20)));
            sys.set_max_events(if hang { u64::MAX } else { 150 });
            let err = sys.try_run().expect_err("the run must fail");
            assert_eq!(matches!(err, RunError::EventCap { .. }), !hang, "{err}");
            sys.mem_peek(addr)
        };
        for workers in [None, Some(1), Some(2)] {
            assert_eq!(peek(workers, true), 200, "{workers:?} worker(s)");
        }
        // A sharded run checks the cap once per round, so it stops later
        // than the monolithic loop, at the same point for any worker count.
        let sharded = peek(Some(1), false);
        assert!(peek(None, false) > 0 && sharded > 0);
        assert_eq!(peek(Some(2), false), sharded);
    }
}
