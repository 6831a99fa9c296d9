//! Conservative-lookahead parallel simulation (sharded engine).
//!
//! The simulation is partitioned **by host**: each host's tiles (cores +
//! directory slices), its share of transport state, and its half of every
//! fabric channel become one logical process with a private event queue.
//! A partition owns no tiles. It is a [`Lane`] (queue, NoC, transport,
//! tracer, outbox) and a [`View`] that borrows the host's block of the
//! [`System`]'s tiles: tiles are numbered host-major, so the block is one
//! `chunks_mut(tiles_per_host)` chunk of each per-tile vector. Crucially
//! the partition count is always the host count, *never* the worker count:
//! worker threads only decide which partitions execute concurrently, so
//! traces, metrics, traffic counters and [`RunResult`]s are bit-identical
//! at 1, 2, or N workers.
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
//!    same LBTS `M`, liveness verdict and split of the event budget from
//!    per-partition atomics (no coordinator thread, no
//!    worker-count-dependent state);
//! 3. **execute** — each partition runs its queue up to `M + min_latency`,
//!    or until it spends its share of the budget, buffering
//!    cross-partition sends in per-destination outboxes that are flushed to
//!    mailboxes before the closing barrier.
//!
//! Cross-host delivery splits at the switch port: the source partition runs
//! the egress half (mesh-to-port, serialization, fabric latency, fault
//! injection with per-channel-pair sequence numbers) and stamps the
//! port-arrival time; the destination applies ingress contention when the
//! [`Event::PortArrive`] fires. Single-host systems have no cross-partition
//! edges at all (`min_latency` is `Time::MAX`), so the one partition runs to
//! completion in a single round with the in-round (solo) liveness checks.
//!
//! The monolithic engine is the same loop on the view over every tile with
//! the system's own lane, an open horizon and the whole budget
//! ([`View::run_until`] to `u64::MAX`, solo), and both engines leave
//! through [`System::finish_run`]. Both also send through the same egress
//! half and fault numbering; the monolithic engine charges a single
//! cross-host copy's ingress at once, at its clean port arrival, instead of
//! at its (possibly delayed) port arrival.
//!
//! Observers follow the same split: each lane gets
//! [`Tracer::fork`](cord_sim::trace::Tracer::fork) of the system's observer
//! set, and [`System::finish_run`] hands the lanes' sets back, in host
//! order, to [`Tracer::absorb`](cord_sim::trace::Tracer::absorb), as it
//! does their NoC statistics to [`cord_noc::Noc::absorb`]. Tiles never
//! leave the system, so a failed or panicked run keeps its memory.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use cord_sim::obs::ScopeTimer;
use cord_sim::Time;

use crate::any::AnyCore;
use crate::runner::{CrossMsg, Event, Lane, Partition, RunError, RunResult, System, View};

/// Per-partition loop state carried across rounds.
#[derive(Debug, Clone)]
pub(crate) struct LoopState {
    /// Events processed by this partition so far.
    pub(crate) events: u64,
    /// Last event time processed by this partition.
    pub(crate) drained: Time,
    /// Solo liveness fingerprint and when it last changed (single-partition
    /// and monolithic runs execute in one round, so they judge liveness
    /// inside [`View::run_until`]).
    wd_fp: (u64, u64, u64),
    wd_since: Time,
}

impl LoopState {
    /// The state before `v` executes its first event.
    pub(crate) fn new(v: &View) -> Self {
        LoopState {
            events: 0,
            drained: Time::ZERO,
            wd_fp: v.progress_fingerprint(),
            wd_since: Time::ZERO,
        }
    }
}

/// A run-ending condition detected inside the event loop. `Deadlock` is
/// never produced here — it falls out of the final `check_finished` pass.
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
    /// The run's error, narrated over `sys` and the `lanes` that executed
    /// its events.
    fn into_error(self, sys: &System, lanes: &[&Lane]) -> RunError {
        match self {
            Verdict::EventCap { events } => RunError::EventCap { events },
            Verdict::NoProgress { since, now, window } => {
                let narrative = sys.narrate_hang(lanes);
                // A core stuck inside the recovery fence is an unrecovered
                // crash, not a generic hang — report it as such.
                match sys.engines.iter().position(AnyCore::recovering) {
                    Some(core) => RunError::Unrecovered {
                        core: core as u32,
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

/// Shared coordination state and run constants. All cross-worker decisions
/// are computed redundantly by every worker from these per-partition cells,
/// so no decision ever depends on which thread got where first.
struct Coord {
    nparts: usize,
    lookahead_ps: u64,
    watchdog: Option<Time>,
    max_events: u64,
    barrier: SpinBarrier,
    /// Per-partition next-event time in ps (`u64::MAX` = empty queue).
    mins: Vec<AtomicU64>,
    /// Per-partition cumulative event counts.
    counts: Vec<AtomicU64>,
    /// Per-partition progress fingerprints (pc sum, done count,
    /// retransmits), summed globally for the round-level watchdog.
    fps: Vec<[AtomicU64; 3]>,
    /// Mailboxes, one per *destination* partition — O(nparts), not the
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

    fn global_fingerprint(&self) -> (u64, u64, u64) {
        let mut fp = (0u64, 0u64, 0u64);
        for f in &self.fps {
            fp.0 += f[0].load(Ordering::SeqCst);
            fp.1 += f[1].load(Ordering::SeqCst);
            fp.2 += f[2].load(Ordering::SeqCst);
        }
        fp
    }
}

impl View<'_> {
    /// Executes queued events strictly before `horizon_ps` until the
    /// partition has processed `limit` events in all. `solo` enables the
    /// in-round liveness watchdog and makes a binding `limit` the run's
    /// event cap (monolithic and single-partition runs only — with several
    /// partitions both are judged globally at round barriers).
    pub(crate) fn run_until(
        &mut self,
        horizon_ps: u64,
        limit: u64,
        st: &mut LoopState,
        solo: bool,
    ) -> Result<(), Verdict> {
        let profiling = self.lane.tracer.profiler_mut().is_some();
        let mut last: Option<Time> = None;
        while st.events < limit {
            // Cycle-accurate fabrics land bursts of deliveries on one
            // timestamp; drain the burst through the cached-head fast path
            // before paying a full pop for the next timestamp.
            let queue = &mut self.lane.queue;
            let burst = last.and_then(|t| queue.pop_if_at(t).map(|ev| (t, ev)));
            let next = burst.or_else(|| match queue.peek_time() {
                Some(t) if t.as_ps() < horizon_ps => queue.pop(),
                _ => None,
            });
            let Some((now, ev)) = next else {
                return Ok(());
            };
            last = Some(now);
            st.events += 1;
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
            if self.lane.tracer.sampler_mut().is_some() {
                self.lane.take_sample(now);
            }
            st.drained = now;
            let label = profiling.then(|| ev.kind_label());
            let timer = ScopeTimer::start(profiling);
            self.handle_event(now, ev);
            if let (Some(l), Some(ns), Some(p)) =
                (label, timer.stop(), self.lane.tracer.profiler_mut())
            {
                p.add_class(l, ns);
            }
        }
        // The limit binds: the event it stops before stays queued.
        let pending = self.lane.queue.peek_time();
        match pending.filter(|t| solo && t.as_ps() < horizon_ps) {
            Some(_) => Err(Verdict::EventCap {
                events: st.events + 1,
            }),
            None => Ok(()),
        }
    }
}

/// The lane for `host` of a sharded run of `sys`: a fork of the system's
/// NoC and observers, the system's faults, the host's first core steps and
/// crash events. It holds no tile; the run lends it the host's block.
fn host_lane(sys: &System, host: u32) -> Lane {
    let tph = sys.cfg.noc.tiles_per_host;
    let block = &sys.fes[(host * tph) as usize..((host + 1) * tph) as usize];
    let mut lane = Lane::new(
        sys.lane.noc.fork(),
        sys.lane.tracer.fork(),
        host * tph,
        block,
    );
    if let Some((plan, xcfg)) = &sys.fault_spec {
        lane.set_faults(&sys.cfg, plan.clone(), *xcfg);
    }
    // Each lane injects only its own host's crash events, so every crash
    // fires exactly once regardless of worker count.
    lane.schedule_crashes(sys.fault_spec.as_ref(), Some(host));
    lane.part = Some(Partition {
        host,
        outbox: BTreeMap::new(),
    });
    lane
}

/// Sorts one partition's inbound cross-partition messages into its queue in
/// the deterministic merge order `(port-arrival, source partition, emission
/// index)` — independent of worker count and flush timing.
fn drain_inbox(lane: &mut Lane, me: usize, coord: &Coord) {
    let mut incoming: Vec<(u64, u32, u32, CrossMsg)> = {
        let mut mailbox = coord.mailboxes[me].lock().expect("mailbox");
        mailbox
            .drain(..)
            .map(|(src, idx, cm)| (cm.reach.as_ps(), src, idx, cm))
            .collect()
    };
    incoming.sort_by_key(|&(t, src, idx, _)| (t, src, idx));
    for (_, _, _, cm) in incoming {
        lane.queue.push(
            cm.reach,
            Event::PortArrive {
                bytes: cm.bytes,
                wire: cm.wire,
            },
        );
    }
}

/// Flushes one partition's sparse outbox into the destination mailboxes,
/// tagging each message with `(src partition, emission index)` so the
/// reader can reconstruct the deterministic merge order. Since every reader
/// drains its mailbox each phase A, at most one batch per source is ever in
/// a mailbox, so the per-batch index is unambiguous.
fn flush_outbox(lane: &mut Lane, me: usize, coord: &Coord) {
    let part = lane.part.as_mut().expect("partition state");
    // Taking the map keeps the outbox sparse: an entry kept, even empty,
    // for every destination ever written would hold O(hosts²) buffers.
    for (dst, msgs) in std::mem::take(&mut part.outbox) {
        let mut mailbox = coord.mailboxes[dst as usize].lock().expect("mailbox");
        mailbox.extend(
            msgs.into_iter()
                .enumerate()
                .map(|(idx, cm)| (me as u32, idx as u32, cm)),
        );
    }
}

/// One worker's round loop over `views`, the contiguous chunk of partitions
/// starting at partition `base`; returns their loop states.
fn worker_loop(mut views: Vec<View>, base: usize, wid: usize, coord: &Coord) -> Vec<LoopState> {
    let nparts = coord.nparts;
    let solo = nparts == 1;
    let mut states: Vec<LoopState> = views.iter().map(LoopState::new).collect();
    let profiling = views
        .first_mut()
        .is_some_and(|v| v.lane.tracer.profiler_mut().is_some());
    // Wall-clock spent parked at the two round barriers, folded into the
    // chunk's first partition at the end (profiles are merged additively and
    // marked non-deterministic, so the attribution point doesn't matter).
    let mut barrier_ns = 0u64;
    // Round-level watchdog state: every worker tracks it identically from
    // the shared per-partition fingerprints.
    let mut wd_fp: (u64, u64, u64) = coord.global_fingerprint();
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
        for (k, v) in views.iter_mut().enumerate() {
            let me = base + k;
            let timer = ScopeTimer::start(profiling);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| drain_inbox(v.lane, me, coord)))
            {
                coord.record_panic(me, payload);
            }
            if let (Some(ns), Some(p)) = (timer.stop(), v.lane.tracer.profiler_mut()) {
                p.add_phase("inbox_merge", ns);
            }
            let min = v.lane.queue.peek_time().map_or(u64::MAX, |t| t.as_ps());
            coord.mins[me].store(min, Ordering::SeqCst);
            coord.counts[me].store(states[k].events, Ordering::SeqCst);
            let fp = v.progress_fingerprint();
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
        let m_ps = coord
            .mins
            .iter()
            .map(|m| m.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        let total: u64 = coord.counts.iter().map(|c| c.load(Ordering::SeqCst)).sum();
        let budget = coord.max_events.saturating_sub(total);
        if budget == 0 && m_ps != u64::MAX {
            if wid == 0 {
                let events = coord.max_events.saturating_add(1);
                coord.record_verdict(usize::MAX, Verdict::EventCap { events });
            }
            break;
        }
        if let Some(window) = coord.watchdog {
            if !solo && m_ps != u64::MAX {
                let fp = coord.global_fingerprint();
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
        let horizon_ps = m_ps.saturating_add(coord.lookahead_ps);
        // The event budget is split over the partitions with work before
        // the horizon, in partition order, the first ones getting one more
        // event each when it does not divide evenly; so the run stops at
        // the cap for every worker count. A share binds only when the
        // budget is nearly spent.
        let ready = |i: usize| coord.mins[i].load(Ordering::SeqCst) < horizon_ps;
        let n = ((0..nparts).filter(|&i| ready(i)).count() as u64).max(1);
        let mut rank = (0..base).filter(|&i| ready(i)).count() as u64;
        // Phase C: execute up to the horizon, publish, flush. Keep going
        // through the whole chunk even after an error so the candidate
        // verdict set (and thus the lowest-partition winner) never depends
        // on worker count.
        for (k, v) in views.iter_mut().enumerate() {
            let me = base + k;
            let share = if ready(me) {
                rank += 1;
                budget / n + u64::from(rank <= budget % n)
            } else {
                0
            };
            let st = &mut states[k];
            let limit = st.events + share;
            let timer = ScopeTimer::start(profiling);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                v.run_until(horizon_ps, limit, st, solo)
            }));
            if let (Some(ns), Some(p)) = (timer.stop(), v.lane.tracer.profiler_mut()) {
                p.add_phase("execute", ns);
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| flush_outbox(v.lane, me, coord)))
            {
                coord.record_panic(me, payload);
            }
            match outcome {
                Ok(Ok(())) => {}
                Ok(Err(verdict)) => coord.record_verdict(me, verdict),
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
        if let Some(p) = views.first_mut().and_then(|v| v.lane.tracer.profiler_mut()) {
            p.add_phase("barrier_wait", barrier_ns);
        }
    }
    states
}

/// Runs `sys` through the sharded engine with `workers` threads and
/// reassembles a [`RunResult`] identical for every worker count.
pub(crate) fn run_sharded(sys: &mut System, workers: usize) -> Result<RunResult, RunError> {
    let nparts = (sys.cfg.noc.hosts as usize).max(1);
    let workers = workers.clamp(1, nparts);
    // The system's queue only holds the initial core steps; the lanes hold
    // their own, so clear it for a sane post-run state.
    while sys.lane.queue.pop().is_some() {}
    let mut lanes: Vec<Lane> = (0..nparts as u32).map(|h| host_lane(sys, h)).collect();
    let (lookahead_ps, watchdog, max_events) = (
        sys.cfg.noc.min_latency().as_ps(),
        sys.watchdog,
        sys.max_events,
    );
    let views = sys.host_views(&mut lanes);
    let fingerprint = |v: &View| {
        let fp = v.progress_fingerprint();
        [fp.0, fp.1, fp.2].map(AtomicU64::new)
    };
    let coord = Coord {
        nparts,
        lookahead_ps,
        watchdog,
        max_events,
        barrier: SpinBarrier::new(workers),
        mins: (0..nparts).map(|_| AtomicU64::new(u64::MAX)).collect(),
        counts: (0..nparts).map(|_| AtomicU64::new(0)).collect(),
        fps: views.iter().map(fingerprint).collect(),
        mailboxes: (0..nparts).map(|_| Mutex::new(Vec::new())).collect(),
        aborted: AtomicBool::new(false),
        verdict: Mutex::new(None),
        panic: Mutex::new(None),
    };

    // Contiguous chunks of partitions per worker.
    let mut states: Vec<LoopState> = Vec::with_capacity(nparts);
    std::thread::scope(|scope| {
        let coord = &coord;
        let mut views = views.into_iter();
        let handles: Vec<_> = (0..workers)
            .map(|wid| {
                let (lo, hi) = (wid * nparts / workers, (wid + 1) * nparts / workers);
                let chunk: Vec<View> = views.by_ref().take(hi - lo).collect();
                scope.spawn(move || worker_loop(chunk, lo, wid, coord))
            })
            .collect();
        for h in handles {
            states.extend(
                h.join()
                    .expect("sharded worker panicked outside a partition"),
            );
        }
    });

    if let Some((part, payload)) = coord.panic.into_inner().expect("panic lock") {
        sys.absorb_observers(&mut lanes);
        let err = format!("worker panic in partition {part}");
        sys.lane.tracer.write_outputs(Some(&err), None, None, None);
        resume_unwind(payload);
    }
    // Close stall episodes at the *global* drain time so stall totals and
    // traces match for every worker count.
    let verdict = coord.verdict.into_inner().expect("verdict lock");
    let drained = states
        .iter()
        .map(|st| st.drained)
        .max()
        .unwrap_or(Time::ZERO);
    for mut v in sys.host_views(&mut lanes) {
        v.finish(drained, verdict.is_none());
    }
    let events = states.iter().map(|st| st.events).sum();
    sys.finish_run(lanes, drained, events, verdict.map(|(_, v)| v))
}

impl System {
    /// Merges the observer sets of a sharded run's `lanes` into this
    /// system's (see [`cord_sim::trace::Tracer::absorb`]).
    fn absorb_observers(&mut self, lanes: &mut [Lane]) {
        let parts = lanes.iter_mut().map(|l| std::mem::take(&mut l.tracer));
        self.lane.tracer.absorb(parts.collect());
    }

    /// The end of a run that drained at `drained` after `events` events,
    /// shared by both engines once each lane has finished
    /// ([`View::finish`]): `lanes` holds a sharded run's lanes in host
    /// order and is empty for a monolithic run.
    pub(crate) fn finish_run(
        &mut self,
        mut lanes: Vec<Lane>,
        drained: Time,
        events: u64,
        verdict: Option<Verdict>,
    ) -> Result<RunResult, RunError> {
        // The merge replays every lane's events through this system's
        // consumers. The round-barrier loop makes the buffers worker-count
        // independent even when a verdict aborted the run, so the replay
        // also happens on the failure path — coverage maps and sink output
        // for a hang or event-cap repro are identical at any worker count.
        self.absorb_observers(&mut lanes);
        self.lane.tracer.finish();
        // In a sharded run the system's own lane ran nothing (empty queue,
        // idle transport), so narrating over it too changes no line.
        let ran: Vec<&Lane> = std::iter::once(&self.lane).chain(&lanes).collect();
        let error = verdict.map(|v| v.into_error(self, &ran));
        // Pair flows are recorded exactly once per inter-host message, on
        // the *source* lane's egress, so summing per-lane rows reproduces
        // the monolithic flows without double counting.
        for lane in lanes {
            self.lane.noc.absorb(lane.noc);
        }
        if let Some(e) = error {
            return Err(e);
        }

        self.check_finished()?;
        let mut result = self.collect(drained, events);
        result.metrics = self.lane.tracer.take_metrics().map(|m| m.snapshot());
        result.obs = self.lane.tracer.take_series();
        result.profile = self.lane.tracer.take_profile();
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use cord_mem::Addr;
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
    /// event cap, at the same event under every engine.
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
            match sys.try_run().expect_err("the run must fail") {
                RunError::EventCap { events } => assert!(!hang && events == 151, "{events}"),
                err => assert!(hang, "{err}"),
            }
            sys.mem_peek(addr)
        };
        for workers in [None, Some(1), Some(2)] {
            assert_eq!(peek(workers, true), 200, "{workers:?} worker(s)");
        }
        let sharded = peek(Some(1), false);
        assert!(peek(None, false) > 0 && sharded > 0);
        assert_eq!(peek(Some(2), false), sharded);
    }

    /// A panic inside one partition reaches the caller at any worker count,
    /// with no worker left waiting at a barrier, and the system keeps its
    /// tiles: core 0 of a 2-host system stores to host 5, so its address
    /// map panics.
    #[test]
    fn partition_panics_reach_the_caller_and_keep_the_tiles() {
        for workers in [1, 2] {
            let cfg = SystemConfig::cxl(ProtocolKind::Cord, 2);
            let ours = cfg.map.addr_on_host(1, 0);
            let missing = Addr::new(5 * ours.raw());
            let tiles = cfg.total_tiles() as usize;
            let mut programs = vec![Program::new(); tiles];
            programs[0] = Program::build().store_relaxed(missing, 1).finish();
            programs[tiles - 1] = Program::build().store_relaxed(ours, 7).finish();
            let before = op_buffers(programs.iter());
            let mut sys = System::new(cfg, programs);
            sys.set_sim_threads(Some(workers));
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.try_run()));
            let payload = run.expect_err("the panic was lost");
            let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("outside address space"), "{workers}: {msg}");
            assert_eq!(op_buffers(sys.fes.iter().map(|fe| &fe.program)), before);
            assert_eq!(sys.mem_peek(ours), 7, "{workers} worker(s)");
        }
    }
}
