//! The traced passes that split a sim workload's host time across layers.
//!
//! * The *profile pass* arms the runner's per-event-class self-profiler.
//! * The *capture pass* installs a compact [`TraceSink`] that keeps only
//!   message sends and deliveries plus a count per trace-event kind. Each
//!   cell's capture is then replayed, outside the simulator, through a fresh
//!   `Noc` (every send must reproduce its traced arrival) and a fresh
//!   `EventQueue` (push at each arrival, pop at each delivery; every popped
//!   time must equal the traced delivery time). The replays time those two
//!   layers alone.
//!
//! Both replays run on clean workloads only: under faults the transport's
//! drops, duplicates and retransmissions break the one-send-one-delivery
//! pairing they rely on.

use std::collections::BTreeMap;
use std::time::Instant;

use cord::{RunResult, System};
use cord_noc::{FaultStats, MsgClass, Noc, TileId};
use cord_sim::trace::{Shared, TraceData, TraceEvent, TraceSink};
use cord_sim::{EventQueue, Time};

use crate::spans::{Ctx, Spans};
use crate::workloads::{sim_round, stall_name, Cell, CellRun, Round, STALL_CAUSES};

/// Marks a delivery record in [`Rec::arrive`].
const DELIVER: u64 = u64::MAX;

/// One captured message event: a send (with its traced arrival) or a
/// delivery. Times are in picoseconds.
#[derive(Debug, Clone, Copy)]
struct Rec {
    at: u64,
    arrive: u64,
    src: u32,
    dst: u32,
    bytes: u32,
    class: u8,
}

/// The compact capture sink.
#[derive(Debug, Default)]
struct Capture {
    recs: Vec<Rec>,
    kinds: BTreeMap<&'static str, u64>,
}

impl TraceSink for Capture {
    fn emit(&mut self, ev: &TraceEvent) {
        *self.kinds.entry(ev.data.kind_name()).or_default() += 1;
        let at = ev.at.as_ps();
        match ev.data {
            TraceData::MsgSend {
                src,
                dst,
                class,
                bytes,
                arrive,
                ..
            } => self.recs.push(Rec {
                at,
                arrive: arrive.as_ps(),
                src,
                dst,
                bytes: u32::try_from(bytes).expect("message size fits in u32"),
                class: MsgClass::ALL
                    .iter()
                    .position(|c| c.label() == class)
                    .expect("traced class label") as u8,
            }),
            TraceData::MsgDeliver { .. } => self.recs.push(Rec {
                at,
                arrive: DELIVER,
                src: 0,
                dst: 0,
                bytes: 0,
                class: 0,
            }),
            _ => {}
        }
    }
}

/// Result of replaying one capture through a fresh `Noc`.
#[derive(Debug, Clone, Copy, Default)]
struct NocReplay {
    sends: u64,
    exact: u64,
    secs: f64,
}

fn replay_noc(cell: &Cell, recs: &[Rec]) -> NocReplay {
    let mut noc = Noc::new(cell.cfg.noc);
    noc.set_pair_accounting(cell.pair_accounting);
    let tph = cell.cfg.noc.tiles_per_host;
    let mut out = NocReplay::default();
    let t0 = Instant::now();
    for r in recs.iter().filter(|r| r.arrive != DELIVER) {
        let arrive = noc.send(
            Time::from_ps(r.at),
            TileId::from_flat(r.src, tph),
            TileId::from_flat(r.dst, tph),
            r.bytes as u64,
            MsgClass::ALL[r.class as usize],
        );
        out.sends += 1;
        out.exact += (arrive.as_ps() == r.arrive) as u64;
    }
    out.secs = t0.elapsed().as_secs_f64();
    out
}

/// Result of replaying one capture through a fresh `EventQueue`.
#[derive(Debug, Clone, Copy, Default)]
struct QueueReplay {
    /// Pushes plus pops.
    ops: u64,
    mismatches: u64,
    secs: f64,
}

fn replay_queue(cell: &Cell, recs: &[Rec]) -> QueueReplay {
    // Sized as the runner sizes its own queue.
    let mut q: EventQueue<u32> = EventQueue::with_capacity(4 * cell.cfg.total_tiles() as usize);
    let mut out = QueueReplay::default();
    let t0 = Instant::now();
    for (i, r) in recs.iter().enumerate() {
        out.ops += 1;
        if r.arrive == DELIVER {
            let ok = q.pop().is_some_and(|(t, _)| t.as_ps() == r.at);
            out.mismatches += (!ok) as u64;
        } else {
            q.push(Time::from_ps(r.arrive), i as u32);
        }
    }
    out.secs = t0.elapsed().as_secs_f64();
    out.mismatches += q.len() as u64;
    out
}

/// Named per-layer values of one workload (units in [`per_layer_units`]).
pub type Layers = BTreeMap<String, f64>;

/// Event classes of the runner's profiler (`Event::KINDS` in `cord`).
pub const PROFILE_CLASSES: [&str; 10] = [
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

/// Trace-event kinds counted from the capture.
pub const ENGINE_KINDS: [&str; 7] = [
    "store_issue",
    "epoch_close",
    "notify_request",
    "table_insert",
    "table_stall_full",
    "crash_inject",
    "recover_begin",
];

/// Message-class suffixes, index-aligned with `MsgClass::ALL`.
pub const CLASS_NAMES: [&str; 5] = ["data", "ack", "req_notify", "notify", "ctrl"];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs the profile and capture passes of a sim workload and derives its
/// per-layer metrics. `run_s` is the untraced median run time, the base of
/// the overhead fractions. The passes' rounds are returned so the caller can
/// hold them to the same checks as the timed rounds.
pub fn sim_layers(
    cells: &[Cell],
    clean: bool,
    run_s: f64,
    spans: &mut Spans,
    ctx: Ctx,
) -> (Layers, Vec<Round>) {
    let mut m = Layers::new();

    // Profile pass.
    let mut classes: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let id = spans.open("trace.profile", ctx);
    let ctx_prof = spans.child(id);
    let prof = sim_round(
        cells,
        spans,
        ctx_prof,
        &mut |sys: &mut System| sys.set_profiling(true),
        &mut |_, run: &CellRun, _| {
            for (k, count, ns) in run.result.profile.iter().flat_map(|p| p.classes.iter()) {
                let c = classes.entry(k.clone()).or_default();
                c.0 += count;
                c.1 += ns;
            }
        },
    );
    spans.close(id);

    // Capture pass, replaying each cell's capture as soon as it finishes.
    let mut noc = NocReplay::default();
    let mut queue = QueueReplay::default();
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut out = Outcome::default();
    let id = spans.open("trace.capture", ctx);
    let sink = Shared::new(Capture::default());
    let ctx_cap = spans.child(id);
    let capture = sim_round(
        cells,
        spans,
        ctx_cap,
        &mut |sys: &mut System| {
            // A failed cell leaves its capture behind; start each one empty.
            sink.with_mut(|c| *c = Capture::default());
            sys.tracer_mut().install(Box::new(sink.clone()))
        },
        &mut |cell, run: &CellRun, spans: &mut Spans| {
            let cap = sink.with_mut(std::mem::take);
            for (k, n) in &cap.kinds {
                *kinds.entry(k).or_default() += n;
            }
            out.add(&run.result);
            if clean {
                let ctx = spans.child(id);
                let (n, _) = spans.time("replay.noc", ctx, || replay_noc(cell, &cap.recs));
                let (q, _) = spans.time("replay.queue", ctx, || replay_queue(cell, &cap.recs));
                noc.sends += n.sends;
                noc.exact += n.exact;
                noc.secs += n.secs;
                queue.ops += q.ops;
                queue.mismatches += q.mismatches;
                queue.secs += q.secs;
            }
        },
    );
    spans.close(id);

    let events = prof.sim.events as f64;
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("runner.events", events);
    put("runner.events_per_op", ratio(events, prof.work as f64));
    put("runner.ns_per_event", ratio(run_s * 1e9, events));
    put("queue.replay_ops", queue.ops as f64);
    put(
        "queue.replay_ns_per_op",
        ratio(queue.secs * 1e9, queue.ops as f64),
    );
    put(
        "queue.replay_exact",
        (clean && queue.mismatches == 0) as u8 as f64,
    );
    put("noc.replay_sends", noc.sends as f64);
    put(
        "noc.replay_ns_per_send",
        ratio(noc.secs * 1e9, noc.sends as f64),
    );
    put(
        "noc.replay_exact_frac",
        ratio(noc.exact as f64, noc.sends as f64),
    );
    put("noc.pairs_live", out.pairs_live as f64);
    for (i, class) in CLASS_NAMES.iter().enumerate() {
        put(&format!("noc.msgs.{class}"), out.msgs[i] as f64);
        put(&format!("noc.inter_bytes.{class}"), out.bytes[i] as f64);
    }
    let mut prof_ns = 0u64;
    for (k, (count, ns)) in &classes {
        prof_ns += ns;
        put(&format!("prof.{k}.count"), *count as f64);
        put(
            &format!("prof.{k}.ns_per_event"),
            ratio(*ns as f64, *count as f64),
        );
    }
    let replay_ns = (noc.secs + queue.secs) * 1e9;
    put(
        "engine.self_ns_per_event",
        ratio(prof_ns as f64 - replay_ns, events),
    );
    for k in ENGINE_KINDS {
        put(
            &format!("engine.{k}"),
            kinds.get(k).copied().unwrap_or(0) as f64,
        );
    }
    put("engine.polls", out.polls as f64);
    for (c, ns) in STALL_CAUSES.iter().zip(out.stall_ns) {
        put(&format!("engine.stall_ns.{}", stall_name(*c)), ns);
    }
    put("engine.proc_cnt_peak_b", out.proc_cnt_peak as f64);
    put("engine.dir_lut_peak_b", out.dir_lut_peak as f64);
    put("engine.dir_buf_peak_b", out.dir_buf_peak as f64);
    let f = &out.faults;
    put("xport.retransmits", f.retransmits as f64);
    put("xport.spurious_retransmits", f.spurious_retransmits as f64);
    put("xport.dup_dropped", f.dup_dropped as f64);
    put("xport.sessions_reset", f.sessions_reset as f64);
    put("fault.dropped", f.dropped as f64);
    put("fault.duplicated", f.duplicated as f64);
    put("fault.delayed", f.delayed as f64);
    // A duplicate the receiver dropped that the fabric did not create came
    // from a retransmission whose original had arrived.
    let wasted = f.dup_dropped.saturating_sub(f.duplicated) as f64;
    put(
        "xport.useful_retx_frac",
        ratio(f.retransmits as f64 - wasted, f.retransmits as f64),
    );
    put("sim.time_ns", capture.sim.time_ns);
    put("sim.inter_bytes", capture.sim.inter_bytes as f64);
    put("sim.storage_b", capture.sim.storage_b as f64);
    put(
        "trace.capture_overhead_frac",
        ratio(capture.run_s, run_s) - 1.0,
    );
    put("prof.overhead_frac", ratio(prof.run_s, run_s) - 1.0);
    (m, vec![prof, capture])
}

/// Outcome counters of the capture pass, summed over its cells (peaks are
/// the largest over them).
#[derive(Debug, Default)]
struct Outcome {
    polls: u64,
    stall_ns: [f64; STALL_CAUSES.len()],
    proc_cnt_peak: u64,
    dir_lut_peak: u64,
    dir_buf_peak: u64,
    pairs_live: u64,
    msgs: [u64; 5],
    bytes: [u64; 5],
    faults: FaultStats,
}

impl Outcome {
    fn add(&mut self, r: &RunResult) {
        self.polls += r.polls;
        for (ns, c) in self.stall_ns.iter_mut().zip(STALL_CAUSES) {
            *ns += r.stall(c).as_ns_f64();
        }
        self.proc_cnt_peak = self.proc_cnt_peak.max(r.proc_storage_peak().peak_cnt_bytes);
        let dir = r.dir_storage_peak();
        self.dir_lut_peak = self.dir_lut_peak.max(dir.peak_lut_bytes);
        self.dir_buf_peak = self.dir_buf_peak.max(dir.peak_buf_bytes);
        self.pairs_live += r.pair_flows.as_ref().map_or(0, |f| f.len() as u64);
        for (i, (_, s)) in r.traffic.iter().enumerate() {
            self.msgs[i] += s.inter_msgs;
            self.bytes[i] += s.inter_bytes;
        }
        let (f, g) = (&mut self.faults, &r.traffic.faults);
        f.merge(g);
        // `FaultStats::merge` leaves the crash-recovery counters out.
        f.sessions_reset += g.sessions_reset;
        f.replayed += g.replayed;
        f.stale_rejected += g.stale_rejected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::run_cell;

    #[test]
    fn noc_and_queue_replays_are_exact_on_a_tiny_kv_run() {
        let cell = Cell::kv(4, "flat", 8, 3, None);
        let sink = Shared::new(Capture::default());
        run_cell(&cell, &mut Spans::new(), Ctx::default(), &mut |sys| {
            sys.tracer_mut().install(Box::new(sink.clone()))
        })
        .expect("tiny KV run passes its checks");
        let cap = sink.with_mut(std::mem::take);
        let n = replay_noc(&cell, &cap.recs);
        assert!(n.sends > 0);
        assert_eq!(cap.kinds.get("msg_send").copied(), Some(n.sends));
        assert_eq!(n.exact, n.sends, "every traced arrival reproduced");
        let q = replay_queue(&cell, &cap.recs);
        assert_eq!(q.mismatches, 0, "every delivery popped at its traced time");
        assert_eq!(q.ops, 2 * n.sends);
    }
}
