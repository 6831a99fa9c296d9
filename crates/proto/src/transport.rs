//! Reliable-delivery transport shim (sequence numbers, duplicate
//! suppression, timeout retransmission).
//!
//! The clean interconnect delivers every message exactly once and in order,
//! so the protocol engines never see loss, duplication, or reordering. When
//! a [`cord_sim::fault::FaultPlan`] is installed the fabric breaks all three
//! guarantees, and this shim — sitting between the system runner and the
//! engines, like a link-layer retry buffer in CXL/UPI — restores exactly
//! the ones each protocol needs:
//!
//! * **duplicate suppression** and **loss recovery** (acknowledgment plus
//!   timeout retransmission with capped exponential backoff) for every
//!   protocol, and
//! * **FIFO hold-back reassembly** only for the protocols that assume
//!   point-to-point ordering ([`crate::ProtocolKind::needs_fifo`]); CORD,
//!   SO and SEQ run directly over the reordering network.
//!
//! A channel is a host-pair link, as a link-layer retry buffer's is: every
//! message from a tile of host `s` to a tile of host `d` is tagged with the
//! `(s, d)` link's next sequence number, costing [`SEQ_BYTES`] on the wire,
//! and every delivery is acknowledged with an [`ACK_BYTES`]-sized ack that
//! echoes the copy's attempt number. FIFO hold-back therefore orders a
//! whole host pair, which is stricter than per tile pair.
//!
//! Each source host keeps one retransmission timer. Every unacked message
//! has a deadline (its departure plus `rto`, doubled per retransmission up
//! to `rto << max_backoff_exp`); the host's timer fires at its earliest
//! live deadline, retransmits every overdue message, and re-arms at the
//! next. Retransmission is unbounded, so as long as the fault plan's drop
//! probability is below 1 every message is eventually delivered —
//! termination then rests on the runner's liveness watchdog only for
//! genuine protocol bugs (or `reliable = false`, which disables
//! retransmission and exists to demonstrate exactly that watchdog).
//!
//! The shim is runner-agnostic: it never schedules events itself. The
//! runner calls [`Transport::wrap`] when sending, [`Transport::on_deliver`]
//! on arrival (sending an ack and delivering whatever the outcome
//! releases), [`Transport::on_ack`] on ack arrival, and
//! [`Transport::on_timer`] when a host's timer fires. `wrap`, `on_timer`
//! and [`Transport::reset_host`] return the time at which the runner must
//! arm the host's timer, when it changed.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

use cord_sim::Time;

use crate::msg::{Msg, CTRL_BYTES};

/// Wire overhead of the transport sequence number on every tagged message.
pub const SEQ_BYTES: u64 = 8;

/// Wire size of a transport acknowledgment (control header + sequence).
pub const ACK_BYTES: u64 = CTRL_BYTES + 8;

/// Transport tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Initial retransmission timeout.
    pub rto: Time,
    /// Backoff cap: the timeout doubles per attempt up to `rto << max_backoff_exp`.
    pub max_backoff_exp: u32,
    /// When `false`, messages are tagged and deduplicated but never
    /// retransmitted — lost messages stay lost (watchdog demonstrations).
    pub reliable: bool,
    /// Hold back out-of-order arrivals and deliver in sequence order
    /// (required by invalidation-based protocols; see
    /// [`crate::ProtocolKind::needs_fifo`]).
    pub fifo: bool,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            // Above the uncontended round trip of every benchmark fabric
            // (the 3-tier fat-tree's worst is ≈1.17 µs): a frame, its ack,
            // serialization and jitter.
            rto: Time::from_ns(1_500),
            max_backoff_exp: 6,
            reliable: true,
            fifo: false,
        }
    }
}

/// Counters kept by the shim (mirrored into `TrafficStats::faults` by the
/// runner so they ride run results).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct XportStats {
    /// Messages tagged and sent (first transmissions).
    pub sent: u64,
    /// Retransmissions issued.
    pub retransmits: u64,
    /// Retransmissions sent after the copy that delivered their message,
    /// so not needed; counted once per message, when its first ack
    /// retires it. A fresh delivery's ack names the delivering copy. When
    /// the first ack is a duplicate's (the delivering copy's ack was lost
    /// or is still in flight), the delivering copy is taken to be the
    /// attempt before the echoed one: one too many when the echoed copy
    /// was a fabric duplicate of the delivering retransmission, too few
    /// when the acks of several copies were lost.
    pub spurious_retransmits: u64,
    /// Duplicate deliveries suppressed at the receiver.
    pub dup_dropped: u64,
    /// Arrivals held back for FIFO reassembly.
    pub held_back: u64,
    /// Highest attempt count observed for any single message.
    pub max_attempts: u32,
    /// Send links that entered a new session epoch (host transport resets
    /// × the host's links).
    pub sessions_reset: u64,
    /// Unacked messages replayed into a new session epoch.
    pub replayed: u64,
    /// Arrivals rejected because they carried a stale session epoch.
    pub stale_rejected: u64,
}

#[derive(Debug, Clone)]
struct Unacked {
    msg: Msg,
    attempts: u32,
    /// When the host's timer retransmits this copy unless it is acked.
    deadline: Time,
}

/// One host-pair send link.
#[derive(Debug, Default, Clone)]
struct SendChan {
    /// Current session epoch; bumped by a host transport reset.
    sess: u32,
    next_seq: u64,
    /// Retransmission copies indexed by sequence: slot `i` holds sequence
    /// `next_seq - unacked.len() + i`, `None` once acknowledged. The front
    /// slot is always live, so the window spans exactly the oldest unacked
    /// sequence to the newest sent one.
    unacked: VecDeque<Option<Unacked>>,
}

impl SendChan {
    /// Sequence number of the window's first slot.
    fn base(&self) -> u64 {
        self.next_seq - self.unacked.len() as u64
    }

    /// The live copy of `seq`, if it is still unacked.
    fn live(&mut self, seq: u64) -> Option<&mut Unacked> {
        let i = seq.checked_sub(self.base())?;
        self.unacked.get_mut(usize::try_from(i).ok()?)?.as_mut()
    }

    /// Retires `seq` if it is still unacked, trimming acknowledged slots
    /// off the window's front.
    fn retire(&mut self, seq: u64) -> Option<Unacked> {
        let i = usize::try_from(seq.checked_sub(self.base())?).ok()?;
        let u = self.unacked.get_mut(i)?.take()?;
        while self.unacked.front().is_some_and(Option::is_none) {
            self.unacked.pop_front();
        }
        Some(u)
    }
}

/// One source host's send side: its links (indexed by destination host,
/// allocated on the host's first send), the retransmission deadlines of
/// their unacked messages, and its timer.
#[derive(Debug, Default, Clone)]
struct SendRow {
    links: Vec<SendChan>,
    /// Unacked messages per source tile of the host (the recovery quiesce
    /// condition).
    tile_unacked: Vec<usize>,
    /// `(deadline, destination host, sequence)` of every deadline set,
    /// earliest first. An entry is live while its message is unacked and
    /// still carries that deadline; the rest are skipped when they surface.
    deadlines: BinaryHeap<Reverse<(Time, u32, u64)>>,
    /// When the host's pending timer fires; `None` with no timer pending.
    armed: Option<Time>,
}

impl SendRow {
    /// Moves the timer to `at` if that is earlier; returns it if so.
    fn arm(&mut self, at: Time) -> Option<Time> {
        if self.armed.is_some_and(|t| t <= at) {
            return None;
        }
        self.armed = Some(at);
        self.armed
    }

    /// Arms the timer at the earliest live deadline, discarding dead
    /// entries on the way; returns it, or `None` when nothing is unacked.
    fn rearm(&mut self) -> Option<Time> {
        self.armed = None;
        while let Some(&Reverse((at, dst, seq))) = self.deadlines.peek() {
            if self.links[dst as usize]
                .live(seq)
                .is_some_and(|u| u.deadline == at)
            {
                self.armed = Some(at);
                break;
            }
            self.deadlines.pop();
        }
        self.armed
    }
}

/// One destination host's receive side of a host-pair link.
#[derive(Debug, Default, Clone)]
struct RecvChan {
    /// Largest session epoch seen from the sender (the implicit reconnect
    /// handshake: every message carries its session, and the receiver
    /// adopts any newer one on first arrival).
    sess: u32,
    /// Every sequence below this has been delivered (FIFO: in order).
    low: u64,
    /// Delivered sequences above `low` (non-FIFO mode).
    above: BTreeSet<u64>,
    /// Out-of-order arrivals awaiting the gap to fill (FIFO mode).
    held: BTreeMap<u64, Msg>,
}

/// Receiver verdict for one arrival.
#[derive(Debug, Clone, PartialEq)]
pub enum RecvOutcome {
    /// Already seen — suppress, but still acknowledge (the first ack may
    /// have been lost).
    Duplicate,
    /// The arrival carried a stale session epoch (a retransmission from
    /// before a transport reset): reject without acknowledging — the new
    /// session replayed the message under the same sequence number, so
    /// acking here could retire the replay before it arrives.
    Stale,
    /// Fresh arrival: deliver these messages now (empty when the arrival
    /// was held back for FIFO reassembly; several when it filled a gap).
    Deliver(Vec<Msg>),
}

/// One copy the runner must (re)send: a retransmission from
/// [`Transport::on_timer`] or a replay into a new session epoch from
/// [`Transport::reset_host`].
#[derive(Debug, Clone, PartialEq)]
pub struct Resend {
    /// The message (already sized with [`SEQ_BYTES`]).
    pub msg: Msg,
    /// Session epoch of the copy.
    pub sess: u32,
    /// Sequence number (a replay keeps it: the sequence space continues
    /// across sessions so duplicate suppression and FIFO order survive
    /// the reset).
    pub seq: u64,
    /// Attempt number of the copy (1 for a replay: a reset restarts the
    /// count).
    pub attempt: u32,
}

/// Per-system transport state: one send and one receive link per ordered
/// (source host, destination host) pair, in dense rows allocated on each
/// host's first use, plus one retransmission timer per source host.
/// Deterministic by construction — every decision is a pure function of
/// the call sequence: timers retransmit in `(deadline, destination host,
/// sequence)` order and resets replay in `(destination host, sequence)`
/// order. Per-tile counters make [`Transport::unacked_from`] O(1).
#[derive(Debug, Clone)]
pub struct Transport {
    cfg: TransportConfig,
    hosts: u32,
    tiles_per_host: u32,
    /// Indexed by source host.
    send: Vec<SendRow>,
    /// Indexed by destination host, then source host.
    recv: Vec<Vec<RecvChan>>,
    unacked: usize,
    stats: XportStats,
}

impl Transport {
    /// Creates an idle transport for `hosts` hosts of `tiles_per_host`
    /// tiles each.
    pub fn new(cfg: TransportConfig, hosts: u32, tiles_per_host: u32) -> Self {
        Transport {
            cfg,
            hosts,
            tiles_per_host,
            send: Vec::new(),
            recv: Vec::new(),
            unacked: 0,
            stats: XportStats::default(),
        }
    }

    /// The configuration this transport was built with.
    pub fn config(&self) -> &TransportConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &XportStats {
        &self.stats
    }

    /// Messages currently awaiting acknowledgment (diagnostics).
    pub fn unacked_total(&self) -> usize {
        self.unacked
    }

    /// Messages awaiting acknowledgment that tile `src` sent (the
    /// crash-recovery quiesce condition: a core's outbound traffic has
    /// fully drained when this reaches zero).
    pub fn unacked_from(&self, src: u32) -> usize {
        let (host, tile) = (src / self.tiles_per_host, src % self.tiles_per_host);
        self.send
            .get(host as usize)
            .and_then(|row| row.tile_unacked.get(tile as usize))
            .map_or(0, |&n| n)
    }

    /// Host of flat tile index `tile`.
    fn host(&self, tile: u32) -> u32 {
        tile / self.tiles_per_host
    }

    /// Host `h`'s send row, allocated on first use.
    fn send_row(&mut self, h: u32) -> &mut SendRow {
        if self.send.len() <= h as usize {
            self.send.resize_with(h as usize + 1, SendRow::default);
        }
        let row = &mut self.send[h as usize];
        if row.links.is_empty() {
            row.links = vec![SendChan::default(); self.hosts as usize];
            row.tile_unacked = vec![0; self.tiles_per_host as usize];
        }
        row
    }

    /// The receive link `src_host → dst_host`, its row allocated on first
    /// use.
    fn recv_chan(&mut self, src_host: u32, dst_host: u32) -> &mut RecvChan {
        if self.recv.len() <= dst_host as usize {
            self.recv.resize_with(dst_host as usize + 1, Vec::new);
        }
        let row = &mut self.recv[dst_host as usize];
        if row.is_empty() {
            *row = vec![RecvChan::default(); self.hosts as usize];
        }
        &mut row[src_host as usize]
    }

    /// Tags `msg`, departing at `depart`, with the next sequence number on
    /// its host-pair link, adds [`SEQ_BYTES`] to its wire size, and retains
    /// a retransmission copy due at `depart + rto`. Returns the link's
    /// session epoch, the sequence number, and the time at which the runner
    /// must arm the source host's timer, if that copy is now its earliest
    /// deadline (never on an unreliable transport).
    pub fn wrap(&mut self, depart: Time, msg: &mut Msg) -> (u32, u64, Option<Time>) {
        let (src, dst) = (msg.src.tile_flat(), msg.dst.tile_flat());
        let (sh, dh, tile) = (self.host(src), self.host(dst), src % self.tiles_per_host);
        let cfg = self.cfg;
        let row = self.send_row(sh);
        let link = &mut row.links[dh as usize];
        let (sess, seq) = (link.sess, link.next_seq);
        link.next_seq += 1;
        msg.bytes += SEQ_BYTES;
        let deadline = depart + cfg.rto;
        link.unacked.push_back(Some(Unacked {
            msg: msg.clone(),
            attempts: 1,
            deadline,
        }));
        row.tile_unacked[tile as usize] += 1;
        let arm = if cfg.reliable {
            row.deadlines.push(Reverse((deadline, dh, seq)));
            row.arm(deadline)
        } else {
            None
        };
        self.unacked += 1;
        self.stats.sent += 1;
        (sess, seq, arm)
    }

    /// Resets host `host`'s transport (its send row) at `now`: each of its
    /// links enters a new session epoch — in-flight acks and copies from
    /// the old session become stale — and every unacked message is
    /// replayed into the new session under its original sequence number,
    /// with its attempt count restarted and its deadline at `now + rto`.
    /// Appends the replays to `out` for the runner to send, and returns
    /// the time at which to arm the host's timer, if it moved earlier.
    pub fn reset_host(&mut self, host: u32, now: Time, out: &mut Vec<Resend>) -> Option<Time> {
        let cfg = self.cfg;
        let row = self
            .send
            .get_mut(host as usize)
            .filter(|r| !r.links.is_empty())?;
        let deadline = now + cfg.rto;
        let mut replayed = false;
        for (dst, link) in (0u32..).zip(&mut row.links) {
            if link.next_seq == 0 {
                continue; // never used
            }
            link.sess += 1;
            self.stats.sessions_reset += 1;
            let base = link.base();
            for (seq, slot) in (base..).zip(link.unacked.iter_mut()) {
                let Some(u) = slot else { continue };
                u.attempts = 1;
                u.deadline = deadline;
                self.stats.replayed += 1;
                out.push(Resend {
                    msg: u.msg.clone(),
                    sess: link.sess,
                    seq,
                    attempt: 1,
                });
                if cfg.reliable {
                    row.deadlines.push(Reverse((deadline, dst, seq)));
                    replayed = true;
                }
            }
        }
        if replayed {
            row.arm(deadline)
        } else {
            None
        }
    }

    /// Handles the arrival of sequence `seq` tagged with session `sess`
    /// (the message names its link by its source and destination tiles).
    pub fn on_deliver(&mut self, sess: u32, seq: u64, msg: Msg) -> RecvOutcome {
        let (sh, dh) = (
            self.host(msg.src.tile_flat()),
            self.host(msg.dst.tile_flat()),
        );
        let fifo = self.cfg.fifo;
        let chan = self.recv_chan(sh, dh);
        if sess < chan.sess {
            self.stats.stale_rejected += 1;
            return RecvOutcome::Stale;
        }
        // Adopt a newer session (the sender's transport reset): sequence
        // numbering continues across sessions, so dedup/FIFO state carries.
        chan.sess = sess;
        if seq < chan.low {
            self.stats.dup_dropped += 1;
            return RecvOutcome::Duplicate;
        }
        if seq == chan.low && chan.above.is_empty() && chan.held.is_empty() {
            // In order with nothing pending above: the common case needs
            // neither hold-back nor the out-of-order set.
            chan.low += 1;
            return RecvOutcome::Deliver(vec![msg]);
        }
        if fifo {
            if chan.held.contains_key(&seq) {
                self.stats.dup_dropped += 1;
                return RecvOutcome::Duplicate;
            }
            chan.held.insert(seq, msg);
            let mut out = Vec::new();
            while let Some(m) = chan.held.remove(&chan.low) {
                out.push(m);
                chan.low += 1;
            }
            if out.is_empty() {
                self.stats.held_back += 1;
            }
            RecvOutcome::Deliver(out)
        } else {
            if !chan.above.insert(seq) {
                self.stats.dup_dropped += 1;
                return RecvOutcome::Duplicate;
            }
            while chan.above.remove(&chan.low) {
                chan.low += 1;
            }
            RecvOutcome::Deliver(vec![msg])
        }
    }

    /// Handles an acknowledgment of sequence `seq` from session `sess` on
    /// the link from tile `src`'s host to tile `dst`'s; `attempt` is the
    /// acknowledged copy's attempt number and `dup` the receiver's report
    /// that it was a duplicate. The ack that retires a message counts its
    /// copies sent after the delivering one as spurious retransmissions
    /// (see [`XportStats::spurious_retransmits`]). Acks from a stale
    /// session are ignored — the reset already replayed the message, so
    /// only the new session's delivery may retire it. Returns `true` if
    /// this retired an outstanding message.
    pub fn on_ack(
        &mut self,
        src: u32,
        dst: u32,
        sess: u32,
        seq: u64,
        attempt: u32,
        dup: bool,
    ) -> bool {
        let (sh, dh) = (self.host(src), self.host(dst));
        let Some(row) = self
            .send
            .get_mut(sh as usize)
            .filter(|r| !r.links.is_empty())
        else {
            return false;
        };
        let link = &mut row.links[dh as usize];
        if sess != link.sess {
            return false;
        }
        let Some(u) = link.retire(seq) else {
            return false; // already retired by an earlier ack
        };
        let delivered_by = if dup {
            attempt.saturating_sub(1).max(1)
        } else {
            attempt
        };
        self.stats.spurious_retransmits += u64::from(u.attempts.saturating_sub(delivered_by));
        row.tile_unacked[(u.msg.src.tile_flat() % self.tiles_per_host) as usize] -= 1;
        self.unacked -= 1;
        true
    }

    /// Host `host`'s retransmission timer fires at `now`. A timer that an
    /// earlier deadline superseded does nothing. Otherwise every overdue
    /// unacked message is retransmitted — appended to `out` with its new
    /// attempt count, its next deadline backed off to `now + rto <<
    /// min(attempt - 1, max_backoff_exp)` — and the timer re-arms at the
    /// earliest live deadline, which is returned (`None`: nothing is left
    /// unacked, or the timer was superseded).
    pub fn on_timer(&mut self, host: u32, now: Time, out: &mut Vec<Resend>) -> Option<Time> {
        let cfg = self.cfg;
        let row = self.send.get_mut(host as usize)?;
        if row.armed != Some(now) {
            return None;
        }
        while let Some(&Reverse((at, dst, seq))) = row.deadlines.peek() {
            if at > now {
                break;
            }
            row.deadlines.pop();
            let link = &mut row.links[dst as usize];
            let sess = link.sess;
            let Some(u) = link.live(seq).filter(|u| u.deadline == at) else {
                continue;
            };
            u.attempts += 1;
            let exp = (u.attempts - 1).min(cfg.max_backoff_exp);
            u.deadline = now + Time::from_ps(cfg.rto.as_ps() << exp);
            self.stats.retransmits += 1;
            self.stats.max_attempts = self.stats.max_attempts.max(u.attempts);
            out.push(Resend {
                msg: u.msg.clone(),
                sess,
                seq,
                attempt: u.attempts,
            });
            row.deadlines.push(Reverse((u.deadline, dst, seq)));
        }
        row.rearm()
    }
}

/// A parsed fault-campaign specification: the fabric-level fault plan plus
/// the transport configuration, from one spec string (the `CORD_FAULTS`
/// environment variable / `--faults` flag grammar).
///
/// Transport directives extend the [`cord_sim::fault::FaultPlan::parse`]
/// grammar: `rto=NANOS` sets the retransmission timeout (positive, with
/// its longest backoff `rto << max_backoff_exp` at most
/// [`Time::SPEC_MAX`]) and the bare word `unreliable` (no `=`) disables
/// retransmission. Everything else is delegated to the plan parser with
/// [`cord_noc::MsgClass`] labels (case-insensitive) as the class
/// vocabulary. FIFO hold-back is *not* part of the spec — it is derived
/// from the protocol under test.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Fabric fault plan.
    pub plan: cord_sim::fault::FaultPlan,
    /// Transport configuration (with `fifo` left at its default; the runner
    /// overrides it per protocol).
    pub xport: TransportConfig,
}

impl FaultSpec {
    /// Parses `spec`, e.g.
    /// `seed=7; drop=0.01; drop.Notify=0.1; jitter=200; rto=2000`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed directive.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut xport = TransportConfig::default();
        let mut plan_directives = Vec::new();
        for raw in spec
            .split([';', ','])
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            match raw.split_once('=') {
                Some(("rto", v)) => {
                    let ns: u64 = v.parse().map_err(|_| format!("bad rto {v:?}"))?;
                    // The timer must advance time, and its longest backoff
                    // (`rto << max_backoff_exp`) must stay within the spec
                    // limit.
                    let cap = Time::SPEC_MAX.as_ps() >> xport.max_backoff_exp;
                    xport.rto = Time::checked_from_ns(ns)
                        .filter(|t| *t > Time::ZERO && t.as_ps() <= cap)
                        .ok_or_else(|| format!("rto {ns} ns out of range"))?;
                }
                None if raw == "unreliable" => xport.reliable = false,
                None => return Err(format!("fault spec directive {raw:?} is not key=value")),
                _ => plan_directives.push(raw),
            }
        }
        let plan = cord_sim::fault::FaultPlan::parse(&plan_directives.join(";"), |name| {
            cord_noc::MsgClass::ALL
                .iter()
                .find(|c| c.label().eq_ignore_ascii_case(name))
                .map(|&c| c as usize)
        })?;
        Ok(FaultSpec { plan, xport })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{CoreId, DirId, MsgKind, NodeRef};
    use crate::StoreOrd;
    use cord_mem::Addr;

    /// Hosts and tiles per host of the unit tests' transports.
    const HOSTS: u32 = 4;
    const TPH: u32 = 8;

    fn ns(n: u64) -> Time {
        Time::from_ns(n)
    }

    /// A store from core tile `src` to directory tile `dst`.
    fn msg_from(src: u32, dst: u32, tid: u64) -> Msg {
        Msg::new(
            NodeRef::Core(CoreId(src)),
            NodeRef::Dir(DirId(dst)),
            MsgKind::WtStore {
                tid,
                addr: Addr::new(0x40),
                bytes: 8,
                value: tid,
                ord: StoreOrd::Relaxed,
                meta: crate::msg::WtMeta::None,
                needs_ack: false,
            },
        )
    }

    /// A store from tile 0 (host 0) to tile 8 (host 1).
    fn msg(tid: u64) -> Msg {
        msg_from(0, 8, tid)
    }

    fn transport(cfg: TransportConfig) -> Transport {
        Transport::new(cfg, HOSTS, TPH)
    }

    #[test]
    fn wrap_tags_and_costs_seq_bytes() {
        let mut x = transport(TransportConfig::default());
        let rto = x.config().rto;
        let mut m = msg(1);
        let base = m.bytes;
        assert_eq!(x.wrap(ns(10), &mut m), (0, 0, Some(ns(10) + rto)));
        assert_eq!(m.bytes, base + SEQ_BYTES);
        // Later departures leave the host's timer where it is.
        assert_eq!(x.wrap(ns(20), &mut msg(2)), (0, 1, None));
        // Another tile pair of the same host pair shares the link.
        assert_eq!(x.wrap(ns(30), &mut msg_from(3, 12, 3)), (0, 2, None));
        // Another host pair is another link, with its own host's timer.
        assert_eq!(
            x.wrap(ns(40), &mut msg_from(8, 0, 4)),
            (0, 0, Some(ns(40) + rto))
        );
        assert_eq!(x.unacked_total(), 4);
        assert_eq!(
            (x.unacked_from(0), x.unacked_from(3), x.unacked_from(8)),
            (2, 1, 1)
        );
        assert_eq!(x.stats().sent, 4);
    }

    #[test]
    fn duplicate_deliveries_are_suppressed() {
        let mut x = transport(TransportConfig::default());
        let mut m = msg(1);
        let (sess, seq, _) = x.wrap(Time::ZERO, &mut m);
        assert_eq!(
            x.on_deliver(sess, seq, m.clone()),
            RecvOutcome::Deliver(vec![m.clone()])
        );
        assert_eq!(x.on_deliver(sess, seq, m.clone()), RecvOutcome::Duplicate);
        assert_eq!(x.on_deliver(sess, seq, m), RecvOutcome::Duplicate);
        assert_eq!(x.stats().dup_dropped, 2);
    }

    #[test]
    fn unordered_mode_delivers_immediately_out_of_order() {
        let mut x = transport(TransportConfig::default());
        let (mut a, mut b) = (msg(1), msg(2));
        let (_, s0, _) = x.wrap(Time::ZERO, &mut a);
        let (_, s1, _) = x.wrap(Time::ZERO, &mut b);
        // Arrivals reversed: both deliver at once, no hold-back.
        assert_eq!(
            x.on_deliver(0, s1, b.clone()),
            RecvOutcome::Deliver(vec![b])
        );
        assert_eq!(
            x.on_deliver(0, s0, a.clone()),
            RecvOutcome::Deliver(vec![a])
        );
        assert_eq!(x.stats().held_back, 0);
    }

    #[test]
    fn fifo_mode_holds_back_and_releases_in_order() {
        let mut x = transport(TransportConfig {
            fifo: true,
            ..TransportConfig::default()
        });
        // Three tile pairs of the one host pair 0 → 1.
        let (mut a, mut b, mut c) = (msg(1), msg_from(1, 9, 2), msg_from(2, 10, 3));
        let (_, s0, _) = x.wrap(Time::ZERO, &mut a);
        let (_, s1, _) = x.wrap(Time::ZERO, &mut b);
        let (_, s2, _) = x.wrap(Time::ZERO, &mut c);
        assert_eq!(x.on_deliver(0, s2, c.clone()), RecvOutcome::Deliver(vec![]));
        assert_eq!(x.on_deliver(0, s1, b.clone()), RecvOutcome::Deliver(vec![]));
        assert_eq!(x.stats().held_back, 2);
        // The gap fills: everything releases in sequence order.
        assert_eq!(
            x.on_deliver(0, s0, a.clone()),
            RecvOutcome::Deliver(vec![a, b, c])
        );
        // Late duplicate of a held-then-delivered seq is still a duplicate.
        assert_eq!(
            x.on_deliver(0, s1, msg_from(1, 9, 2)),
            RecvOutcome::Duplicate
        );
    }

    #[test]
    fn ack_retires_and_timeout_backs_off() {
        let cfg = TransportConfig {
            rto: ns(100),
            max_backoff_exp: 2,
            ..TransportConfig::default()
        };
        let mut x = transport(cfg);
        let mut m = msg(1);
        let (_, seq, arm) = x.wrap(Time::ZERO, &mut m);
        assert_eq!(arm, Some(ns(100)));
        let mut out = Vec::new();
        // Each firing retransmits and re-arms rto << (attempt - 1) later,
        // capped at rto << 2.
        for (at, attempt, next) in [(100, 2, 300), (300, 3, 700), (700, 4, 1100)] {
            out.clear();
            assert_eq!(x.on_timer(0, ns(at), &mut out), Some(ns(next)), "at {at}");
            assert_eq!(
                out,
                vec![Resend {
                    msg: m.clone(),
                    sess: 0,
                    seq,
                    attempt
                }]
            );
        }
        assert!(x.on_ack(0, 8, 0, seq, 4, true));
        // Already retired.
        assert!(!x.on_ack(0, 8, 0, seq, 1, false));
        // The timer still fires once, finds nothing, and stays disarmed.
        out.clear();
        assert_eq!(x.on_timer(0, ns(1100), &mut out), None);
        assert!(out.is_empty());
        assert_eq!(x.stats().retransmits, 3);
        assert_eq!(x.stats().spurious_retransmits, 1);
        assert_eq!(x.stats().max_attempts, 4);
        assert_eq!(x.unacked_total(), 0);
        // The next send arms the timer afresh.
        assert_eq!(x.wrap(ns(2000), &mut msg(2)).2, Some(ns(2100)));
    }

    /// One timer per host: a firing retransmits every overdue message of
    /// the host, on every link, in deadline order; an earlier deadline
    /// supersedes a later timer, which then fires as a no-op.
    #[test]
    fn one_timer_per_host_retransmits_every_overdue_message() {
        let cfg = TransportConfig {
            rto: ns(100),
            ..TransportConfig::default()
        };
        let mut x = transport(cfg);
        let mut out = Vec::new();
        assert_eq!(x.wrap(ns(0), &mut msg(1)).2, Some(ns(100)));
        assert_eq!(x.wrap(ns(0), &mut msg_from(1, 16, 2)).2, None);
        assert_eq!(x.wrap(ns(50), &mut msg(3)).2, None);
        // Host 1's timer is its own.
        assert_eq!(x.wrap(ns(10), &mut msg_from(8, 0, 4)).2, Some(ns(110)));
        assert_eq!(x.on_timer(0, ns(100), &mut out), Some(ns(150)));
        let sent: Vec<(u32, u64)> = out.iter().map(|r| (r.msg.dst.tile_flat(), r.seq)).collect();
        assert_eq!(sent, vec![(8, 0), (16, 0)], "both links' overdue copies");
        // Retransmitted copies are due at 300 now; seq 1 still at 150. Ack
        // it, and a send at 160 brings the timer forward from 300 to 260.
        assert!(x.on_ack(0, 8, 0, 1, 1, false));
        out.clear();
        assert_eq!(x.on_timer(0, ns(150), &mut out), Some(ns(300)));
        assert!(out.is_empty(), "acked before its deadline");
        assert_eq!(x.wrap(ns(160), &mut msg(5)).2, Some(ns(260)));
        assert_eq!(x.on_timer(0, ns(300), &mut out), None, "superseded");
        assert!(out.is_empty());
        assert_eq!(x.on_timer(0, ns(260), &mut out), Some(ns(300)));
        assert_eq!(out.len(), 1);
        assert_eq!(x.stats().retransmits, 3);
        assert_eq!(x.unacked_from(8), 1);
    }

    /// `spurious_retransmits` counts, once per message, the copies sent
    /// after the one that delivered it.
    #[test]
    fn spurious_retransmits_count_copies_after_the_delivering_one() {
        let cfg = TransportConfig {
            rto: ns(100),
            ..TransportConfig::default()
        };
        let delivered = |x: &mut Transport, r: &Resend| {
            matches!(
                x.on_deliver(r.sess, r.seq, r.msg.clone()),
                RecvOutcome::Deliver(_)
            )
        };
        // A message sent at 0 and retransmitted once at 100 ns: the
        // original copy and the retransmission.
        let sent = || {
            let mut x = transport(cfg);
            let mut m = msg(1);
            let (sess, seq, _) = x.wrap(Time::ZERO, &mut m);
            let mut out = Vec::new();
            x.on_timer(0, ns(100), &mut out);
            let retx = out.pop().expect("one retransmission");
            let orig = Resend {
                msg: m,
                sess,
                seq,
                attempt: 1,
            };
            (x, orig, retx)
        };
        let ack = |x: &mut Transport, r: &Resend, dup: bool| {
            x.on_ack(0, 8, r.sess, r.seq, r.attempt, dup)
        };

        // Original delivered, then one retransmission: 1.
        let (mut x, orig, retx) = sent();
        assert!(delivered(&mut x, &orig));
        assert!(!delivered(&mut x, &retx));
        assert!(ack(&mut x, &orig, false));
        assert!(!ack(&mut x, &retx, true));
        assert_eq!(x.stats().spurious_retransmits, 1);
        // The same, with the original's ack lost and the duplicate's ack
        // duplicated by the fabric: still 1.
        let (mut x, orig, retx) = sent();
        assert!(delivered(&mut x, &orig));
        assert!(!delivered(&mut x, &retx));
        assert!(ack(&mut x, &retx, true));
        assert!(!ack(&mut x, &retx, true));
        assert_eq!(x.stats().spurious_retransmits, 1);
        // Original dropped, then one retransmission: 0.
        let (mut x, _, retx) = sent();
        assert!(delivered(&mut x, &retx));
        assert!(ack(&mut x, &retx, false));
        assert_eq!(x.stats().spurious_retransmits, 0);
        // Original dropped, then a retransmission that the fabric
        // duplicates: the duplicate's ack names no needless copy. 0.
        let (mut x, _, retx) = sent();
        assert!(delivered(&mut x, &retx));
        assert!(!delivered(&mut x, &retx));
        assert!(ack(&mut x, &retx, false));
        assert!(!ack(&mut x, &retx, true));
        assert_eq!(x.stats().spurious_retransmits, 0);
        // A fabric duplicate of a first attempt: 0.
        let mut x = transport(cfg);
        let mut m = msg(1);
        let (sess, seq, _) = x.wrap(Time::ZERO, &mut m);
        assert!(matches!(
            x.on_deliver(sess, seq, m.clone()),
            RecvOutcome::Deliver(_)
        ));
        assert_eq!(x.on_deliver(sess, seq, m), RecvOutcome::Duplicate);
        assert!(x.on_ack(0, 8, sess, seq, 1, false));
        assert!(!x.on_ack(0, 8, sess, seq, 1, true));
        assert_eq!(x.stats().spurious_retransmits, 0);
    }

    #[test]
    fn unreliable_mode_never_retransmits() {
        let mut x = transport(TransportConfig {
            reliable: false,
            ..TransportConfig::default()
        });
        let mut out = Vec::new();
        assert_eq!(x.wrap(Time::ZERO, &mut msg(1)).2, None, "no timer");
        assert_eq!(x.on_timer(0, ns(1_500), &mut out), None);
        assert!(x.reset_host(0, ns(10), &mut out).is_none());
        assert_eq!(out.len(), 1, "a reset still replays");
        assert_eq!(x.stats().retransmits, 0);
    }

    #[test]
    fn session_reset_replays_unacked_and_stales_old_session() {
        let mut x = transport(TransportConfig::default());
        let rto = x.config().rto;
        let (mut a, mut b) = (msg(1), msg(2));
        let (_, s0, _) = x.wrap(Time::ZERO, &mut a);
        let (_, s1, _) = x.wrap(Time::ZERO, &mut b);
        // First message delivered and acked in session 0; second in flight.
        assert!(matches!(
            x.on_deliver(0, s0, a.clone()),
            RecvOutcome::Deliver(_)
        ));
        assert!(x.on_ack(0, 8, 0, s0, 1, false));
        // Host 0 transport resets at 100 ns, before its timer (1,500 ns):
        // the replay is due at 1,600 ns, so the timer stays.
        let mut replays = Vec::new();
        assert_eq!(x.reset_host(0, ns(100), &mut replays), None);
        assert_eq!(
            replays,
            vec![Resend {
                msg: b.clone(),
                sess: 1,
                seq: s1,
                attempt: 1
            }],
            "only the unacked message replays"
        );
        assert_eq!(x.stats().sessions_reset, 1);
        assert_eq!(x.stats().replayed, 1);
        // The old session's ack is stale, and the timer at 1,500 ns finds
        // the replay not yet due.
        assert!(!x.on_ack(0, 8, 0, s1, 1, false));
        let mut out = Vec::new();
        assert_eq!(x.on_timer(0, rto, &mut out), Some(ns(100) + rto));
        assert!(out.is_empty());
        // The replay delivers once under the new session…
        assert_eq!(
            x.on_deliver(1, s1, b.clone()),
            RecvOutcome::Deliver(vec![b.clone()])
        );
        // …after which an old-session in-flight copy (e.g. a pre-reset
        // retransmission still in the fabric) is rejected without acking.
        assert_eq!(x.on_deliver(0, s1, b), RecvOutcome::Stale);
        assert_eq!(x.stats().stale_rejected, 1);
        assert!(x.on_ack(0, 8, 1, s1, 1, false));
        assert_eq!(x.unacked_total(), 0);
        // A second reset of an idle link still bumps the session.
        assert_eq!(x.reset_host(0, ns(200), &mut out), None);
        assert!(out.is_empty());
        assert_eq!(x.wrap(ns(300), &mut msg(3)).0, 2);
    }

    #[test]
    fn session_reset_preserves_dedup_across_sessions() {
        let mut x = transport(TransportConfig::default());
        let mut m = msg(1);
        let (_, seq, _) = x.wrap(Time::ZERO, &mut m);
        // Delivered in session 0, but the ack is lost: still unacked.
        assert!(matches!(
            x.on_deliver(0, seq, m.clone()),
            RecvOutcome::Deliver(_)
        ));
        let mut replays = Vec::new();
        x.reset_host(0, ns(10), &mut replays);
        assert_eq!(replays.len(), 1);
        // The replay arrives under the new session with the same sequence
        // number: the receiver adopts the session and suppresses the dup,
        // so the engine never sees the message twice.
        assert_eq!(x.on_deliver(1, seq, m), RecvOutcome::Duplicate);
        assert!(x.on_ack(0, 8, 1, seq, 1, true));
        assert_eq!(
            x.stats().spurious_retransmits,
            0,
            "a replay is no retransmission"
        );
        assert_eq!(x.unacked_total(), 0);
    }

    #[test]
    fn session_reset_scopes_to_the_host_tile_range() {
        let mut x = transport(TransportConfig::default());
        let rto = x.config().rto;
        x.wrap(Time::ZERO, &mut msg(1)); // host 0 tile
        x.wrap(Time::ZERO, &mut msg_from(9, 0, 2)); // host 1 tile
        assert_eq!(x.unacked_from(0), 1);
        assert_eq!(x.unacked_from(9), 1);
        let mut replays = Vec::new();
        x.reset_host(0, ns(10), &mut replays);
        assert_eq!(replays.len(), 1);
        assert_eq!(replays[0].msg.src.tile_flat(), 0);
        // Host 1's link kept its session and timer.
        let mut out = Vec::new();
        assert_eq!(x.on_timer(1, rto, &mut out), Some(rto + rto + rto));
        assert_eq!((out.len(), out[0].sess), (1, 0));
        assert_eq!(x.wrap(ns(20), &mut msg_from(9, 0, 4)).0, 0);
        // A host that never sent has nothing to reset.
        assert_eq!(x.reset_host(3, ns(30), &mut replays), None);
        assert_eq!(x.stats().sessions_reset, 1);
    }

    #[test]
    fn fault_spec_parses_transport_and_plan_directives() {
        let spec = FaultSpec::parse(
            "seed=9; drop=0.01; drop.Notify.0-1=0.2; jitter=150; rto=2500; unreliable",
        )
        .unwrap();
        assert_eq!(spec.xport.rto, Time::from_ns(2500));
        assert!(!spec.xport.reliable);
        assert_eq!(spec.plan.seed(), 9);
        assert!(!spec.plan.is_noop());
        // Class names are case-insensitive MsgClass labels.
        assert!(FaultSpec::parse("drop.notify=0.5").is_ok());
        assert!(FaultSpec::parse("drop.NoSuchClass=0.5").is_err());
        assert!(FaultSpec::parse("bogus").is_err());
        // Out-of-range values are errors, never a panic, a wrap or a timer
        // that cannot advance time.
        let cap = TransportConfig::default().max_backoff_exp;
        let max_rto_ns = (Time::SPEC_MAX.as_ps() >> cap) / 1_000;
        for bad in [
            "rto=0".to_string(),
            format!("rto={}", max_rto_ns + 1),
            format!("rto={}", (u64::MAX >> cap) / 1_000),
            format!("rto={}", u64::MAX / 1_000 + 1),
            "rto=-5".to_string(),
        ] {
            assert!(FaultSpec::parse(&bad).is_err(), "{bad:?} accepted");
        }
        let spec = FaultSpec::parse(&format!("rto={max_rto_ns}")).expect("largest rto");
        assert!(
            spec.xport.rto.as_ps() << cap <= Time::SPEC_MAX.as_ps(),
            "the longest backoff stays within the spec limit"
        );
        assert_eq!(
            FaultSpec::parse("rto=1").unwrap().xport.rto,
            Time::from_ns(1)
        );
    }

    /// An ordered-map transport with full scans instead of windows, bit
    /// windows and deadline heaps: the reference model for the
    /// differential test below.
    mod reference {
        use std::collections::{BTreeMap, BTreeSet};

        use super::super::{RecvOutcome, Resend, TransportConfig, XportStats, SEQ_BYTES};
        use super::TPH;
        use crate::msg::Msg;
        use cord_sim::Time;

        #[derive(Default)]
        struct SendChan {
            sess: u32,
            next_seq: u64,
            /// seq → (message, attempts, deadline).
            unacked: BTreeMap<u64, (Msg, u32, Time)>,
        }

        #[derive(Default)]
        struct RecvChan {
            sess: u32,
            low: u64,
            above: BTreeSet<u64>,
            held: BTreeMap<u64, Msg>,
        }

        pub struct RefTransport {
            cfg: TransportConfig,
            send: BTreeMap<(u32, u32), SendChan>,
            recv: BTreeMap<(u32, u32), RecvChan>,
            armed: BTreeMap<u32, Time>,
            pub stats: XportStats,
        }

        fn hosts(m: &Msg) -> (u32, u32) {
            (m.src.tile_flat() / TPH, m.dst.tile_flat() / TPH)
        }

        impl RefTransport {
            pub fn new(cfg: TransportConfig) -> Self {
                RefTransport {
                    cfg,
                    send: BTreeMap::new(),
                    recv: BTreeMap::new(),
                    armed: BTreeMap::new(),
                    stats: XportStats::default(),
                }
            }

            pub fn unacked_total(&self) -> usize {
                self.send.values().map(|c| c.unacked.len()).sum()
            }

            /// Unacked messages per source tile, from one full scan.
            pub fn unacked_by_tile(&self, tiles: u32) -> Vec<usize> {
                let mut n = vec![0; tiles as usize];
                for (m, _, _) in self.send.values().flat_map(|c| c.unacked.values()) {
                    n[m.src.tile_flat() as usize] += 1;
                }
                n
            }

            /// When `host`'s pending timer fires, if one is pending.
            pub fn armed(&self, host: u32) -> Option<Time> {
                self.armed.get(&host).copied().filter(|&t| t < Time::MAX)
            }

            /// Moves `host`'s timer to `at` if that is earlier.
            fn arm(&mut self, host: u32, at: Time) -> Option<Time> {
                let t = self.armed.entry(host).or_insert(Time::MAX);
                (at < *t).then(|| {
                    *t = at;
                    at
                })
            }

            pub fn wrap(&mut self, depart: Time, msg: &mut Msg) -> (u32, u64, Option<Time>) {
                let (sh, dh) = hosts(msg);
                let chan = self.send.entry((sh, dh)).or_default();
                let seq = chan.next_seq;
                chan.next_seq += 1;
                msg.bytes += SEQ_BYTES;
                let deadline = depart + self.cfg.rto;
                chan.unacked.insert(seq, (msg.clone(), 1, deadline));
                let sess = chan.sess;
                self.stats.sent += 1;
                let arm = if self.cfg.reliable {
                    self.arm(sh, deadline)
                } else {
                    None
                };
                (sess, seq, arm)
            }

            pub fn reset_host(
                &mut self,
                host: u32,
                now: Time,
                out: &mut Vec<Resend>,
            ) -> Option<Time> {
                let deadline = now + self.cfg.rto;
                let mut any = false;
                for (_, chan) in self.send.range_mut((host, 0)..(host + 1, 0)) {
                    chan.sess += 1;
                    self.stats.sessions_reset += 1;
                    for (&seq, (msg, attempts, d)) in chan.unacked.iter_mut() {
                        *attempts = 1;
                        *d = deadline;
                        self.stats.replayed += 1;
                        any = true;
                        out.push(Resend {
                            msg: msg.clone(),
                            sess: chan.sess,
                            seq,
                            attempt: 1,
                        });
                    }
                }
                if any && self.cfg.reliable {
                    self.arm(host, deadline)
                } else {
                    None
                }
            }

            pub fn on_deliver(&mut self, sess: u32, seq: u64, msg: Msg) -> RecvOutcome {
                let chan = self.recv.entry(hosts(&msg)).or_default();
                if sess < chan.sess {
                    self.stats.stale_rejected += 1;
                    return RecvOutcome::Stale;
                }
                chan.sess = sess;
                if seq < chan.low {
                    self.stats.dup_dropped += 1;
                    return RecvOutcome::Duplicate;
                }
                if self.cfg.fifo {
                    if chan.held.contains_key(&seq) {
                        self.stats.dup_dropped += 1;
                        return RecvOutcome::Duplicate;
                    }
                    chan.held.insert(seq, msg);
                    let mut out = Vec::new();
                    while let Some(m) = chan.held.remove(&chan.low) {
                        out.push(m);
                        chan.low += 1;
                    }
                    if out.is_empty() {
                        self.stats.held_back += 1;
                    }
                    RecvOutcome::Deliver(out)
                } else {
                    if !chan.above.insert(seq) {
                        self.stats.dup_dropped += 1;
                        return RecvOutcome::Duplicate;
                    }
                    while chan.above.remove(&chan.low) {
                        chan.low += 1;
                    }
                    RecvOutcome::Deliver(vec![msg])
                }
            }

            pub fn on_ack(
                &mut self,
                src: u32,
                dst: u32,
                sess: u32,
                seq: u64,
                attempt: u32,
                dup: bool,
            ) -> bool {
                let Some(chan) = self.send.get_mut(&(src / TPH, dst / TPH)) else {
                    return false;
                };
                if sess != chan.sess {
                    return false;
                }
                let Some((_, attempts, _)) = chan.unacked.remove(&seq) else {
                    return false;
                };
                // Copies after the delivering one: the echoed attempt for a
                // fresh delivery, the one before it for a duplicate.
                let first_needless = if dup { attempt.max(2) } else { attempt + 1 };
                self.stats.spurious_retransmits += (first_needless..=attempts).count() as u64;
                true
            }

            pub fn on_timer(
                &mut self,
                host: u32,
                now: Time,
                out: &mut Vec<Resend>,
            ) -> Option<Time> {
                if self.armed.get(&host) != Some(&now) {
                    return None;
                }
                let mut due: Vec<(Time, u32, u64)> = Vec::new();
                for (&(_, dh), chan) in self.send.range((host, 0)..(host + 1, 0)) {
                    for (&seq, &(_, _, d)) in &chan.unacked {
                        if d <= now {
                            due.push((d, dh, seq));
                        }
                    }
                }
                due.sort();
                for (_, dh, seq) in due {
                    let chan = self.send.get_mut(&(host, dh)).expect("link");
                    let (msg, attempts, d) = chan.unacked.get_mut(&seq).expect("live");
                    *attempts += 1;
                    let exp = (*attempts - 1).min(self.cfg.max_backoff_exp);
                    *d = now + Time::from_ps(self.cfg.rto.as_ps() << exp);
                    self.stats.retransmits += 1;
                    self.stats.max_attempts = self.stats.max_attempts.max(*attempts);
                    out.push(Resend {
                        msg: msg.clone(),
                        sess: chan.sess,
                        seq,
                        attempt: *attempts,
                    });
                }
                let next = self
                    .send
                    .range((host, 0)..(host + 1, 0))
                    .flat_map(|(_, c)| c.unacked.values().map(|&(_, _, d)| d))
                    .min();
                match next {
                    Some(t) => self.armed.insert(host, t),
                    None => self.armed.remove(&host),
                };
                next
            }
        }
    }

    /// The transport and the ordered-map reference model agree on every
    /// return value, counter, resend list (order included) and unacked
    /// count through randomized event sequences over 4 hosts of 8 tiles,
    /// driven in time order like the runner drives them: in-order,
    /// reordered, duplicate and stale-session deliveries; out-of-order,
    /// stale and duplicate acks; live, empty and superseded timers; and
    /// host resets over links whose unacked windows have holes. FIFO,
    /// unordered and unreliable configurations all run.
    #[test]
    fn matches_the_ordered_map_reference_model() {
        use cord_sim::DetRng;
        // Summed over cases, so the test proves every path was exercised.
        let mut seen = XportStats::default();
        let mut superseded = 0u64;
        for case in 0..48u64 {
            let mut rng = DetRng::new(0x07EA_50C7).stream(case);
            let cfg = TransportConfig {
                rto: ns(100),
                max_backoff_exp: 3,
                fifo: case % 3 == 1,
                reliable: case % 8 != 7,
            };
            let mut x = transport(cfg);
            let mut r = reference::RefTransport::new(cfg);
            // Copies in the fabric, acks in flight, and armed timers.
            let mut wire: Vec<(u32, u64, u32, Msg)> = Vec::new();
            let mut acks: Vec<(u32, u32, u32, u64, u32, bool)> = Vec::new();
            let mut timers: Vec<(Time, u32)> = Vec::new();
            let (mut now, mut tid) = (Time::ZERO, 0u64);
            let (mut got_out, mut want_out) = (Vec::new(), Vec::new());
            for step in 0..rng.range_usize(200..1500) {
                let ctx = format!("case {case} step {step}");
                now += ns(rng.range_u64(0..40));
                // Timers due by now fire first, in time order.
                timers.sort();
                while timers.first().is_some_and(|&(t, _)| t <= now) {
                    let (t, host) = timers.remove(0);
                    got_out.clear();
                    want_out.clear();
                    // An earlier deadline re-armed the host after this
                    // event was scheduled: the firing must do nothing.
                    let stale = r.armed(host) != Some(t);
                    let got = x.on_timer(host, t, &mut got_out);
                    let want = r.on_timer(host, t, &mut want_out);
                    assert_eq!((got, &got_out), (want, &want_out), "{ctx}: on_timer at {t}");
                    if stale {
                        assert!(got.is_none() && got_out.is_empty(), "{ctx}: stale timer");
                        superseded += 1;
                    }
                    timers.extend(got.map(|t| (t, host)));
                    wire.extend(got_out.drain(..).map(|p| (p.sess, p.seq, p.attempt, p.msg)));
                }
                let pick = |rng: &mut DetRng, n: usize| -> Option<(usize, bool)> {
                    (n > 0).then(|| (rng.range_usize(0..n), rng.chance(0.3)))
                };
                match rng.range_u64(0..100) {
                    0..=34 => {
                        let src = rng.range_u64(0..u64::from(HOSTS * TPH)) as u32;
                        // Few destination hosts per source, so links see runs.
                        let dst = (src
                            + TPH * (1 + rng.range_u64(0..2) as u32)
                            + rng.range_u64(0..3) as u32)
                            % (HOSTS * TPH);
                        tid += 1;
                        let (mut a, mut b) = (msg_from(src, dst, tid), msg_from(src, dst, tid));
                        let (got, want) = (x.wrap(now, &mut a), r.wrap(now, &mut b));
                        assert_eq!((got, &a), (want, &b), "{ctx}: wrap");
                        timers.extend(got.2.map(|t| (t, src / TPH)));
                        wire.push((got.0, got.1, 1, a));
                    }
                    35..=69 => {
                        // Mostly the oldest copy (in order), else any copy
                        // (reordered); sometimes leave it in the fabric so
                        // it arrives again (duplicate, or stale after a
                        // reset).
                        let Some((i, keep)) = pick(&mut rng, wire.len()) else {
                            continue;
                        };
                        let i = if rng.chance(0.5) { 0 } else { i };
                        let (sess, seq, attempt, m) = if keep {
                            wire[i].clone()
                        } else {
                            wire.remove(i)
                        };
                        let (src, dst) = (m.src.tile_flat(), m.dst.tile_flat());
                        let got = x.on_deliver(sess, seq, m.clone());
                        let want = r.on_deliver(sess, seq, m);
                        assert_eq!(got, want, "{ctx}: on_deliver");
                        if got != RecvOutcome::Stale {
                            acks.push((
                                src,
                                dst,
                                sess,
                                seq,
                                attempt,
                                got == RecvOutcome::Duplicate,
                            ));
                        }
                    }
                    70..=94 => {
                        let Some((i, keep)) = pick(&mut rng, acks.len()) else {
                            continue;
                        };
                        let (src, dst, sess, seq, attempt, dup) =
                            if keep { acks[i] } else { acks.swap_remove(i) };
                        let got = x.on_ack(src, dst, sess, seq, attempt, dup);
                        assert_eq!(
                            got,
                            r.on_ack(src, dst, sess, seq, attempt, dup),
                            "{ctx}: on_ack"
                        );
                    }
                    _ => {
                        let host = rng.range_u64(0..u64::from(HOSTS)) as u32;
                        got_out.clear();
                        want_out.clear();
                        let got = x.reset_host(host, now, &mut got_out);
                        let want = r.reset_host(host, now, &mut want_out);
                        assert_eq!((got, &got_out), (want, &want_out), "{ctx}: reset_host");
                        timers.extend(got.map(|t| (t, host)));
                        wire.extend(got_out.drain(..).map(|p| (p.sess, p.seq, p.attempt, p.msg)));
                    }
                }
                assert_eq!(x.stats(), &r.stats, "{ctx}: stats");
                assert_eq!(x.unacked_total(), r.unacked_total(), "{ctx}: unacked_total");
                let want = r.unacked_by_tile(HOSTS * TPH);
                for (src, &n) in (0u32..).zip(&want) {
                    assert_eq!(x.unacked_from(src), n, "{ctx}: src {src}");
                }
            }
            let st = x.stats();
            seen.retransmits += st.retransmits;
            seen.spurious_retransmits += st.spurious_retransmits;
            seen.dup_dropped += st.dup_dropped;
            seen.held_back += st.held_back;
            seen.replayed += st.replayed;
            seen.stale_rejected += st.stale_rejected;
        }
        assert!(
            [
                seen.retransmits,
                seen.spurious_retransmits,
                seen.dup_dropped,
                seen.held_back,
                seen.replayed,
                seen.stale_rejected,
                superseded,
            ]
            .iter()
            .all(|&n| n > 0),
            "a transport path went unexercised: {seen:?}, {superseded} superseded timers"
        );
    }
}
