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
//! Each message is tagged with a per-(source, destination) sequence number
//! costing [`SEQ_BYTES`] on the wire; every delivery is acknowledged with an
//! [`ACK_BYTES`]-sized ack. Retransmission is unbounded, so as long as the
//! fault plan's drop probability is below 1 every message is eventually
//! delivered — termination then rests on the runner's liveness watchdog
//! only for genuine protocol bugs (or `reliable = false`, which disables
//! retransmission and exists to demonstrate exactly that watchdog).
//!
//! The shim is runner-agnostic: it never schedules events itself. The
//! runner calls [`Transport::wrap`] when sending (and schedules the first
//! timeout), [`Transport::on_deliver`] on arrival (sending an ack and
//! delivering whatever the outcome releases), [`Transport::on_ack`] on ack
//! arrival, and [`Transport::on_timeout`] when a retransmission timer fires.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

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
            // Comfortably above one switch round trip (~2 × 150 ns + queuing).
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
    /// Retransmissions the receiver reported as duplicates (the original
    /// had already arrived).
    pub spurious_retransmits: u64,
    /// Duplicate deliveries suppressed at the receiver.
    pub dup_dropped: u64,
    /// Arrivals held back for FIFO reassembly.
    pub held_back: u64,
    /// Highest attempt count observed for any single message.
    pub max_attempts: u32,
    /// Send channels that entered a new session epoch (host transport
    /// resets × channels).
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
}

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

    /// The window slot of `seq`, if it lies inside the window.
    fn slot(&mut self, seq: u64) -> Option<&mut Option<Unacked>> {
        let i = seq.checked_sub(self.base())?;
        self.unacked.get_mut(usize::try_from(i).ok()?)
    }

    /// Retires `seq` if it is still unacked, trimming acknowledged slots
    /// off the window's front.
    fn retire(&mut self, seq: u64) -> Option<Unacked> {
        let u = self.slot(seq)?.take()?;
        while self.unacked.front().is_some_and(Option::is_none) {
            self.unacked.pop_front();
        }
        Some(u)
    }
}

/// Per-source-tile send state: the destinations of its channels (sorted,
/// so resets walk them in `(src, dst)` order) and its unacked total.
#[derive(Debug, Default, Clone)]
struct SrcState {
    dsts: Vec<u32>,
    unacked: usize,
}

/// Hasher for packed `(src, dst)` channel keys: a fixed multiplicative mix,
/// never randomly seeded, so the transport behaves identically in every
/// process.
#[derive(Debug, Default, Clone, Copy)]
struct ChanHasher(u64);

impl Hasher for ChanHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ h >> 32
    }
}

type ChanMap<V> = HashMap<u64, V, BuildHasherDefault<ChanHasher>>;

/// Packs a `(src, dst)` channel into its map key.
fn chan_key(src: u32, dst: u32) -> u64 {
    u64::from(src) << 32 | u64::from(dst)
}

#[derive(Debug, Default, Clone)]
struct RecvChan {
    /// Largest session epoch seen from the sender (the implicit reconnect
    /// handshake: every message carries its session, and the receiver
    /// adopts any newer one on first arrival).
    sess: u32,
    /// Every sequence below this has been delivered (FIFO: in order).
    low: u64,
    /// Delivered sequences at or above `low` (non-FIFO mode).
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

/// One unacked message re-sent into a new session epoch by
/// [`Transport::reset_src_range`]; the runner retransmits it and arms a
/// fresh timeout carrying the new session.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Source tile of the channel.
    pub src: u32,
    /// Destination tile of the channel.
    pub dst: u32,
    /// New session epoch.
    pub sess: u32,
    /// Sequence number (unchanged: the sequence space continues across
    /// sessions so duplicate suppression and FIFO order survive the reset).
    pub seq: u64,
    /// The message (already sized with [`SEQ_BYTES`]).
    pub msg: Msg,
}

/// Per-system transport state: one sender and one receiver channel per
/// ordered (source tile, destination tile) pair. Deterministic by
/// construction — every decision is a pure function of the call sequence.
/// Channels sit in hash maps under a fixed hasher and are never iterated
/// in map order: resets walk each source's sorted destination list, so
/// replays come out in `(src, dst, seq)` order. Unacked copies sit in a
/// sequence-indexed window per channel, and per-source counters make
/// [`Transport::unacked_from`] and [`Transport::unacked_total`] O(1).
#[derive(Debug, Clone)]
pub struct Transport {
    cfg: TransportConfig,
    send: ChanMap<SendChan>,
    recv: ChanMap<RecvChan>,
    /// Indexed by source tile.
    srcs: Vec<SrcState>,
    unacked: usize,
    stats: XportStats,
}

impl Transport {
    /// Creates an idle transport.
    pub fn new(cfg: TransportConfig) -> Self {
        Transport {
            cfg,
            send: ChanMap::default(),
            recv: ChanMap::default(),
            srcs: Vec::new(),
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

    /// Messages awaiting acknowledgment on channels sourced at tile `src`
    /// (the crash-recovery quiesce condition: a core's outbound traffic has
    /// fully drained when this reaches zero).
    pub fn unacked_from(&self, src: u32) -> usize {
        self.srcs.get(src as usize).map_or(0, |s| s.unacked)
    }

    /// Tags `msg` with the next sequence number on the `(src, dst)` channel,
    /// adds [`SEQ_BYTES`] to its wire size, and retains a retransmission
    /// copy. Returns the channel's session epoch and the assigned sequence
    /// number; the runner schedules the first [`Transport::on_timeout`] at
    /// `now + config().rto` (when `reliable`).
    pub fn wrap(&mut self, src: u32, dst: u32, msg: &mut Msg) -> (u32, u64) {
        if self.srcs.len() <= src as usize {
            self.srcs.resize_with(src as usize + 1, SrcState::default);
        }
        let state = &mut self.srcs[src as usize];
        let chan = self.send.entry(chan_key(src, dst)).or_insert_with(|| {
            let at = state.dsts.partition_point(|&d| d < dst);
            state.dsts.insert(at, dst);
            SendChan::default()
        });
        let seq = chan.next_seq;
        chan.next_seq += 1;
        msg.bytes += SEQ_BYTES;
        chan.unacked.push_back(Some(Unacked {
            msg: msg.clone(),
            attempts: 1,
        }));
        state.unacked += 1;
        self.unacked += 1;
        self.stats.sent += 1;
        (chan.sess, seq)
    }

    /// Resets the transport of every source tile in `[src_lo, src_hi)` (a
    /// host's tile range): each of its send channels enters a new session
    /// epoch — in-flight acks and retransmission timers from the old
    /// session become stale, per-message attempt counts reset — and every
    /// unacked message is replayed into the new session under its original
    /// sequence number. Returns the replays for the runner to retransmit.
    pub fn reset_src_range(&mut self, src_lo: u32, src_hi: u32) -> Vec<Replay> {
        let mut out = Vec::new();
        let hi = (src_hi as usize).min(self.srcs.len());
        let lo = (src_lo as usize).min(hi);
        for (src, state) in (src_lo..).zip(&self.srcs[lo..hi]) {
            for &dst in &state.dsts {
                let chan = self
                    .send
                    .get_mut(&chan_key(src, dst))
                    .expect("every listed destination has a channel");
                chan.sess += 1;
                self.stats.sessions_reset += 1;
                let base = chan.base();
                for (seq, slot) in (base..).zip(chan.unacked.iter_mut()) {
                    let Some(u) = slot else { continue };
                    u.attempts = 1;
                    self.stats.replayed += 1;
                    out.push(Replay {
                        src,
                        dst,
                        sess: chan.sess,
                        seq,
                        msg: u.msg.clone(),
                    });
                }
            }
        }
        out
    }

    /// Handles the arrival of sequence `seq` tagged with session `sess` on
    /// the `(src, dst)` channel.
    pub fn on_deliver(&mut self, src: u32, dst: u32, sess: u32, seq: u64, msg: Msg) -> RecvOutcome {
        let chan = self.recv.entry(chan_key(src, dst)).or_default();
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

    /// Handles an acknowledgment of sequence `seq` from session `sess`;
    /// `dup` is the receiver's report that the acknowledged delivery was a
    /// duplicate. Acks from a stale session are ignored — the reset already
    /// replayed the message, so only the new session's delivery may retire
    /// it. Returns `true` if this retired an outstanding message.
    pub fn on_ack(&mut self, src: u32, dst: u32, sess: u32, seq: u64, dup: bool) -> bool {
        let Some(chan) = self.send.get_mut(&chan_key(src, dst)) else {
            return false;
        };
        if sess != chan.sess {
            return false;
        }
        let Some(u) = chan.retire(seq) else {
            return false; // already retired by an earlier ack
        };
        if dup && u.attempts > 1 {
            self.stats.spurious_retransmits += 1;
        }
        self.srcs[src as usize].unacked -= 1;
        self.unacked -= 1;
        true
    }

    /// Handles a retransmission timer for sequence `seq` armed in session
    /// `sess`. Returns the message to retransmit together with its new
    /// attempt count and the backed-off delay until the next timer, or
    /// `None` if the message was acknowledged in the meantime, the timer
    /// belongs to a stale session (a transport reset cancelled it), or
    /// retransmission is disabled.
    pub fn on_timeout(
        &mut self,
        src: u32,
        dst: u32,
        sess: u32,
        seq: u64,
    ) -> Option<(Msg, u32, Time)> {
        if !self.cfg.reliable {
            return None;
        }
        let chan = self.send.get_mut(&chan_key(src, dst))?;
        if sess != chan.sess {
            return None;
        }
        let u = chan.slot(seq)?.as_mut()?;
        u.attempts += 1;
        self.stats.retransmits += 1;
        self.stats.max_attempts = self.stats.max_attempts.max(u.attempts);
        let exp = (u.attempts - 1).min(self.cfg.max_backoff_exp);
        let delay = Time::from_ps(self.cfg.rto.as_ps() << exp);
        Some((u.msg.clone(), u.attempts, delay))
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

    fn msg(tid: u64) -> Msg {
        Msg::new(
            NodeRef::Core(CoreId(0)),
            NodeRef::Dir(DirId(8)),
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

    #[test]
    fn wrap_tags_and_costs_seq_bytes() {
        let mut x = Transport::new(TransportConfig::default());
        let mut m = msg(1);
        let base = m.bytes;
        assert_eq!(x.wrap(0, 8, &mut m), (0, 0));
        assert_eq!(m.bytes, base + SEQ_BYTES);
        let mut m2 = msg(2);
        assert_eq!(x.wrap(0, 8, &mut m2), (0, 1));
        assert_eq!(x.wrap(8, 0, &mut msg(3).clone()), (0, 0)); // independent channel
        assert_eq!(x.unacked_total(), 3);
        assert_eq!(x.stats().sent, 3);
    }

    #[test]
    fn duplicate_deliveries_are_suppressed() {
        let mut x = Transport::new(TransportConfig::default());
        let mut m = msg(1);
        let (_, seq) = x.wrap(0, 8, &mut m);
        assert_eq!(
            x.on_deliver(0, 8, 0, seq, m.clone()),
            RecvOutcome::Deliver(vec![m.clone()])
        );
        assert_eq!(
            x.on_deliver(0, 8, 0, seq, m.clone()),
            RecvOutcome::Duplicate
        );
        assert_eq!(x.on_deliver(0, 8, 0, seq, m), RecvOutcome::Duplicate);
        assert_eq!(x.stats().dup_dropped, 2);
    }

    #[test]
    fn unordered_mode_delivers_immediately_out_of_order() {
        let mut x = Transport::new(TransportConfig::default());
        let (mut a, mut b) = (msg(1), msg(2));
        let (_, s0) = x.wrap(0, 8, &mut a);
        let (_, s1) = x.wrap(0, 8, &mut b);
        // Arrivals reversed: both deliver at once, no hold-back.
        assert_eq!(
            x.on_deliver(0, 8, 0, s1, b.clone()),
            RecvOutcome::Deliver(vec![b])
        );
        assert_eq!(
            x.on_deliver(0, 8, 0, s0, a.clone()),
            RecvOutcome::Deliver(vec![a])
        );
        assert_eq!(x.stats().held_back, 0);
    }

    #[test]
    fn fifo_mode_holds_back_and_releases_in_order() {
        let mut x = Transport::new(TransportConfig {
            fifo: true,
            ..TransportConfig::default()
        });
        let (mut a, mut b, mut c) = (msg(1), msg(2), msg(3));
        let (_, s0) = x.wrap(0, 8, &mut a);
        let (_, s1) = x.wrap(0, 8, &mut b);
        let (_, s2) = x.wrap(0, 8, &mut c);
        assert_eq!(
            x.on_deliver(0, 8, 0, s2, c.clone()),
            RecvOutcome::Deliver(vec![])
        );
        assert_eq!(
            x.on_deliver(0, 8, 0, s1, b.clone()),
            RecvOutcome::Deliver(vec![])
        );
        assert_eq!(x.stats().held_back, 2);
        // The gap fills: everything releases in sequence order.
        assert_eq!(
            x.on_deliver(0, 8, 0, s0, a.clone()),
            RecvOutcome::Deliver(vec![a, b, c])
        );
        // Late duplicate of a held-then-delivered seq is still a duplicate.
        assert_eq!(x.on_deliver(0, 8, 0, s1, msg(2)), RecvOutcome::Duplicate);
    }

    #[test]
    fn ack_retires_and_timeout_backs_off() {
        let cfg = TransportConfig {
            rto: Time::from_ns(100),
            max_backoff_exp: 2,
            ..TransportConfig::default()
        };
        let mut x = Transport::new(cfg);
        let mut m = msg(1);
        let (_, seq) = x.wrap(0, 8, &mut m);
        let (r1, a1, d1) = x.on_timeout(0, 8, 0, seq).unwrap();
        assert_eq!((r1.bytes, a1, d1), (m.bytes, 2, Time::from_ns(200)));
        let (_, a2, d2) = x.on_timeout(0, 8, 0, seq).unwrap();
        assert_eq!((a2, d2), (3, Time::from_ns(400)));
        // Backoff caps at rto << 2.
        let (_, _, d3) = x.on_timeout(0, 8, 0, seq).unwrap();
        assert_eq!(d3, Time::from_ns(400));
        assert!(x.on_ack(0, 8, 0, seq, true));
        assert!(!x.on_ack(0, 8, 0, seq, false)); // stale ack
        assert!(x.on_timeout(0, 8, 0, seq).is_none()); // stale timer
        assert_eq!(x.stats().retransmits, 3);
        assert_eq!(x.stats().spurious_retransmits, 1);
        assert_eq!(x.stats().max_attempts, 4);
        assert_eq!(x.unacked_total(), 0);
    }

    #[test]
    fn unreliable_mode_never_retransmits() {
        let mut x = Transport::new(TransportConfig {
            reliable: false,
            ..TransportConfig::default()
        });
        let mut m = msg(1);
        let (_, seq) = x.wrap(0, 8, &mut m);
        assert!(x.on_timeout(0, 8, 0, seq).is_none());
        assert_eq!(x.stats().retransmits, 0);
    }

    #[test]
    fn session_reset_replays_unacked_and_stales_old_session() {
        let mut x = Transport::new(TransportConfig::default());
        let (mut a, mut b) = (msg(1), msg(2));
        let (_, s0) = x.wrap(0, 8, &mut a);
        let (_, s1) = x.wrap(0, 8, &mut b);
        // First message delivered and acked in session 0; second in flight.
        assert!(matches!(
            x.on_deliver(0, 8, 0, s0, a.clone()),
            RecvOutcome::Deliver(_)
        ));
        assert!(x.on_ack(0, 8, 0, s0, false));
        // Host 0 (tiles 0..8) transport resets.
        let replays = x.reset_src_range(0, 8);
        assert_eq!(replays.len(), 1, "only the unacked message replays");
        let r = &replays[0];
        assert_eq!((r.src, r.dst, r.sess, r.seq), (0, 8, 1, s1));
        assert_eq!(r.msg, b);
        assert_eq!(x.stats().sessions_reset, 1);
        assert_eq!(x.stats().replayed, 1);
        // The old session's retransmission timer is stale (satellite:
        // cancelled RTO timers), as is an old-session ack.
        assert!(x.on_timeout(0, 8, 0, s1).is_none());
        assert!(!x.on_ack(0, 8, 0, s1, false));
        // The replay delivers once under the new session…
        assert_eq!(
            x.on_deliver(0, 8, 1, s1, b.clone()),
            RecvOutcome::Deliver(vec![b.clone()])
        );
        // …after which an old-session in-flight copy (e.g. a pre-reset
        // retransmission still in the fabric) is rejected without acking.
        assert_eq!(x.on_deliver(0, 8, 0, s1, b), RecvOutcome::Stale);
        assert_eq!(x.stats().stale_rejected, 1);
        assert!(x.on_ack(0, 8, 1, s1, false));
        assert_eq!(x.unacked_total(), 0);
        // A second reset of an idle channel still bumps the session.
        assert!(x.reset_src_range(0, 8).is_empty());
        let mut c = msg(3);
        assert_eq!(x.wrap(0, 8, &mut c).0, 2);
    }

    #[test]
    fn session_reset_preserves_dedup_across_sessions() {
        let mut x = Transport::new(TransportConfig::default());
        let mut m = msg(1);
        let (_, seq) = x.wrap(0, 8, &mut m);
        // Delivered in session 0, but the ack is lost: still unacked.
        assert!(matches!(
            x.on_deliver(0, 8, 0, seq, m.clone()),
            RecvOutcome::Deliver(_)
        ));
        let replays = x.reset_src_range(0, 8);
        assert_eq!(replays.len(), 1);
        // The replay arrives under the new session with the same sequence
        // number: the receiver adopts the session and suppresses the dup,
        // so the engine never sees the message twice.
        assert_eq!(x.on_deliver(0, 8, 1, seq, m), RecvOutcome::Duplicate);
        assert!(x.on_ack(0, 8, 1, seq, true));
        assert_eq!(x.unacked_total(), 0);
    }

    #[test]
    fn session_reset_scopes_to_the_host_tile_range() {
        let mut x = Transport::new(TransportConfig::default());
        let (mut a, mut b) = (msg(1), msg(2));
        x.wrap(0, 8, &mut a); // host 0 tile
        x.wrap(9, 0, &mut b); // host 1 tile
        assert_eq!(x.unacked_from(0), 1);
        assert_eq!(x.unacked_from(9), 1);
        let replays = x.reset_src_range(0, 8);
        assert_eq!(replays.len(), 1);
        assert_eq!(replays[0].src, 0);
        // Host 1's channel kept its session and timers.
        assert!(x.on_timeout(9, 0, 0, 0).is_some());
        assert_eq!(x.wrap(9, 0, &mut msg(4).clone()).0, 0);
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

    /// The ordered-map transport this module's channel state replaced,
    /// kept as the reference model for the differential test below.
    mod reference {
        use std::collections::{BTreeMap, BTreeSet};

        use super::super::{RecvOutcome, Replay, TransportConfig, XportStats, SEQ_BYTES};
        use crate::msg::Msg;
        use cord_sim::Time;

        #[derive(Default)]
        struct SendChan {
            sess: u32,
            next_seq: u64,
            unacked: BTreeMap<u64, (Msg, u32)>,
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
            pub stats: XportStats,
        }

        impl RefTransport {
            pub fn new(cfg: TransportConfig) -> Self {
                RefTransport {
                    cfg,
                    send: BTreeMap::new(),
                    recv: BTreeMap::new(),
                    stats: XportStats::default(),
                }
            }

            pub fn unacked_total(&self) -> usize {
                self.send.values().map(|c| c.unacked.len()).sum()
            }

            pub fn unacked_from(&self, src: u32) -> usize {
                self.send
                    .range((src, 0)..(src + 1, 0))
                    .map(|(_, c)| c.unacked.len())
                    .sum()
            }

            pub fn wrap(&mut self, src: u32, dst: u32, msg: &mut Msg) -> (u32, u64) {
                let chan = self.send.entry((src, dst)).or_default();
                let seq = chan.next_seq;
                chan.next_seq += 1;
                msg.bytes += SEQ_BYTES;
                chan.unacked.insert(seq, (msg.clone(), 1));
                self.stats.sent += 1;
                (chan.sess, seq)
            }

            pub fn reset_src_range(&mut self, src_lo: u32, src_hi: u32) -> Vec<Replay> {
                let mut out = Vec::new();
                for (&(src, dst), chan) in self.send.range_mut((src_lo, 0)..(src_hi, 0)) {
                    chan.sess += 1;
                    self.stats.sessions_reset += 1;
                    for (&seq, (msg, attempts)) in chan.unacked.iter_mut() {
                        *attempts = 1;
                        self.stats.replayed += 1;
                        out.push(Replay {
                            src,
                            dst,
                            sess: chan.sess,
                            seq,
                            msg: msg.clone(),
                        });
                    }
                }
                out
            }

            pub fn on_deliver(
                &mut self,
                src: u32,
                dst: u32,
                sess: u32,
                seq: u64,
                msg: Msg,
            ) -> RecvOutcome {
                let chan = self.recv.entry((src, dst)).or_default();
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

            pub fn on_ack(&mut self, src: u32, dst: u32, sess: u32, seq: u64, dup: bool) -> bool {
                let Some(chan) = self.send.get_mut(&(src, dst)) else {
                    return false;
                };
                if sess != chan.sess {
                    return false;
                }
                match chan.unacked.remove(&seq) {
                    Some((_, attempts)) => {
                        if dup && attempts > 1 {
                            self.stats.spurious_retransmits += 1;
                        }
                        true
                    }
                    None => false,
                }
            }

            pub fn on_timeout(
                &mut self,
                src: u32,
                dst: u32,
                sess: u32,
                seq: u64,
            ) -> Option<(Msg, u32, Time)> {
                if !self.cfg.reliable {
                    return None;
                }
                let chan = self.send.get_mut(&(src, dst))?;
                if sess != chan.sess {
                    return None;
                }
                let (msg, attempts) = chan.unacked.get_mut(&seq)?;
                *attempts += 1;
                self.stats.retransmits += 1;
                self.stats.max_attempts = self.stats.max_attempts.max(*attempts);
                let exp = (*attempts - 1).min(self.cfg.max_backoff_exp);
                let delay = Time::from_ps(self.cfg.rto.as_ps() << exp);
                Some((msg.clone(), *attempts, delay))
            }
        }
    }

    /// The transport and the ordered-map reference model agree on every
    /// return value, counter, replay list (order included) and unacked
    /// count through randomized call sequences over 4 hosts of 2 source
    /// tiles each: in-order, reordered, duplicate and stale-session
    /// deliveries; out-of-order, stale and duplicate acks; live and stale
    /// timeouts; and host resets over channels whose unacked windows have
    /// holes. FIFO, unordered and unreliable configurations all run.
    #[test]
    fn matches_the_ordered_map_reference_model() {
        use cord_sim::DetRng;
        const TILES: u32 = 8;
        const TILES_PER_HOST: u32 = 2;
        // Summed over cases, so the test proves every path was exercised.
        let mut seen = XportStats::default();
        for case in 0..48u64 {
            let mut rng = DetRng::new(0x07EA_50C7).stream(case);
            let cfg = TransportConfig {
                fifo: case % 3 == 1,
                reliable: case % 8 != 7,
                ..TransportConfig::default()
            };
            let mut x = Transport::new(cfg);
            let mut r = reference::RefTransport::new(cfg);
            // Copies in the fabric, acks in flight, and armed timers.
            let mut wire: Vec<(u32, u32, u32, u64, Msg)> = Vec::new();
            let mut acks: Vec<(u32, u32, u32, u64, bool)> = Vec::new();
            let mut timers: Vec<(u32, u32, u32, u64)> = Vec::new();
            let mut tid = 0u64;
            for step in 0..rng.range_usize(200..1500) {
                let ctx = format!("case {case} step {step}");
                let pick = |rng: &mut DetRng, n: usize, keep: bool| -> Option<(usize, bool)> {
                    (n > 0).then(|| (rng.range_usize(0..n), keep && rng.chance(0.3)))
                };
                match rng.range_u64(0..100) {
                    0..=29 => {
                        let src = rng.range_u64(0..u64::from(TILES)) as u32;
                        // Few destinations per source, so channels see runs.
                        let dst = (src + 1 + rng.range_u64(0..3) as u32) % TILES;
                        tid += 1;
                        let (mut a, mut b) = (msg(tid), msg(tid));
                        let (got, want) = (x.wrap(src, dst, &mut a), r.wrap(src, dst, &mut b));
                        assert_eq!((got, &a), (want, &b), "{ctx}: wrap");
                        wire.push((src, dst, got.0, got.1, a));
                        timers.push((src, dst, got.0, got.1));
                    }
                    30..=59 => {
                        // Mostly the oldest copy (in order), else any copy
                        // (reordered); sometimes leave it in the fabric so
                        // it arrives again (duplicate, or stale after a
                        // reset).
                        let Some((i, keep)) = pick(&mut rng, wire.len(), true) else {
                            continue;
                        };
                        let i = if rng.chance(0.5) { 0 } else { i };
                        let (src, dst, sess, seq, m) = if keep {
                            wire[i].clone()
                        } else {
                            wire.remove(i)
                        };
                        let got = x.on_deliver(src, dst, sess, seq, m.clone());
                        let want = r.on_deliver(src, dst, sess, seq, m);
                        assert_eq!(got, want, "{ctx}: on_deliver");
                        if got != RecvOutcome::Stale {
                            acks.push((src, dst, sess, seq, got == RecvOutcome::Duplicate));
                        }
                    }
                    60..=79 => {
                        let Some((i, keep)) = pick(&mut rng, acks.len(), true) else {
                            continue;
                        };
                        let (src, dst, sess, seq, dup) =
                            if keep { acks[i] } else { acks.swap_remove(i) };
                        let got = x.on_ack(src, dst, sess, seq, dup);
                        assert_eq!(got, r.on_ack(src, dst, sess, seq, dup), "{ctx}: on_ack");
                    }
                    80..=94 => {
                        let Some((i, _)) = pick(&mut rng, timers.len(), false) else {
                            continue;
                        };
                        let (src, dst, sess, seq) = timers.swap_remove(i);
                        let got = x.on_timeout(src, dst, sess, seq);
                        assert_eq!(got, r.on_timeout(src, dst, sess, seq), "{ctx}: on_timeout");
                        if let Some((m, _, _)) = got {
                            wire.push((src, dst, sess, seq, m));
                            timers.push((src, dst, sess, seq));
                        }
                    }
                    _ => {
                        let host = rng.range_u64(0..u64::from(TILES / TILES_PER_HOST)) as u32;
                        let (lo, hi) = (host * TILES_PER_HOST, (host + 1) * TILES_PER_HOST);
                        let got = x.reset_src_range(lo, hi);
                        assert_eq!(got, r.reset_src_range(lo, hi), "{ctx}: reset_src_range");
                        for p in got {
                            wire.push((p.src, p.dst, p.sess, p.seq, p.msg));
                            timers.push((p.src, p.dst, p.sess, p.seq));
                        }
                    }
                }
                assert_eq!(x.stats(), &r.stats, "{ctx}: stats");
                assert_eq!(x.unacked_total(), r.unacked_total(), "{ctx}: unacked_total");
                for src in 0..TILES + 1 {
                    assert_eq!(x.unacked_from(src), r.unacked_from(src), "{ctx}: src {src}");
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
            ]
            .iter()
            .all(|&n| n > 0),
            "a transport path went unexercised: {seen:?}"
        );
    }
}
