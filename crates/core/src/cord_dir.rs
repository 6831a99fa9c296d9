//! CORD directory-side engine (paper Algorithm 2 + §4.2/§4.3).
//!
//! The directory commits Relaxed stores immediately, counting them per
//! (processor, epoch). A Release store commits only when
//!
//! 1. its embedded store counter matches the directory's count for that
//!    (processor, epoch) — all Relaxed stores of the epoch homed here have
//!    arrived;
//! 2. the processor's last prior unacknowledged epoch (Release to this same
//!    directory) has committed — Release-Release ordering; and
//! 3. all inter-directory notifications have been collected — every pending
//!    directory has committed its share of the epoch.
//!
//! A *request-for-notification* from a processor similarly waits for
//! conditions (1) and (2), then notifies the Release store's destination
//! directory directly — the processor is never involved (paper Fig. 5).
//!
//! Requests that cannot yet be satisfied are recycled in a network buffer
//! whose occupancy is tracked (paper Fig. 12); committed state reclaims its
//! lookup-table entries exactly as §4.3 prescribes.

use cord_sim::trace::TraceData;
use cord_sim::Time;

use cord_mem::Addr;
use cord_proto::{
    CoreId, DirCtx, DirId, DirProtocol, DirStorage, Msg, MsgKind, NodeRef, StoreOrd, SystemConfig,
    WtMeta,
};

use crate::tables::LookupTable;

/// Bytes per directory store-counter entry (2 B (proc, epoch) tag + 4 B).
pub const DIR_CNT_ENTRY_BYTES: u64 = 6;
/// Bytes per notification-counter entry (2 B tag + 2 B counter).
pub const DIR_NOTI_ENTRY_BYTES: u64 = 4;
/// Bytes per largest-committed-epoch entry (1 B proc tag + 1 B epoch).
pub const DIR_LARGEST_ENTRY_BYTES: u64 = 2;

#[derive(Debug, Clone)]
struct HeldRelease {
    src: CoreId,
    tid: u64,
    addr: Addr,
    bytes: u32,
    value: u64,
    ep: u64,
    cnt: u64,
    last_prev_ep: Option<u64>,
    noti_cnt: u32,
    wire_bytes: u64,
    /// `Some(addend)` for Release atomics: commit performs the RMW and the
    /// response carries both the old value and the acknowledgment.
    atomic: Option<u64>,
    /// Recovery re-issue after a directory crash: the issuing core has
    /// quiesced all in-flight stores, so the wiped store and notification
    /// counts are conservatively waived (Release-Release ordering is not).
    recover: bool,
}

#[derive(Debug, Clone)]
struct HeldReqNotify {
    core: CoreId,
    ep: u64,
    relaxed_cnt: u64,
    last_unacked_ep: Option<u64>,
    noti_dst: DirId,
    wire_bytes: u64,
    /// Recovery re-issue: the store-count claim is waived (see above).
    recover: bool,
}

/// The held requests a state change can have made ready (see
/// [`CordDir::progress`]).
#[derive(Debug, Clone, Copy)]
enum Wake {
    /// Every request (a directory wake).
    All,
    /// One processor's requests: its largest committed epoch moved.
    Proc(u32),
    /// One processor epoch's requests: only that epoch's store or
    /// notification count moved.
    Epoch(u32, u64),
}

impl Wake {
    fn covers(self, core: CoreId, ep: u64) -> bool {
        match self {
            Wake::All => true,
            Wake::Proc(p) => p == core.0,
            Wake::Epoch(p, e) => p == core.0 && e == ep,
        }
    }

    /// The wake after a commit or a satisfied notification request, which
    /// can move the processor's largest epoch or reclaim its counts.
    fn widen(self) -> Wake {
        match self {
            Wake::Epoch(p, _) => Wake::Proc(p),
            w => w,
        }
    }
}

/// Directory-side CORD engine.
#[derive(Debug)]
pub struct CordDir {
    id: DirId,
    llc_access: Time,
    /// Relaxed stores committed per (processor, epoch) — Cnt[PID, Ep].
    cnt: LookupTable<(u32, u64), u64>,
    /// Notifications collected per (processor, epoch) — notiCnt[PID, Ep].
    noti: LookupTable<(u32, u64), u32>,
    /// Largest committed epoch per processor — largestEp[PID].
    largest: LookupTable<u32, u64>,
    held_rel: Vec<HeldRelease>,
    held_rfn: Vec<HeldReqNotify>,
    buf_bytes: u64,
    peak_buf_bytes: u64,
    /// Committed Release stores (diagnostics).
    releases_committed: u64,
}

impl CordDir {
    /// Creates the engine for directory `id` under `cfg`.
    pub fn new(id: DirId, cfg: &SystemConfig) -> Self {
        let procs = cfg.total_tiles() as usize;
        CordDir {
            id,
            llc_access: cfg.costs.llc_access,
            cnt: LookupTable::new(cfg.tables.dir_cnt_per_proc * procs, DIR_CNT_ENTRY_BYTES),
            noti: LookupTable::new(cfg.tables.dir_noti_per_proc * procs, DIR_NOTI_ENTRY_BYTES),
            largest: LookupTable::new(procs, DIR_LARGEST_ENTRY_BYTES),
            held_rel: Vec::new(),
            held_rfn: Vec::new(),
            buf_bytes: 0,
            peak_buf_bytes: 0,
            releases_committed: 0,
        }
    }

    /// Number of Release stores committed here (diagnostics/tests).
    pub fn releases_committed(&self) -> u64 {
        self.releases_committed
    }

    /// Current network-buffer occupancy in bytes (diagnostics/tests).
    pub fn buffered_bytes(&self) -> u64 {
        self.buf_bytes
    }

    /// Crash-resets the directory controller: wipes all volatile ordering
    /// state (store counters, notification counters, recycled requests).
    /// The largest-committed-epoch table survives — it is the durable
    /// summary that lets the directory recognise and drop stale re-issues
    /// of already-committed Release stores, preventing double commits.
    /// Returns the number of discarded entries (for the crash trace).
    pub fn crash_reset(&mut self) -> u32 {
        let units = self.cnt.len() + self.noti.len() + self.held_rel.len() + self.held_rfn.len();
        self.cnt.clear();
        self.noti.clear();
        self.held_rel.clear();
        self.held_rfn.clear();
        self.buf_bytes = 0;
        units as u32
    }

    /// Whether a Release/ReqNotify/Notify for `(core, ep)` is a stale
    /// duplicate: a Release with that epoch already committed here, so the
    /// original acknowledgment is in flight (transport state survives
    /// directory crashes) and the duplicate must be dropped without reply.
    fn stale_epoch(&self, core: u32, ep: u64) -> bool {
        self.largest.get(&core).is_some_and(|&l| l >= ep)
    }

    fn epoch_committed(&self, core: u32, ep: Option<u64>) -> bool {
        match ep {
            None => true,
            Some(e) => self.largest.get(&core).is_some_and(|&l| l >= e),
        }
    }

    fn relaxed_count(&self, core: u32, ep: u64) -> u64 {
        self.cnt.get(&(core, ep)).copied().unwrap_or(0)
    }

    /// Whether Release `r` may commit now. Every condition is keyed by
    /// `r`'s processor (see [`CordDir::progress`]).
    fn release_ready(&self, r: &HeldRelease) -> bool {
        let pid = r.src.0;
        // A recovery re-issue waives the store-count and notification checks:
        // the issuing core quiesced every in-flight store before re-issuing
        // (conservative re-fence) and serialises re-issues oldest-epoch-first,
        // so the wiped counters are conservatively satisfied. Release-Release
        // ordering (`prev_ok`) is still enforced against the surviving
        // largest-committed-epoch table.
        let cnt_ok = r.recover || self.relaxed_count(pid, r.ep) == r.cnt;
        let prev_ok = self.epoch_committed(pid, r.last_prev_ep);
        // `>=`, not `==`: recovery can duplicate notifications when both the
        // original and the re-issued ReqNotify produce one.
        let noti_ok = r.recover || self.noti.get(&(pid, r.ep)).copied().unwrap_or(0) >= r.noti_cnt;
        cnt_ok && prev_ok && noti_ok
    }

    /// Whether request-for-notification `r` may be satisfied now.
    fn reqnotify_ready(&self, r: &HeldReqNotify) -> bool {
        let pid = r.core.0;
        // Recovery re-issues waive the (wiped) store-count claim; the
        // last-unacked-epoch gate is kept so notifications never race ahead
        // of earlier Release stores homed here.
        let cnt_ok = r.recover || self.relaxed_count(pid, r.ep) == r.relaxed_cnt;
        cnt_ok && self.epoch_committed(pid, r.last_unacked_ep)
    }

    /// Tries to commit a Release store; returns whether it committed.
    fn try_release(&mut self, r: &HeldRelease, ctx: &mut DirCtx<'_>) -> bool {
        if !self.release_ready(r) {
            return false;
        }
        let pid = r.src.0;
        let mut atomic_old = None;
        if let Some(add) = r.atomic {
            atomic_old = Some(ctx.mem.fetch_add(r.addr, add));
        } else if r.bytes > 0 {
            ctx.mem.store(r.addr, r.value);
        }
        let new_largest = self.largest.get(&pid).map_or(r.ep, |&l| l.max(r.ep));
        let ok = self.largest.try_insert(pid, new_largest);
        debug_assert!(ok, "largest-epoch table sized one entry per processor");
        // Reclaim per-epoch entries (paper §4.3).
        self.cnt.remove(&(pid, r.ep));
        self.noti.remove(&(pid, r.ep));
        self.releases_committed += 1;
        ctx.trace(|| TraceData::StoreCommit {
            dir: self.id.0,
            core: pid,
            tid: r.tid,
            addr: r.addr.raw(),
            release: true,
            epoch: Some(r.ep),
        });
        ctx.trace(|| TraceData::TableEvict {
            node: "dir",
            id: self.id.0,
            table: "cnt",
            occ: self.cnt.len() as u64,
            cap: self.cnt.capacity() as u64,
        });
        ctx.trace(|| TraceData::TableEvict {
            node: "dir",
            id: self.id.0,
            table: "noti",
            occ: self.noti.len() as u64,
            cap: self.noti.capacity() as u64,
        });
        let reply = match atomic_old {
            Some(old) => MsgKind::AtomicResp {
                tid: r.tid,
                old,
                epoch: Some(r.ep),
            },
            None => MsgKind::WtAck {
                tid: r.tid,
                epoch: Some(r.ep),
            },
        };
        ctx.send_after(
            self.llc_access,
            Msg::new(NodeRef::Dir(self.id), NodeRef::Core(r.src), reply),
        );
        true
    }

    /// Tries to satisfy a request-for-notification; returns whether the
    /// notification was sent.
    fn try_reqnotify(&mut self, r: &HeldReqNotify, ctx: &mut DirCtx<'_>) -> bool {
        if !self.reqnotify_ready(r) {
            return false;
        }
        // Reclaim the store-counter entry once the notification is sent.
        self.cnt.remove(&(r.core.0, r.ep));
        ctx.trace(|| TraceData::TableEvict {
            node: "dir",
            id: self.id.0,
            table: "cnt",
            occ: self.cnt.len() as u64,
            cap: self.cnt.capacity() as u64,
        });
        ctx.send_after(
            self.llc_access,
            Msg::new(
                NodeRef::Dir(self.id),
                NodeRef::Dir(r.noti_dst),
                MsgKind::Notify {
                    core: r.core,
                    ep: r.ep,
                },
            ),
        );
        true
    }

    /// Re-examines recycled requests until a fixpoint: one commit can
    /// unblock chained Releases and notifications.
    ///
    /// Everything a held request waits on is keyed by its processor, and
    /// the counts by its epoch too, so a request `wake` does not cover
    /// cannot have become ready: it is skipped in place. A commit moves its
    /// processor's largest epoch, so after any advance the wake widens to
    /// the whole processor. The scan and `swap_remove` order, and with them
    /// the commit order, stay those of a full scan, in which the skipped
    /// requests would fail their checks.
    fn progress(&mut self, mut wake: Wake, ctx: &mut DirCtx<'_>) {
        loop {
            let mut advanced = false;
            let mut i = 0;
            while i < self.held_rel.len() {
                let h = &self.held_rel[i];
                if !wake.covers(h.src, h.ep) {
                    i += 1;
                    continue;
                }
                let r = self.held_rel[i].clone();
                if self.stale_epoch(r.src.0, r.ep) {
                    // A duplicate of an already-committed Release (its
                    // recovery re-issue or its wiped original): drop without
                    // a second acknowledgment or memory commit.
                    self.buf_bytes -= r.wire_bytes;
                    self.held_rel.swap_remove(i);
                    ctx.trace(|| TraceData::StaleDrop {
                        dir: self.id.0,
                        core: r.src.0,
                        ep: r.ep,
                        what: "held_rel",
                    });
                    self.trace_netbuf_evict(ctx);
                    advanced = true;
                } else if self.try_release(&r, ctx) {
                    self.buf_bytes -= r.wire_bytes;
                    self.held_rel.swap_remove(i);
                    self.trace_netbuf_evict(ctx);
                    advanced = true;
                    wake = wake.widen();
                } else {
                    i += 1;
                }
            }
            let mut j = 0;
            while j < self.held_rfn.len() {
                let h = &self.held_rfn[j];
                if !wake.covers(h.core, h.ep) {
                    j += 1;
                    continue;
                }
                let r = self.held_rfn[j].clone();
                if self.try_reqnotify(&r, ctx) {
                    self.buf_bytes -= r.wire_bytes;
                    self.held_rfn.swap_remove(j);
                    self.trace_netbuf_evict(ctx);
                    advanced = true;
                    wake = wake.widen();
                } else {
                    j += 1;
                }
            }
            if !advanced {
                break;
            }
        }
    }

    /// The processor of a held request that could advance now, if any: the
    /// full-scan oracle for [`CordDir::progress`]'s narrowed wakes.
    fn ready_held(&self) -> Option<u32> {
        let rel = self
            .held_rel
            .iter()
            .find(|r| self.stale_epoch(r.src.0, r.ep) || self.release_ready(r));
        rel.map(|r| r.src.0).or_else(|| {
            let rfn = self.held_rfn.iter().find(|r| self.reqnotify_ready(r));
            rfn.map(|r| r.core.0)
        })
    }

    fn hold_release(&mut self, r: HeldRelease, ctx: &mut DirCtx<'_>) {
        self.buf_bytes += r.wire_bytes;
        self.peak_buf_bytes = self.peak_buf_bytes.max(self.buf_bytes);
        self.held_rel.push(r);
        self.trace_netbuf_insert(ctx);
    }

    fn hold_reqnotify(&mut self, r: HeldReqNotify, ctx: &mut DirCtx<'_>) {
        self.buf_bytes += r.wire_bytes;
        self.peak_buf_bytes = self.peak_buf_bytes.max(self.buf_bytes);
        self.held_rfn.push(r);
        self.trace_netbuf_insert(ctx);
    }

    /// Traces network-buffer occupancy (in bytes; the buffer is unbounded, so
    /// capacity is reported as 0).
    fn trace_netbuf_insert(&self, ctx: &mut DirCtx<'_>) {
        ctx.trace(|| TraceData::TableInsert {
            node: "dir",
            id: self.id.0,
            table: "netbuf",
            occ: self.buf_bytes,
            cap: 0,
        });
    }

    fn trace_netbuf_evict(&self, ctx: &mut DirCtx<'_>) {
        ctx.trace(|| TraceData::TableEvict {
            node: "dir",
            id: self.id.0,
            table: "netbuf",
            occ: self.buf_bytes,
            cap: 0,
        });
    }
}

impl DirProtocol for CordDir {
    fn on_msg(&mut self, msg: Msg, ctx: &mut DirCtx<'_>) {
        match msg.kind {
            MsgKind::WtStore {
                tid,
                addr,
                bytes,
                value,
                ord,
                meta,
                needs_ack,
            } => match meta {
                WtMeta::Epoch { ep } => {
                    debug_assert_eq!(ord, StoreOrd::Relaxed);
                    debug_assert!(!needs_ack);
                    let pid = match msg.src {
                        NodeRef::Core(c) => c.0,
                        other => panic!("CordDir: store from {other:?}"),
                    };
                    // Commit immediately and count (Algorithm 2 lines 19-20).
                    ctx.mem.store(addr, value);
                    match self.cnt.get_or_insert_with((pid, ep), || 0) {
                        Some(c) => *c += 1,
                        None => panic!(
                            "CordDir {}: store-counter table overflow — the \
                             processor-side provisioning check must prevent this",
                            self.id.0
                        ),
                    }
                    ctx.trace(|| TraceData::StoreCommit {
                        dir: self.id.0,
                        core: pid,
                        tid,
                        addr: addr.raw(),
                        release: false,
                        epoch: Some(ep),
                    });
                    ctx.trace(|| TraceData::TableInsert {
                        node: "dir",
                        id: self.id.0,
                        table: "cnt",
                        occ: self.cnt.len() as u64,
                        cap: self.cnt.capacity() as u64,
                    });
                    self.progress(Wake::Epoch(pid, ep), ctx);
                }
                WtMeta::Release {
                    ep,
                    cnt,
                    last_prev_ep,
                    noti_cnt,
                    recover,
                } => {
                    debug_assert_eq!(ord, StoreOrd::Release);
                    let src = match msg.src {
                        NodeRef::Core(c) => c,
                        other => panic!("CordDir: store from {other:?}"),
                    };
                    if self.stale_epoch(src.0, ep) {
                        // Already committed before a crash wiped the held
                        // copy; the original acknowledgment is still in
                        // flight. Drop silently — no second ack or commit.
                        ctx.trace(|| TraceData::StaleDrop {
                            dir: self.id.0,
                            core: src.0,
                            ep,
                            what: "release",
                        });
                        return;
                    }
                    let r = HeldRelease {
                        src,
                        tid,
                        addr,
                        bytes,
                        value,
                        ep,
                        cnt,
                        last_prev_ep,
                        noti_cnt,
                        wire_bytes: msg.bytes,
                        atomic: None,
                        recover,
                    };
                    if self.try_release(&r, ctx) {
                        self.progress(Wake::Proc(src.0), ctx);
                    } else {
                        self.hold_release(r, ctx);
                    }
                }
                other => panic!("CordDir: store with foreign metadata {other:?}"),
            },
            MsgKind::AtomicReq {
                tid,
                addr,
                add,
                ord,
                meta,
            } => {
                let src = match msg.src {
                    NodeRef::Core(c) => c,
                    other => panic!("CordDir: atomic from {other:?}"),
                };
                match meta {
                    WtMeta::Epoch { ep } => {
                        debug_assert_eq!(ord, StoreOrd::Relaxed);
                        // Relaxed atomic: committed and counted immediately
                        // (Algorithm 2 lines 19-20), value returned.
                        let old = ctx.mem.fetch_add(addr, add);
                        match self.cnt.get_or_insert_with((src.0, ep), || 0) {
                            Some(c) => *c += 1,
                            None => panic!("CordDir {}: store-counter table overflow", self.id.0),
                        }
                        ctx.trace(|| TraceData::StoreCommit {
                            dir: self.id.0,
                            core: src.0,
                            tid,
                            addr: addr.raw(),
                            release: false,
                            epoch: Some(ep),
                        });
                        ctx.trace(|| TraceData::TableInsert {
                            node: "dir",
                            id: self.id.0,
                            table: "cnt",
                            occ: self.cnt.len() as u64,
                            cap: self.cnt.capacity() as u64,
                        });
                        ctx.send_after(
                            self.llc_access,
                            Msg::new(
                                NodeRef::Dir(self.id),
                                NodeRef::Core(src),
                                MsgKind::AtomicResp {
                                    tid,
                                    old,
                                    epoch: None,
                                },
                            ),
                        );
                        self.progress(Wake::Epoch(src.0, ep), ctx);
                    }
                    WtMeta::Release {
                        ep,
                        cnt,
                        last_prev_ep,
                        noti_cnt,
                        recover,
                    } => {
                        if self.stale_epoch(src.0, ep) {
                            // The atomic already committed (and its response
                            // is in flight): dropping the duplicate is what
                            // keeps the read-modify-write exactly-once.
                            ctx.trace(|| TraceData::StaleDrop {
                                dir: self.id.0,
                                core: src.0,
                                ep,
                                what: "atomic",
                            });
                            return;
                        }
                        let r = HeldRelease {
                            src,
                            tid,
                            addr,
                            bytes: 8,
                            value: 0,
                            ep,
                            cnt,
                            last_prev_ep,
                            noti_cnt,
                            wire_bytes: msg.bytes,
                            atomic: Some(add),
                            recover,
                        };
                        if self.try_release(&r, ctx) {
                            self.progress(Wake::Proc(src.0), ctx);
                        } else {
                            self.hold_release(r, ctx);
                        }
                    }
                    other => panic!("CordDir: atomic with foreign metadata {other:?}"),
                }
            }
            MsgKind::ReqNotify {
                core,
                ep,
                relaxed_cnt,
                last_unacked_ep,
                noti_dst,
                recover,
            } => {
                if recover {
                    // The re-issue supersedes any held original (whose
                    // store-count claim can never match the wiped counters):
                    // purge duplicates so exactly one notification is owed.
                    let mut k = 0;
                    while k < self.held_rfn.len() {
                        let h = &self.held_rfn[k];
                        if h.core == core && h.ep == ep && h.noti_dst == noti_dst {
                            let h = self.held_rfn.swap_remove(k);
                            self.buf_bytes -= h.wire_bytes;
                            ctx.trace(|| TraceData::StaleDrop {
                                dir: self.id.0,
                                core: core.0,
                                ep,
                                what: "held_rfn",
                            });
                            self.trace_netbuf_evict(ctx);
                        } else {
                            k += 1;
                        }
                    }
                }
                let r = HeldReqNotify {
                    core,
                    ep,
                    relaxed_cnt,
                    last_unacked_ep,
                    noti_dst,
                    wire_bytes: msg.bytes,
                    recover,
                };
                if !self.try_reqnotify(&r, ctx) {
                    self.hold_reqnotify(r, ctx);
                }
            }
            MsgKind::Notify { core, ep } => {
                if self.stale_epoch(core.0, ep) {
                    // The Release this notification feeds already committed
                    // (a recovery waiver or a duplicate path): counting it
                    // would leak a notification-table entry forever.
                    ctx.trace(|| TraceData::StaleDrop {
                        dir: self.id.0,
                        core: core.0,
                        ep,
                        what: "notify",
                    });
                    return;
                }
                match self.noti.get_or_insert_with((core.0, ep), || 0) {
                    Some(n) => *n += 1,
                    None => panic!(
                        "CordDir {}: notification-counter table overflow — the \
                         processor-side provisioning check must prevent this",
                        self.id.0
                    ),
                }
                ctx.trace(|| TraceData::NotifyArrive {
                    dir: self.id.0,
                    core: core.0,
                    epoch: ep,
                });
                ctx.trace(|| TraceData::TableInsert {
                    node: "dir",
                    id: self.id.0,
                    table: "noti",
                    occ: self.noti.len() as u64,
                    cap: self.noti.capacity() as u64,
                });
                self.progress(Wake::Epoch(core.0, ep), ctx);
            }
            MsgKind::ReadReq { tid, addr, bytes } => {
                let value = ctx.mem.load(addr);
                ctx.send_after(
                    self.llc_access,
                    Msg::new(
                        NodeRef::Dir(self.id),
                        msg.src,
                        MsgKind::ReadResp { tid, value, bytes },
                    ),
                );
            }
            other => panic!("CordDir: unexpected message {other:?}"),
        }
        // `progress` wakes only the requests a message can have unblocked,
        // which matches a full scan only while no other one is ready.
        debug_assert_eq!(
            self.ready_held(),
            None,
            "CordDir {}: a held request of this processor is ready but unwoken",
            self.id.0
        );
    }

    fn retry(&mut self, ctx: &mut DirCtx<'_>) {
        self.progress(Wake::All, ctx);
    }

    fn storage(&self) -> DirStorage {
        DirStorage {
            peak_lut_bytes: self.cnt.peak_bytes()
                + self.noti.peak_bytes()
                + self.largest.peak_bytes(),
            peak_buf_bytes: self.peak_buf_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_mem::Memory;
    use cord_proto::{DirEffect, ProtocolKind, SystemConfig};

    fn cfg() -> SystemConfig {
        SystemConfig::cxl(ProtocolKind::Cord, 2)
    }

    fn relaxed(ep: u64, addr: u64, value: u64) -> Msg {
        Msg::new(
            NodeRef::Core(CoreId(0)),
            NodeRef::Dir(DirId(0)),
            MsgKind::WtStore {
                tid: 0,
                addr: Addr::new(addr),
                bytes: 8,
                value,
                ord: StoreOrd::Relaxed,
                meta: WtMeta::Epoch { ep },
                needs_ack: false,
            },
        )
    }

    fn release(
        ep: u64,
        cnt: u64,
        last_prev: Option<u64>,
        noti_cnt: u32,
        addr: u64,
        value: u64,
    ) -> Msg {
        Msg::new(
            NodeRef::Core(CoreId(0)),
            NodeRef::Dir(DirId(0)),
            MsgKind::WtStore {
                tid: 100 + ep,
                addr: Addr::new(addr),
                bytes: 8,
                value,
                ord: StoreOrd::Release,
                meta: WtMeta::Release {
                    ep,
                    cnt,
                    last_prev_ep: last_prev,
                    noti_cnt,
                    recover: false,
                },
                needs_ack: true,
            },
        )
    }

    struct Rig {
        dir: CordDir,
        mem: Memory,
        out: Vec<Msg>,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                dir: CordDir::new(DirId(0), &cfg()),
                mem: Memory::new(),
                out: Vec::new(),
            }
        }

        fn deliver(&mut self, msg: Msg) {
            let mut fx = Vec::new();
            self.dir
                .on_msg(msg, &mut DirCtx::new(Time::ZERO, &mut self.mem, &mut fx));
            for e in fx {
                if let DirEffect::Send { msg, .. } = e {
                    self.out.push(msg);
                }
            }
        }

        fn acks(&self) -> usize {
            self.out
                .iter()
                .filter(|m| matches!(m.kind, MsgKind::WtAck { .. }))
                .count()
        }
    }

    #[test]
    fn relaxed_release_ordering_stalls_early_release() {
        let mut rig = Rig::new();
        // The Release (claiming 2 prior Relaxed stores) arrives first —
        // e.g. reordered by the fabric. It must stall (Fig. 4 left, ③).
        rig.deliver(release(0, 2, None, 0, 0x200, 9));
        assert_eq!(rig.mem.peek(Addr::new(0x200)), 0, "release must stall");
        assert!(rig.dir.buffered_bytes() > 0);
        rig.deliver(relaxed(0, 0x40, 1));
        assert_eq!(rig.mem.peek(Addr::new(0x200)), 0, "one of two counted");
        rig.deliver(relaxed(0, 0x48, 2));
        assert_eq!(rig.mem.peek(Addr::new(0x200)), 9, "counter matches: commit");
        assert_eq!(rig.acks(), 1);
        assert_eq!(rig.dir.buffered_bytes(), 0);
        assert_eq!(rig.dir.releases_committed(), 1);
    }

    #[test]
    fn release_release_ordering_by_last_prev_ep() {
        let mut rig = Rig::new();
        // Epoch 1's release arrives before epoch 0's (Fig. 4 middle, ⑧).
        rig.deliver(release(1, 0, Some(0), 0, 0x100, 11));
        assert_eq!(rig.mem.peek(Addr::new(0x100)), 0);
        rig.deliver(release(0, 0, None, 0, 0x80, 10));
        // Committing epoch 0 unblocks epoch 1.
        assert_eq!(rig.mem.peek(Addr::new(0x80)), 10);
        assert_eq!(rig.mem.peek(Addr::new(0x100)), 11);
        assert_eq!(rig.acks(), 2);
    }

    #[test]
    fn release_waits_for_notifications() {
        let mut rig = Rig::new();
        rig.deliver(release(0, 0, None, 2, 0x100, 5));
        assert_eq!(
            rig.mem.peek(Addr::new(0x100)),
            0,
            "two notifications required"
        );
        let notify = |rig: &mut Rig| {
            rig.deliver(Msg::new(
                NodeRef::Dir(DirId(1)),
                NodeRef::Dir(DirId(0)),
                MsgKind::Notify {
                    core: CoreId(0),
                    ep: 0,
                },
            ))
        };
        notify(&mut rig);
        assert_eq!(rig.mem.peek(Addr::new(0x100)), 0, "one of two collected");
        notify(&mut rig);
        assert_eq!(rig.mem.peek(Addr::new(0x100)), 5);
        assert_eq!(rig.acks(), 1);
    }

    #[test]
    fn reqnotify_waits_for_pending_stores_then_notifies() {
        let mut rig = Rig::new();
        let rfn = Msg::new(
            NodeRef::Core(CoreId(0)),
            NodeRef::Dir(DirId(0)),
            MsgKind::ReqNotify {
                core: CoreId(0),
                ep: 0,
                relaxed_cnt: 1,
                last_unacked_ep: None,
                noti_dst: DirId(3),
                recover: false,
            },
        );
        rig.deliver(rfn);
        assert!(rig.out.is_empty(), "pending store not yet committed");
        rig.deliver(relaxed(0, 0x40, 1));
        let notifies: Vec<&Msg> = rig
            .out
            .iter()
            .filter(|m| matches!(m.kind, MsgKind::Notify { .. }))
            .collect();
        assert_eq!(notifies.len(), 1);
        assert_eq!(notifies[0].dst, NodeRef::Dir(DirId(3)));
    }

    #[test]
    fn reqnotify_respects_unacked_release_chain() {
        let mut rig = Rig::new();
        let rfn = Msg::new(
            NodeRef::Core(CoreId(0)),
            NodeRef::Dir(DirId(0)),
            MsgKind::ReqNotify {
                core: CoreId(0),
                ep: 1,
                relaxed_cnt: 0,
                last_unacked_ep: Some(0),
                noti_dst: DirId(2),
                recover: false,
            },
        );
        rig.deliver(rfn);
        assert!(
            rig.out.is_empty(),
            "epoch 0's release has not committed here"
        );
        rig.deliver(release(0, 0, None, 0, 0x80, 1));
        assert!(rig
            .out
            .iter()
            .any(|m| matches!(m.kind, MsgKind::Notify { .. })));
    }

    #[test]
    fn storage_reclamation_and_peaks() {
        let mut rig = Rig::new();
        rig.deliver(relaxed(0, 0x40, 1));
        rig.deliver(relaxed(1, 0x48, 2)); // next epoch's store (no entry reuse)
        let s = rig.dir.storage();
        assert_eq!(s.peak_lut_bytes, 2 * DIR_CNT_ENTRY_BYTES);
        rig.deliver(release(0, 1, None, 0, 0x100, 3));
        rig.deliver(release(1, 1, Some(0), 0, 0x108, 4));
        // Entries reclaimed: only largestEp remains live.
        let s2 = rig.dir.storage();
        assert_eq!(
            s2.peak_lut_bytes,
            2 * DIR_CNT_ENTRY_BYTES + DIR_LARGEST_ENTRY_BYTES
        );
        assert_eq!(rig.dir.releases_committed(), 2);
    }

    #[test]
    fn release_atomic_waits_then_applies_and_acks_via_response() {
        let mut rig = Rig::new();
        // A Release atomic claiming one prior Relaxed store stalls first.
        rig.deliver(Msg::new(
            NodeRef::Core(CoreId(0)),
            NodeRef::Dir(DirId(0)),
            MsgKind::AtomicReq {
                tid: 42,
                addr: Addr::new(0x40),
                add: 5,
                ord: StoreOrd::Release,
                meta: WtMeta::Release {
                    ep: 0,
                    cnt: 1,
                    last_prev_ep: None,
                    noti_cnt: 0,
                    recover: false,
                },
            },
        ));
        assert_eq!(
            rig.mem.peek(Addr::new(0x40)),
            0,
            "atomic must wait for the counter"
        );
        rig.deliver(relaxed(0, 0x80, 1));
        assert_eq!(rig.mem.peek(Addr::new(0x40)), 5, "atomic applied on commit");
        let resp = rig
            .out
            .iter()
            .find(|m| matches!(m.kind, MsgKind::AtomicResp { .. }))
            .expect("response sent");
        match resp.kind {
            MsgKind::AtomicResp { tid, old, epoch } => {
                assert_eq!((tid, old), (42, 0));
                assert_eq!(epoch, Some(0), "the response doubles as the ack");
            }
            _ => unreachable!(),
        }
    }

    fn recover_release(ep: u64, last_prev: Option<u64>, addr: u64, value: u64) -> Msg {
        Msg::new(
            NodeRef::Core(CoreId(0)),
            NodeRef::Dir(DirId(0)),
            MsgKind::WtStore {
                tid: 100 + ep,
                addr: Addr::new(addr),
                bytes: 8,
                value,
                ord: StoreOrd::Release,
                meta: WtMeta::Release {
                    ep,
                    cnt: 2,
                    last_prev_ep: last_prev,
                    noti_cnt: 1,
                    recover: true,
                },
                needs_ack: true,
            },
        )
    }

    #[test]
    fn crash_reset_wipes_counts_but_keeps_largest() {
        let mut rig = Rig::new();
        rig.deliver(relaxed(0, 0x40, 1));
        rig.deliver(release(0, 1, None, 0, 0x100, 3)); // commits: largest[0]=0
        rig.deliver(relaxed(1, 0x48, 2)); // next epoch's count
        rig.deliver(release(2, 5, Some(1), 0, 0x108, 4)); // stalls: held
        assert!(rig.dir.buffered_bytes() > 0);
        let units = rig.dir.crash_reset();
        assert_eq!(units, 2, "one count entry + one held release discarded");
        assert_eq!(rig.dir.buffered_bytes(), 0);
        // largest survives: a stale re-delivery of epoch 0 is dropped silently
        // (no second ack, no second commit).
        let acks_before = rig.acks();
        rig.deliver(release(0, 1, None, 0, 0x100, 99));
        assert_eq!(rig.acks(), acks_before, "stale release must not re-ack");
        assert_eq!(rig.mem.peek(Addr::new(0x100)), 3, "no double commit");
    }

    #[test]
    fn recover_release_waives_wiped_counts_but_keeps_release_chain() {
        let mut rig = Rig::new();
        rig.deliver(relaxed(0, 0x40, 1));
        rig.dir.crash_reset();
        // The re-issue of epoch 1 claims 2 stores and 1 notification that the
        // crash wiped; it still must wait for epoch 0 (Release-Release order).
        rig.deliver(recover_release(1, Some(0), 0x100, 7));
        assert_eq!(rig.mem.peek(Addr::new(0x100)), 0, "chained on epoch 0");
        // Epoch 0's re-issue commits despite the wiped counters...
        rig.deliver(recover_release(0, None, 0x80, 5));
        // ...and unblocks epoch 1 in the same progress pass.
        assert_eq!(rig.mem.peek(Addr::new(0x80)), 5);
        assert_eq!(rig.mem.peek(Addr::new(0x100)), 7);
        assert_eq!(rig.acks(), 2);
        // A late notification for a waived epoch is dropped, not leaked.
        let peak_before = rig.dir.storage().peak_lut_bytes;
        rig.deliver(Msg::new(
            NodeRef::Dir(DirId(1)),
            NodeRef::Dir(DirId(0)),
            MsgKind::Notify {
                core: CoreId(0),
                ep: 1,
            },
        ));
        assert_eq!(
            rig.dir.storage().peak_lut_bytes,
            peak_before,
            "stale notification must not allocate a table entry"
        );
        assert_eq!(rig.dir.releases_committed(), 2);
    }

    #[test]
    fn recover_reqnotify_supersedes_held_original() {
        let mut rig = Rig::new();
        let rfn = |recover| {
            Msg::new(
                NodeRef::Core(CoreId(0)),
                NodeRef::Dir(DirId(0)),
                MsgKind::ReqNotify {
                    core: CoreId(0),
                    ep: 3,
                    relaxed_cnt: if recover { 0 } else { 4 },
                    last_unacked_ep: None,
                    noti_dst: DirId(2),
                    recover,
                },
            )
        };
        // Original claims 4 stores that a crash wiped: held forever.
        rig.deliver(rfn(false));
        assert!(rig.out.is_empty());
        assert!(rig.dir.buffered_bytes() > 0);
        // The recovery re-issue purges the original and notifies at once.
        rig.deliver(rfn(true));
        let notifies = rig
            .out
            .iter()
            .filter(|m| matches!(m.kind, MsgKind::Notify { .. }))
            .count();
        assert_eq!(notifies, 1, "exactly one notification after recovery");
        assert_eq!(rig.dir.buffered_bytes(), 0, "held duplicate purged");
    }

    /// Sums the requests cores re-issue to crashed directories.
    struct Reissues(u64);

    impl cord_sim::trace::TraceSink for Reissues {
        fn emit(&mut self, ev: &cord_sim::trace::TraceEvent) {
            if let TraceData::RecoverEnd { sends, .. } = ev.data {
                self.0 += u64::from(sends);
            }
        }
    }

    /// A causal-KV run: every client issues sessions of Relaxed puts to
    /// keys on other hosts, each closed by a Release to the client's own
    /// log, and two directories crash mid-run. In debug builds `on_msg`'s
    /// full-scan oracle checks after every message that the narrowed wakes
    /// of `progress` left no held request ready.
    #[test]
    fn narrowed_wakes_match_a_full_scan_through_crash_recovery() {
        use cord_proto::Program;
        use cord_sim::trace::Shared;

        let cfg = SystemConfig::cxl(ProtocolKind::Cord, 4);
        let (hosts, tph) = (cfg.noc.hosts, cfg.noc.tiles_per_host);
        let sessions = 12;
        let log = |t: u32| cfg.map.addr_on_host(t / tph, (1 << 20) + 64 * u64::from(t));
        let programs: Vec<Program> = (0..hosts * tph)
            .map(|t| {
                let mut b = Program::build();
                for s in 0..sessions {
                    for k in 0..3 {
                        let key = u64::from(t) * 7 + s * 5 + k * 3;
                        let host = (t / tph + 1 + (key % u64::from(hosts - 1)) as u32) % hosts;
                        let at = cfg.map.addr_on_host(host, 64 * key);
                        b = b.store(at, 64, s + 1, StoreOrd::Relaxed);
                    }
                    b = b.store_release(log(t), s + 1);
                }
                b.finish()
            })
            .collect();
        let run = |faults: Option<String>| {
            let mut sys = crate::System::new(cfg.clone(), programs.clone());
            let reissues = Shared::new(Reissues(0));
            sys.tracer_mut().install(Box::new(reissues.clone()));
            if let Some(spec) = faults {
                sys.set_fault_spec(&spec).expect("fault spec");
            }
            let makespan = sys.run().makespan;
            for t in 0..hosts * tph {
                assert_eq!(sys.mem_peek(log(t)), sessions, "client {t}'s last session");
            }
            (makespan, reissues.with(|r| r.0))
        };
        let ns = run(None).0.as_ns();
        let spec = format!("seed=5; crash.dir.1={}; crash.dir.2={}", ns / 3, ns / 2);
        let (_, reissued) = run(Some(spec));
        assert!(reissued > 0, "the crashes re-issued no request");
    }

    #[test]
    fn read_serves_committed_state_only() {
        let mut rig = Rig::new();
        rig.deliver(release(0, 1, None, 0, 0x100, 7)); // stalls: counter short
        rig.deliver(Msg::new(
            NodeRef::Core(CoreId(1)),
            NodeRef::Dir(DirId(0)),
            MsgKind::ReadReq {
                tid: 5,
                addr: Addr::new(0x100),
                bytes: 8,
            },
        ));
        let resp = rig
            .out
            .iter()
            .find(|m| matches!(m.kind, MsgKind::ReadResp { .. }))
            .expect("read answered");
        match resp.kind {
            MsgKind::ReadResp { value, .. } => assert_eq!(value, 0, "stalled release invisible"),
            _ => unreachable!(),
        }
    }
}
