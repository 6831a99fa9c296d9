//! CORD processor-side engine (paper Algorithm 1 + §4.3).
//!
//! The processor never waits for Relaxed-store acknowledgments — there are
//! none. It maintains:
//!
//! * the current **epoch number**, incremented on every Release store;
//! * per-directory **store counters** for the current epoch, reset on every
//!   Release store;
//! * the **unacknowledged-epoch table**: (epoch, directory) pairs whose
//!   Release store has been issued but not yet acknowledged.
//!
//! Each Relaxed store carries only the epoch (free in reserved header bits
//! at the default 8-bit width); each Release store carries the full
//! (epoch, store counter, lastPrevEp, notification count) tuple, plus a
//! *request-for-notification* to every pending directory (§4.2).
//!
//! Storage bounding (§4.3): before a Release store issues, the processor
//! checks its own unacknowledged-epoch table and conservatively bounds the
//! destination directory's per-processor table use by the number of its own
//! outstanding Release stores; it stalls on either check. Epoch wrap-around
//! (§4.1) stalls when the span of live epochs would reach `2^epoch_bits`;
//! store-counter wrap-around closes the epoch early with an empty Release
//! store, so both overflows are handled without unbounded state.
//!
//! The simulator carries logical (unbounded) epoch/counter values in message
//! *fields* while sizing the wire format from the configured bit widths; the
//! stall rules above enforce exactly the live-span invariant that lets real
//! hardware disambiguate wrapped values with serial-number arithmetic.

use cord_mem::{Addr, AddressMap};

use cord_proto::{
    home_dir, ConsistencyModel, CordWidths, CoreCtx, CoreId, CoreProtoStats, CoreProtocol, DirId,
    FenceKind, Issue, LoadOrd, Msg, MsgKind, NodeRef, Op, ReadPath, StallCause, StoreOrd,
    SystemConfig, TableSizes, WtMeta,
};
use cord_sim::trace::TraceData;
use cord_sim::Time;

use crate::tables::LookupTable;

/// Bytes per processor store-counter entry (1 B directory tag + 4 B counter).
pub const PROC_CNT_ENTRY_BYTES: u64 = 5;
/// Bytes per unacknowledged-epoch entry (1 B directory tag + 1 B epoch).
pub const PROC_UNACKED_ENTRY_BYTES: u64 = 2;

/// One in-flight Release: the `(ep, dir)` key of its unacknowledged-table
/// entry, plus everything needed to re-issue it after the destination
/// directory crashes and wipes its held copy.
#[derive(Debug, Clone)]
struct ReplayRel {
    dir: DirId,
    ep: u64,
    addr: Addr,
    bytes: u32,
    value: u64,
    cnt: u64,
    last_prev_ep: Option<u64>,
    noti_cnt: u32,
    /// Pending directories that owe this Release a notification.
    noti_dirs: Vec<DirId>,
    /// `Some(addend)` when the Release was an atomic RMW.
    atomic: Option<u64>,
}

/// Conservative re-fence after a directory crash. The runner polls
/// [`CordCore::finish_recover`] once the core's transport channels have
/// fully drained (every in-flight store is delivered), at which point the
/// wiped directory counters can be waived safely.
#[derive(Debug)]
struct RecoverState {
    /// Crashed directories (accumulates across overlapping crashes).
    dirs: Vec<DirId>,
    /// When the recovery fence began (for the RecoverEnd trace).
    since: Time,
    /// Re-fence messages sent so far.
    sends: u32,
    /// Release tids already re-issued (send-once across re-polls).
    sent_rel: Vec<u64>,
    /// (tid, pending-dir) notification re-requests already sent.
    sent_rfn: Vec<(u64, DirId)>,
}

/// Processor-side CORD engine.
#[derive(Debug)]
pub struct CordCore {
    id: CoreId,
    map: AddressMap,
    model: ConsistencyModel,
    widths: CordWidths,
    tables: TableSizes,
    store_window: usize,
    /// Current epoch (logical; wire value is `epoch % 2^epoch_bits`).
    epoch: u64,
    /// Relaxed stores per directory in the current epoch.
    cnt: LookupTable<DirId, u64>,
    /// Unacknowledged Release stores: (epoch, destination directory).
    unacked: LookupTable<(u64, DirId), ()>,
    /// Every unacknowledged Release by tid, in ascending tid order: tids
    /// only grow, so a Release appends and its acknowledgment removes by
    /// binary search. Directory-crash recovery re-issues from here.
    inflight: Vec<(u64, ReplayRel)>,
    next_tid: u64,
    /// A Release/Full barrier has broadcast its empty Release stores and is
    /// waiting for the unacknowledged table to drain.
    fence_active: bool,
    /// An atomic awaiting its response (blocking, like a load).
    pending_atomic: Option<u64>,
    /// Active directory-crash recovery fence, if any.
    recover: Option<RecoverState>,
    reads: ReadPath,
}

/// The store payload of a Release (address, width, value), bundled so the
/// allocation helpers stay within the argument budget.
#[derive(Clone, Copy)]
struct RelPayload {
    addr: Addr,
    bytes: u32,
    value: u64,
}

impl CordCore {
    /// Creates the engine for core `id` under `cfg`.
    pub fn new(id: CoreId, cfg: &SystemConfig) -> Self {
        CordCore {
            id,
            map: cfg.map,
            model: cfg.model,
            widths: cfg.widths,
            tables: cfg.tables,
            store_window: cfg.costs.store_window,
            epoch: 0,
            cnt: LookupTable::new(cfg.tables.proc_cnt, PROC_CNT_ENTRY_BYTES),
            unacked: LookupTable::new(cfg.tables.proc_unacked, PROC_UNACKED_ENTRY_BYTES),
            inflight: Vec::new(),
            next_tid: 0,
            fence_active: false,
            pending_atomic: None,
            recover: None,
            reads: ReadPath::default(),
        }
    }

    /// Current epoch (diagnostics/tests).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of unacknowledged Release stores (diagnostics/tests).
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    /// Whether the current epoch holds Relaxed write-through stores that no
    /// acknowledgment covers (the §4.4 hazard for write-back Releases).
    pub fn has_pending_relaxed(&self) -> bool {
        self.cnt.iter().any(|(_, &c)| c > 0)
    }

    fn last_unacked_for(&self, dir: DirId) -> Option<u64> {
        self.unacked
            .keys()
            .filter(|(_, d)| *d == dir)
            .map(|(e, _)| *e)
            .max()
    }

    /// Directories with pending state: Relaxed stores in the current epoch
    /// or unacknowledged Release stores.
    fn pending_dirs(&self, exclude: Option<DirId>) -> Vec<DirId> {
        let mut dirs: Vec<DirId> = self
            .cnt
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(&d, _)| d)
            .chain(self.unacked.keys().map(|&(_, d)| d))
            .filter(|&d| Some(d) != exclude)
            .collect();
        dirs.sort_unstable();
        dirs.dedup();
        dirs
    }

    /// Span-based epoch wrap check: live epochs must fit in `2^epoch_bits`.
    fn epoch_would_overflow(&self) -> bool {
        match self.unacked.min_key() {
            // Live epochs [oldest, current] must stay distinguishable in
            // 2^epoch_bits wire values.
            Some(&(oldest, _)) => self.epoch - oldest + 1 > self.widths.epoch_modulus(),
            None => false,
        }
    }

    fn send_release(
        &mut self,
        dst: DirId,
        pay: RelPayload,
        noti_dirs: &[DirId],
        recover: bool,
        ctx: &mut CoreCtx<'_>,
    ) {
        let RelPayload { addr, bytes, value } = pay;
        let (tid, mut meta) = self.alloc_release(dst, pay, noti_dirs, None, ctx);
        if recover {
            if let WtMeta::Release { recover: r, .. } = &mut meta {
                *r = true;
            }
        }
        let ep = self.epoch;
        ctx.trace(|| TraceData::StoreIssue {
            core: self.id.0,
            tid,
            addr: addr.raw(),
            bytes,
            release: true,
            epoch: Some(ep),
        });
        ctx.send(Msg::sized(
            NodeRef::Core(self.id),
            NodeRef::Dir(dst),
            MsgKind::WtStore {
                tid,
                addr,
                bytes,
                value,
                ord: StoreOrd::Release,
                meta,
                needs_ack: true,
            },
            self.widths.release_overhead_bytes(),
        ));
    }

    /// Allocates a Release transaction: registers the epoch in the
    /// unacknowledged table, records the re-issue state for crash recovery
    /// and builds the wire metadata.
    fn alloc_release(
        &mut self,
        dst: DirId,
        RelPayload { addr, bytes, value }: RelPayload,
        noti_dirs: &[DirId],
        atomic: Option<u64>,
        ctx: &mut CoreCtx<'_>,
    ) -> (u64, WtMeta) {
        let ep = self.epoch;
        let cnt_d = self.cnt.get(&dst).copied().unwrap_or(0);
        let last_prev_ep = self.last_unacked_for(dst);
        let noti_cnt = noti_dirs.len() as u32;
        let tid = self.next_tid;
        self.next_tid += 1;
        debug_assert!(self.inflight.last().is_none_or(|&(t, _)| t < tid));
        self.inflight.push((
            tid,
            ReplayRel {
                dir: dst,
                ep,
                addr,
                bytes,
                value,
                cnt: cnt_d,
                last_prev_ep,
                noti_cnt,
                noti_dirs: noti_dirs.to_vec(),
                atomic,
            },
        ));
        let inserted = self.unacked.try_insert((ep, dst), ());
        debug_assert!(inserted, "caller must check unacked-table room");
        ctx.trace(|| TraceData::TableInsert {
            node: "core",
            id: self.id.0,
            table: "unacked",
            occ: self.unacked.len() as u64,
            cap: self.unacked.capacity() as u64,
        });
        (
            tid,
            WtMeta::Release {
                ep,
                cnt: cnt_d,
                last_prev_ep,
                noti_cnt,
                recover: false,
            },
        )
    }

    /// Retires an acknowledged Release: drops its in-flight entry and frees
    /// its unacknowledged-table slot.
    fn retire_release(&mut self, tid: u64, ctx: &mut CoreCtx<'_>) {
        let i = self
            .inflight
            .binary_search_by_key(&tid, |&(t, _)| t)
            .expect("CordCore: ack for unknown Release store");
        let (_, rp) = self.inflight.remove(i);
        self.unacked.remove(&(rp.ep, rp.dir));
        ctx.trace(|| TraceData::TableEvict {
            node: "core",
            id: self.id.0,
            table: "unacked",
            occ: self.unacked.len() as u64,
            cap: self.unacked.capacity() as u64,
        });
        // Stalled Releases, fences or table-bound stores may proceed.
        ctx.wake();
    }

    /// Issues a full Release store (with notifications); returns a stall
    /// cause if a table or the epoch space is exhausted.
    fn issue_release(
        &mut self,
        addr: Addr,
        bytes: u32,
        value: u64,
        ctx: &mut CoreCtx<'_>,
    ) -> Option<StallCause> {
        if self.epoch_would_overflow() {
            return Some(StallCause::Overflow);
        }
        if !self.unacked.has_room() {
            ctx.trace(|| TraceData::TableStallFull {
                node: "core",
                id: self.id.0,
                table: "unacked",
                cap: self.unacked.capacity() as u64,
            });
            return Some(StallCause::TableFull);
        }
        // Conservative destination-directory provisioning check (§4.3): the
        // directory's per-processor store-counter and notification-counter
        // tables must hold one entry per in-flight Release store.
        let dir_budget = self
            .tables
            .dir_cnt_per_proc
            .min(self.tables.dir_noti_per_proc);
        if self.unacked.len() + 1 > dir_budget {
            ctx.trace(|| TraceData::TableStallFull {
                node: "core",
                id: self.id.0,
                table: "dir_budget",
                cap: dir_budget as u64,
            });
            return Some(StallCause::TableFull);
        }
        let dst = home_dir(&self.map, addr);
        let pending = self.pending_dirs(Some(dst));
        for &p in &pending {
            let relaxed_cnt = self.cnt.get(&p).copied().unwrap_or(0);
            let last_unacked_ep = self.last_unacked_for(p);
            ctx.trace(|| TraceData::NotifyRequest {
                core: self.id.0,
                pending_dir: p.0,
                dst_dir: dst.0,
                epoch: self.epoch,
            });
            ctx.send(Msg::new(
                NodeRef::Core(self.id),
                NodeRef::Dir(p),
                MsgKind::ReqNotify {
                    core: self.id,
                    ep: self.epoch,
                    relaxed_cnt,
                    last_unacked_ep,
                    noti_dst: dst,
                    recover: false,
                },
            ));
        }
        self.send_release(dst, RelPayload { addr, bytes, value }, &pending, false, ctx);
        self.close_epoch(pending.len() as u32, ctx);
        None
    }

    /// Advances to the next epoch after a Release (resetting per-directory
    /// store counters) and traces the transition.
    fn close_epoch(&mut self, fanout: u32, ctx: &mut CoreCtx<'_>) {
        let closed = self.epoch;
        self.epoch += 1;
        self.cnt.clear();
        ctx.trace(|| TraceData::EpochClose {
            core: self.id.0,
            epoch: closed,
            fanout,
        });
        ctx.trace(|| TraceData::TableEvict {
            node: "core",
            id: self.id.0,
            table: "cnt",
            occ: 0,
            cap: self.cnt.capacity() as u64,
        });
        ctx.trace(|| TraceData::EpochOpen {
            core: self.id.0,
            epoch: self.epoch,
        });
    }

    fn issue_relaxed(
        &mut self,
        addr: Addr,
        bytes: u32,
        value: u64,
        ctx: &mut CoreCtx<'_>,
    ) -> Option<StallCause> {
        let dst = home_dir(&self.map, addr);
        let cnt_modulus = self.widths.cnt_modulus();
        match self.cnt.get(&dst).copied() {
            Some(c) if c + 1 >= cnt_modulus => {
                // Store-counter wrap: close the epoch with an empty Release
                // store to this directory, then retry in the new epoch.
                if let Some(stall) = self.issue_release(addr, 0, 0, ctx) {
                    return Some(stall);
                }
            }
            _ => {}
        }
        if self.cnt.get(&dst).is_none() && !self.cnt.has_room() {
            // Store-counter table full of *this* epoch's directories: no
            // acknowledgment can ever free an entry (the table is cleared
            // per epoch), so stalling here would deadlock. Close the epoch
            // early with an empty Release to the new directory — the same
            // recovery as a counter wrap — and count the store in the fresh
            // epoch (paper §4.3 stall-and-recover at any table size).
            ctx.trace(|| TraceData::TableStallFull {
                node: "core",
                id: self.id.0,
                table: "cnt",
                cap: self.cnt.capacity() as u64,
            });
            if let Some(stall) = self.issue_release(addr, 0, 0, ctx) {
                return Some(stall);
            }
        }
        let ep = self.epoch;
        let occ_before = self.cnt.len();
        match self.cnt.get_or_insert_with(dst, || 0) {
            None => {
                ctx.trace(|| TraceData::TableStallFull {
                    node: "core",
                    id: self.id.0,
                    table: "cnt",
                    cap: self.cnt.capacity() as u64,
                });
                return Some(StallCause::TableFull);
            }
            Some(c) => *c += 1,
        }
        if self.cnt.len() > occ_before {
            ctx.trace(|| TraceData::TableInsert {
                node: "core",
                id: self.id.0,
                table: "cnt",
                occ: self.cnt.len() as u64,
                cap: self.cnt.capacity() as u64,
            });
        }
        let tid = self.next_tid;
        self.next_tid += 1;
        ctx.trace(|| TraceData::StoreIssue {
            core: self.id.0,
            tid,
            addr: addr.raw(),
            bytes,
            release: false,
            epoch: Some(ep),
        });
        ctx.send(Msg::sized(
            NodeRef::Core(self.id),
            NodeRef::Dir(dst),
            MsgKind::WtStore {
                tid,
                addr,
                bytes,
                value,
                ord: StoreOrd::Relaxed,
                meta: WtMeta::Epoch { ep },
                needs_ack: false,
            },
            self.widths.relaxed_overhead_bytes(),
        ));
        None
    }

    fn issue_fence(&mut self, kind: FenceKind, ctx: &mut CoreCtx<'_>) -> Issue {
        match kind {
            // An Acquire barrier needs nothing beyond the (blocking) loads
            // that precede it (paper §4.4).
            FenceKind::Acquire => Issue::Done,
            FenceKind::Release | FenceKind::Full => {
                if self.fence_active {
                    return if self.inflight.is_empty() {
                        self.fence_active = false;
                        Issue::Done
                    } else {
                        Issue::Stall(StallCause::AckWait)
                    };
                }
                let pending = self.pending_dirs(None);
                if pending.is_empty() && self.inflight.is_empty() {
                    return Issue::Done;
                }
                if self.epoch_would_overflow() {
                    return Issue::Stall(StallCause::Overflow);
                }
                if !self.unacked.has_room_for(pending.len()) {
                    return Issue::Stall(StallCause::TableFull);
                }
                // Broadcast an "empty" directory-ordered Release store to all
                // pending directories and await their acknowledgments
                // (paper §4.4). The processor joins on the acks itself, so no
                // cross-directory notifications are needed.
                for &p in &pending {
                    // An empty Release still needs an address homed at `p` for
                    // routing; any line of that slice works — use line 0.
                    let addr = self.addr_for_dir(p);
                    self.send_release(
                        p,
                        RelPayload {
                            addr,
                            bytes: 0,
                            value: 0,
                        },
                        &[],
                        false,
                        ctx,
                    );
                }
                self.close_epoch(pending.len() as u32, ctx);
                self.fence_active = true;
                Issue::Stall(StallCause::AckWait)
            }
        }
    }

    /// Any address homed at directory `d` (used by empty barrier Releases).
    fn addr_for_dir(&self, d: DirId) -> Addr {
        let sph = self.map.slices_per_host();
        self.map.addr_on_slice(d.0 / sph, d.0 % sph, 0, 0)
    }

    /// Whether a directory-crash recovery fence is active (diagnostics).
    pub fn recovering(&self) -> bool {
        self.recover.is_some()
    }

    /// Handles a directory-recovery broadcast: enters (or extends) the
    /// conservative re-fence. Returns `true` — the runner must then poll
    /// [`Self::finish_recover`] once the core's transport egress is drained.
    pub fn on_dir_recover(&mut self, dir: DirId, ctx: &mut CoreCtx<'_>) -> bool {
        if self.recover.is_none() {
            self.recover = Some(RecoverState {
                dirs: Vec::new(),
                since: ctx.now,
                sends: 0,
                sent_rel: Vec::new(),
                sent_rfn: Vec::new(),
            });
            ctx.trace(|| TraceData::RecoverBegin {
                core: self.id.0,
                dir: dir.0,
            });
        }
        let st = self.recover.as_mut().unwrap();
        if !st.dirs.contains(&dir) {
            st.dirs.push(dir);
        }
        // A repeat crash wiped whatever an earlier pass re-sent: re-arm the
        // send-once sets so the next poll re-issues everything again (the
        // directory drops any duplicate that did survive as stale).
        st.sent_rel.clear();
        st.sent_rfn.clear();
        true
    }

    /// One step of the recovery fence; called by the runner only while the
    /// core's transport egress is fully drained (every in-flight store
    /// delivered). Returns `true` when recovery is complete.
    ///
    /// Re-issues are serialised oldest-epoch-first: a re-issued Release's
    /// count waivers skip the cross-directory notification join, so it must
    /// not commit before every older epoch has been acknowledged — otherwise
    /// an observer could acquire the re-issued flag and still miss an older
    /// Release's value (the Louvre-style conservative re-fence).
    pub fn finish_recover(&mut self, ctx: &mut CoreCtx<'_>) -> bool {
        if self.recover.is_none() {
            return true;
        }
        let dirs = self.recover.as_ref().unwrap().dirs.clone();

        // Phase 1: regenerate state the crashed directories wiped, for every
        // still-unacknowledged Release.
        let mut waiting = false;
        for i in 0..self.inflight.len() {
            let (tid, rp) = self.inflight[i].clone();
            // Wiped notifications: ask each crashed pending directory to
            // notify again. The last-unacked gate is recomputed against the
            // live table so the notification still waits for every earlier
            // Release homed at that directory.
            for nd in rp.noti_dirs.iter().copied() {
                if !dirs.contains(&nd)
                    || self.recover.as_ref().unwrap().sent_rfn.contains(&(tid, nd))
                {
                    continue;
                }
                let last_unacked_ep = self
                    .unacked
                    .keys()
                    .filter(|(e, d)| *d == nd && *e < rp.ep)
                    .map(|(e, _)| *e)
                    .max();
                ctx.send(Msg::new(
                    NodeRef::Core(self.id),
                    NodeRef::Dir(nd),
                    MsgKind::ReqNotify {
                        core: self.id,
                        ep: rp.ep,
                        relaxed_cnt: 0,
                        last_unacked_ep,
                        noti_dst: rp.dir,
                        recover: true,
                    },
                ));
                let st = self.recover.as_mut().unwrap();
                st.sent_rfn.push((tid, nd));
                st.sends += 1;
            }
            // Wiped held Release: re-issue it (same tid) once every older
            // epoch is acknowledged; stay in the fence until its ack lands.
            if dirs.contains(&rp.dir) {
                waiting = true;
                let ready = self.unacked.keys().all(|(e, _)| *e >= rp.ep);
                if ready && !self.recover.as_ref().unwrap().sent_rel.contains(&tid) {
                    let meta = WtMeta::Release {
                        ep: rp.ep,
                        cnt: rp.cnt,
                        last_prev_ep: rp.last_prev_ep,
                        noti_cnt: rp.noti_cnt,
                        recover: true,
                    };
                    let kind = match rp.atomic {
                        Some(add) => MsgKind::AtomicReq {
                            tid,
                            addr: rp.addr,
                            add,
                            ord: StoreOrd::Release,
                            meta,
                        },
                        None => MsgKind::WtStore {
                            tid,
                            addr: rp.addr,
                            bytes: rp.bytes,
                            value: rp.value,
                            ord: StoreOrd::Release,
                            meta,
                            needs_ack: true,
                        },
                    };
                    ctx.send(Msg::sized(
                        NodeRef::Core(self.id),
                        NodeRef::Dir(rp.dir),
                        kind,
                        self.widths.release_overhead_bytes(),
                    ));
                    let st = self.recover.as_mut().unwrap();
                    st.sent_rel.push(tid);
                    st.sends += 1;
                }
            }
        }
        if waiting {
            return false;
        }

        // Phase 2: the current epoch's store counts at a crashed directory
        // were wiped, so no future Release could ever match them — close the
        // epoch early with an empty recovery Release. The count waiver again
        // demands that every older epoch is already acknowledged; with the
        // unacknowledged table empty, the storage checks hold trivially.
        let crashed_cnt: Vec<DirId> = dirs
            .iter()
            .copied()
            .filter(|d| self.cnt.get(d).copied().unwrap_or(0) > 0)
            .collect();
        if !crashed_cnt.is_empty() {
            if !self.unacked.is_empty() {
                return false;
            }
            let dst = crashed_cnt[0];
            let pending = self.pending_dirs(Some(dst));
            for &p in &pending {
                let relaxed_cnt = self.cnt.get(&p).copied().unwrap_or(0);
                ctx.trace(|| TraceData::NotifyRequest {
                    core: self.id.0,
                    pending_dir: p.0,
                    dst_dir: dst.0,
                    epoch: self.epoch,
                });
                // Crashed pending directories lost their counts too: waive
                // them; intact ones carry accurate claims. Either way the
                // notification reclaims the directory's counter entry.
                ctx.send(Msg::new(
                    NodeRef::Core(self.id),
                    NodeRef::Dir(p),
                    MsgKind::ReqNotify {
                        core: self.id,
                        ep: self.epoch,
                        relaxed_cnt,
                        last_unacked_ep: None,
                        noti_dst: dst,
                        recover: dirs.contains(&p),
                    },
                ));
            }
            let addr = self.addr_for_dir(dst);
            self.send_release(
                dst,
                RelPayload {
                    addr,
                    bytes: 0,
                    value: 0,
                },
                &pending,
                true,
                ctx,
            );
            self.close_epoch(pending.len() as u32, ctx);
            let st = self.recover.as_mut().unwrap();
            st.sends += 1 + pending.len() as u32;
        }

        let st = self.recover.take().expect("recovery state");
        ctx.trace(|| TraceData::RecoverEnd {
            core: self.id.0,
            since: st.since,
            sends: st.sends,
        });
        // The frontend has been stalling on `StallCause::Recovery`.
        ctx.wake();
        true
    }
}

impl CoreProtocol for CordCore {
    fn issue(&mut self, op: &Op, ctx: &mut CoreCtx<'_>) -> Issue {
        // A directory-crash recovery fence stalls the frontend entirely:
        // new stores would move the quiesce horizon and could race the
        // conservative re-issues. `finish_recover` wakes the core.
        if self.recover.is_some() {
            return Issue::Stall(StallCause::Recovery);
        }
        // Write-back stores belong to the Hybrid protocol (§4.4); a plain
        // CORD system treats them as write-through.
        let coerced;
        let op = match *op {
            Op::StoreWb {
                addr,
                bytes,
                value,
                ord,
            } => {
                coerced = Op::Store {
                    addr,
                    bytes,
                    value,
                    ord,
                };
                &coerced
            }
            _ => op,
        };
        match *op {
            Op::Store {
                addr,
                bytes,
                value,
                ord,
            } => {
                if self.inflight.len() >= self.store_window {
                    return Issue::Stall(StallCause::StoreWindow);
                }
                let ordered = match self.model {
                    // Under TSO every write-through store is totally ordered
                    // with the Release-Release mechanism (paper §6).
                    ConsistencyModel::Tso => true,
                    ConsistencyModel::Rc => ord == StoreOrd::Release,
                };
                let stall = if ordered {
                    self.issue_release(addr, bytes, value, ctx)
                } else {
                    self.issue_relaxed(addr, bytes, value, ctx)
                };
                match stall {
                    None => Issue::Done,
                    Some(cause) => Issue::Stall(cause),
                }
            }
            Op::AtomicRmw { addr, add, ord, .. } => {
                let ordered = match self.model {
                    ConsistencyModel::Tso => true,
                    ConsistencyModel::Rc => ord == StoreOrd::Release,
                };
                let dst = home_dir(&self.map, addr);
                if ordered {
                    // Release atomic: full Release path; the response
                    // doubles as the acknowledgment.
                    if self.epoch_would_overflow() {
                        return Issue::Stall(StallCause::Overflow);
                    }
                    if !self.unacked.has_room() {
                        return Issue::Stall(StallCause::TableFull);
                    }
                    let dir_budget = self
                        .tables
                        .dir_cnt_per_proc
                        .min(self.tables.dir_noti_per_proc);
                    if self.unacked.len() + 1 > dir_budget {
                        return Issue::Stall(StallCause::TableFull);
                    }
                    let pending = self.pending_dirs(Some(dst));
                    for &p in &pending {
                        let relaxed_cnt = self.cnt.get(&p).copied().unwrap_or(0);
                        let last_unacked_ep = self.last_unacked_for(p);
                        ctx.trace(|| TraceData::NotifyRequest {
                            core: self.id.0,
                            pending_dir: p.0,
                            dst_dir: dst.0,
                            epoch: self.epoch,
                        });
                        ctx.send(Msg::new(
                            NodeRef::Core(self.id),
                            NodeRef::Dir(p),
                            MsgKind::ReqNotify {
                                core: self.id,
                                ep: self.epoch,
                                relaxed_cnt,
                                last_unacked_ep,
                                noti_dst: dst,
                                recover: false,
                            },
                        ));
                    }
                    let (tid, meta) = self.alloc_release(
                        dst,
                        RelPayload {
                            addr,
                            bytes: 8,
                            value: 0,
                        },
                        &pending,
                        Some(add),
                        ctx,
                    );
                    self.pending_atomic = Some(tid);
                    let ep = self.epoch;
                    ctx.trace(|| TraceData::StoreIssue {
                        core: self.id.0,
                        tid,
                        addr: addr.raw(),
                        bytes: 8,
                        release: true,
                        epoch: Some(ep),
                    });
                    ctx.send(Msg::sized(
                        NodeRef::Core(self.id),
                        NodeRef::Dir(dst),
                        MsgKind::AtomicReq {
                            tid,
                            addr,
                            add,
                            ord: StoreOrd::Release,
                            meta,
                        },
                        self.widths.release_overhead_bytes(),
                    ));
                    self.close_epoch(pending.len() as u32, ctx);
                } else {
                    // Relaxed atomic: counted in the epoch like a Relaxed
                    // store; blocking only for its value.
                    if self.cnt.get(&dst).is_none() && !self.cnt.has_room() {
                        // Same early epoch close as issue_relaxed: a full
                        // current-epoch counter table can never drain.
                        if let Some(stall) = self.issue_release(addr, 0, 0, ctx) {
                            return Issue::Stall(stall);
                        }
                    }
                    match self.cnt.get_or_insert_with(dst, || 0) {
                        None => {
                            ctx.trace(|| TraceData::TableStallFull {
                                node: "core",
                                id: self.id.0,
                                table: "cnt",
                                cap: self.cnt.capacity() as u64,
                            });
                            return Issue::Stall(StallCause::TableFull);
                        }
                        Some(c) => *c += 1,
                    }
                    let tid = self.next_tid;
                    self.next_tid += 1;
                    self.pending_atomic = Some(tid);
                    let ep = self.epoch;
                    ctx.trace(|| TraceData::StoreIssue {
                        core: self.id.0,
                        tid,
                        addr: addr.raw(),
                        bytes: 8,
                        release: false,
                        epoch: Some(ep),
                    });
                    ctx.send(Msg::sized(
                        NodeRef::Core(self.id),
                        NodeRef::Dir(dst),
                        MsgKind::AtomicReq {
                            tid,
                            addr,
                            add,
                            ord: StoreOrd::Relaxed,
                            meta: WtMeta::Epoch { ep: self.epoch },
                        },
                        self.widths.relaxed_overhead_bytes(),
                    ));
                }
                Issue::Pending
            }
            Op::Load {
                addr, bytes, ord, ..
            } => {
                let _ = matches!(ord, LoadOrd::Acquire); // loads block either way
                self.reads.issue(self.id, &self.map, addr, bytes, ctx);
                Issue::Pending
            }
            Op::BulkRead { addr, bytes, .. } => {
                self.reads.issue(self.id, &self.map, addr, bytes, ctx);
                Issue::Pending
            }
            Op::WaitValue { addr, .. } => {
                self.reads.issue(self.id, &self.map, addr, 8, ctx);
                Issue::Pending
            }
            Op::Fence { kind } => self.issue_fence(kind, ctx),
            Op::Compute { .. } => Issue::Done,
            Op::StoreWb { .. } => unreachable!("write-back stores are coerced above"),
        }
    }

    fn on_msg(&mut self, _from: NodeRef, kind: MsgKind, ctx: &mut CoreCtx<'_>) {
        match kind {
            MsgKind::WtAck { tid, .. } => self.retire_release(tid, ctx),
            MsgKind::AtomicResp { tid, old, epoch } => {
                assert_eq!(
                    self.pending_atomic.take(),
                    Some(tid),
                    "unexpected atomic response"
                );
                if epoch.is_some() {
                    // Release atomic: the response is also the ack.
                    self.retire_release(tid, ctx);
                }
                ctx.load_done(old);
            }
            MsgKind::ReadResp { tid, value, .. } => self.reads.on_resp(tid, value, ctx),
            other => panic!("CordCore: unexpected message {other:?}"),
        }
    }

    fn quiesced(&self) -> bool {
        self.inflight.is_empty()
            && self.pending_atomic.is_none()
            && !self.reads.is_pending()
            && self.recover.is_none()
    }

    fn stats(&self) -> CoreProtoStats {
        CoreProtoStats {
            peak_cnt_bytes: self.cnt.peak_bytes(),
            peak_other_bytes: self.unacked.peak_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_proto::{CoreEffect, ProtocolKind};
    use cord_sim::Time;

    fn cfg() -> SystemConfig {
        SystemConfig::cxl(ProtocolKind::Cord, 2)
    }

    fn issue(core: &mut CordCore, op: &Op) -> (Issue, Vec<CoreEffect>) {
        let mut fx = Vec::new();
        let r = core.issue(op, &mut CoreCtx::new(Time::ZERO, &mut fx));
        (r, fx)
    }

    fn st(addr: u64, ord: StoreOrd) -> Op {
        Op::Store {
            addr: Addr::new(addr),
            bytes: 64,
            value: 1,
            ord,
        }
    }

    fn sends(fx: &[CoreEffect]) -> Vec<&Msg> {
        fx.iter()
            .filter_map(|e| match e {
                CoreEffect::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .collect()
    }

    fn ack(core: &mut CordCore, tid: u64) -> Vec<CoreEffect> {
        let mut fx = Vec::new();
        let mut ctx = CoreCtx::new(Time::from_ns(999), &mut fx);
        core.on_msg(
            NodeRef::Dir(DirId(0)),
            MsgKind::WtAck { tid, epoch: None },
            &mut ctx,
        );
        fx
    }

    // Host 0 slice s is reachable with line numbers ≡ s (mod 8).
    fn addr_on_slice(s: u64, k: u64) -> u64 {
        (k * 8 + s) * 64
    }

    #[test]
    fn relaxed_stores_are_fire_and_forget() {
        let mut core = CordCore::new(CoreId(0), &cfg());
        for i in 0..5 {
            let (r, fx) = issue(&mut core, &st(addr_on_slice(0, i), StoreOrd::Relaxed));
            assert_eq!(r, Issue::Done);
            let msgs = sends(&fx);
            assert_eq!(msgs.len(), 1);
            match &msgs[0].kind {
                MsgKind::WtStore {
                    meta: WtMeta::Epoch { ep },
                    needs_ack,
                    ..
                } => {
                    assert_eq!(*ep, 0);
                    assert!(!needs_ack, "Relaxed stores carry no acknowledgment");
                }
                other => panic!("{other:?}"),
            }
            // 8-bit epoch fits reserved bits: zero overhead on 64 B stores.
            assert_eq!(msgs[0].bytes, 16 + 64);
        }
        assert!(core.quiesced(), "no acknowledgments pending");
    }

    #[test]
    fn release_embeds_counter_and_never_stalls_on_relaxed() {
        let mut core = CordCore::new(CoreId(0), &cfg());
        for i in 0..3 {
            issue(&mut core, &st(addr_on_slice(0, i), StoreOrd::Relaxed));
        }
        // Release to the same directory: single-directory ordering, no
        // notifications, and — crucially — no stall.
        let (r, fx) = issue(&mut core, &st(addr_on_slice(0, 9), StoreOrd::Release));
        assert_eq!(r, Issue::Done);
        let msgs = sends(&fx);
        assert_eq!(msgs.len(), 1, "no ReqNotify for a single-directory epoch");
        match &msgs[0].kind {
            MsgKind::WtStore {
                ord: StoreOrd::Release,
                meta:
                    WtMeta::Release {
                        ep,
                        cnt,
                        last_prev_ep,
                        noti_cnt,
                        ..
                    },
                needs_ack,
                ..
            } => {
                assert_eq!((*ep, *cnt), (0, 3));
                assert_eq!(*last_prev_ep, None);
                assert_eq!(*noti_cnt, 0);
                assert!(needs_ack);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(msgs[0].bytes, 16 + 64 + 6, "release pays 6 B of metadata");
        assert_eq!(core.epoch(), 1);
    }

    #[test]
    fn multi_directory_release_requests_notifications() {
        let mut core = CordCore::new(CoreId(0), &cfg());
        // Relaxed stores to slices 1 and 2, release flag to slice 3.
        issue(&mut core, &st(addr_on_slice(1, 0), StoreOrd::Relaxed));
        issue(&mut core, &st(addr_on_slice(1, 1), StoreOrd::Relaxed));
        issue(&mut core, &st(addr_on_slice(2, 0), StoreOrd::Relaxed));
        let (r, fx) = issue(&mut core, &st(addr_on_slice(3, 0), StoreOrd::Release));
        assert_eq!(r, Issue::Done);
        let msgs = sends(&fx);
        assert_eq!(msgs.len(), 3, "2 ReqNotify + 1 Release");
        let mut rfn: Vec<(u32, u64)> = Vec::new();
        let mut noti_cnt_seen = None;
        for m in msgs {
            match &m.kind {
                MsgKind::ReqNotify {
                    relaxed_cnt,
                    noti_dst,
                    ep,
                    ..
                } => {
                    assert_eq!(*ep, 0);
                    assert_eq!(*noti_dst, DirId(3));
                    rfn.push((m.dst.tile_flat(), *relaxed_cnt));
                }
                MsgKind::WtStore {
                    meta: WtMeta::Release { noti_cnt, cnt, .. },
                    ..
                } => {
                    noti_cnt_seen = Some(*noti_cnt);
                    assert_eq!(*cnt, 0, "no relaxed stores went to the flag's directory");
                }
                other => panic!("{other:?}"),
            }
        }
        rfn.sort_unstable();
        assert_eq!(rfn, vec![(1, 2), (2, 1)]);
        assert_eq!(noti_cnt_seen, Some(2));
    }

    #[test]
    fn release_release_chains_last_prev_ep() {
        let mut core = CordCore::new(CoreId(0), &cfg());
        issue(&mut core, &st(addr_on_slice(0, 0), StoreOrd::Release)); // epoch 0
        let (_, fx) = issue(&mut core, &st(addr_on_slice(0, 1), StoreOrd::Release)); // epoch 1
        match &sends(&fx)[0].kind {
            MsgKind::WtStore {
                meta: WtMeta::Release {
                    ep, last_prev_ep, ..
                },
                ..
            } => {
                assert_eq!(*ep, 1);
                assert_eq!(
                    *last_prev_ep,
                    Some(0),
                    "prior unacked epoch must be chained"
                );
            }
            other => panic!("{other:?}"),
        }
        // After the first ack, the chain entry is reclaimed.
        ack(&mut core, 0);
        assert_eq!(core.unacked_len(), 1);
        ack(&mut core, 1);
        assert!(core.quiesced());
    }

    #[test]
    fn unacked_table_full_stalls_release() {
        let mut c = cfg();
        c.tables.proc_unacked = 2;
        c.tables.dir_cnt_per_proc = 64;
        c.tables.dir_noti_per_proc = 64;
        let mut core = CordCore::new(CoreId(0), &c);
        assert_eq!(
            issue(&mut core, &st(addr_on_slice(0, 0), StoreOrd::Release)).0,
            Issue::Done
        );
        assert_eq!(
            issue(&mut core, &st(addr_on_slice(0, 1), StoreOrd::Release)).0,
            Issue::Done
        );
        let (r, _) = issue(&mut core, &st(addr_on_slice(0, 2), StoreOrd::Release));
        assert_eq!(r, Issue::Stall(StallCause::TableFull));
        let fx = ack(&mut core, 0);
        assert!(fx.iter().any(|e| matches!(e, CoreEffect::Wake(_))));
        assert_eq!(
            issue(&mut core, &st(addr_on_slice(0, 2), StoreOrd::Release)).0,
            Issue::Done
        );
    }

    #[test]
    fn dir_budget_stalls_release() {
        let mut c = cfg();
        c.tables.proc_unacked = 64;
        c.tables.dir_cnt_per_proc = 1;
        let mut core = CordCore::new(CoreId(0), &c);
        assert_eq!(
            issue(&mut core, &st(addr_on_slice(0, 0), StoreOrd::Release)).0,
            Issue::Done
        );
        let (r, _) = issue(&mut core, &st(addr_on_slice(0, 1), StoreOrd::Release));
        assert_eq!(r, Issue::Stall(StallCause::TableFull));
    }

    #[test]
    fn epoch_overflow_stalls() {
        let mut c = cfg();
        c.widths.epoch_bits = 2; // modulus 4
        c.tables.proc_unacked = 64;
        c.tables.dir_cnt_per_proc = 64;
        c.tables.dir_noti_per_proc = 64;
        let mut core = CordCore::new(CoreId(0), &c);
        for i in 0..4 {
            assert_eq!(
                issue(&mut core, &st(addr_on_slice(0, i), StoreOrd::Release)).0,
                Issue::Done,
                "release {i}"
            );
        }
        // epochs 0..3 all unacked: span 4 = modulus → stall
        let (r, _) = issue(&mut core, &st(addr_on_slice(0, 9), StoreOrd::Release));
        assert_eq!(r, Issue::Stall(StallCause::Overflow));
        ack(&mut core, 0);
        assert_eq!(
            issue(&mut core, &st(addr_on_slice(0, 9), StoreOrd::Release)).0,
            Issue::Done
        );
    }

    #[test]
    fn counter_overflow_closes_epoch_with_empty_release() {
        let mut c = cfg();
        c.widths.cnt_bits = 1; // modulus 2: one relaxed store per epoch
        let mut core = CordCore::new(CoreId(0), &c);
        let (r1, fx1) = issue(&mut core, &st(addr_on_slice(0, 0), StoreOrd::Relaxed));
        assert_eq!(r1, Issue::Done);
        assert_eq!(sends(&fx1).len(), 1);
        assert_eq!(core.epoch(), 0);
        // Second relaxed store would overflow the 1-bit counter: an empty
        // Release closes epoch 0 first.
        let (r2, fx2) = issue(&mut core, &st(addr_on_slice(0, 1), StoreOrd::Relaxed));
        assert_eq!(r2, Issue::Done);
        let msgs = sends(&fx2);
        assert_eq!(msgs.len(), 2, "empty Release + the relaxed store");
        assert!(matches!(
            msgs[0].kind,
            MsgKind::WtStore {
                ord: StoreOrd::Release,
                bytes: 0,
                ..
            }
        ));
        assert_eq!(core.epoch(), 1);
    }

    #[test]
    fn tso_orders_every_store_at_directory() {
        let c = cfg().with_model(ConsistencyModel::Tso);
        let mut core = CordCore::new(CoreId(0), &c);
        let (r1, fx1) = issue(&mut core, &st(addr_on_slice(0, 0), StoreOrd::Relaxed));
        let (r2, fx2) = issue(&mut core, &st(addr_on_slice(1, 0), StoreOrd::Relaxed));
        assert_eq!(
            (r1, r2),
            (Issue::Done, Issue::Done),
            "no source stalls under TSO"
        );
        // First store: plain release-path store, no pending dirs.
        assert_eq!(sends(&fx1).len(), 1);
        // Second store to a different directory must request a notification
        // from the first store's directory.
        let msgs2 = sends(&fx2);
        assert_eq!(msgs2.len(), 2);
        assert!(msgs2
            .iter()
            .any(|m| matches!(m.kind, MsgKind::ReqNotify { .. })));
        assert_eq!(core.epoch(), 2, "every TSO store consumes an epoch");
    }

    #[test]
    fn fence_release_broadcasts_empty_releases() {
        let mut core = CordCore::new(CoreId(0), &cfg());
        issue(&mut core, &st(addr_on_slice(1, 0), StoreOrd::Relaxed));
        issue(&mut core, &st(addr_on_slice(2, 0), StoreOrd::Relaxed));
        let (r, fx) = issue(
            &mut core,
            &Op::Fence {
                kind: FenceKind::Release,
            },
        );
        assert_eq!(r, Issue::Stall(StallCause::AckWait));
        let msgs = sends(&fx);
        assert_eq!(msgs.len(), 2, "one empty Release per pending directory");
        for m in &msgs {
            assert!(matches!(
                m.kind,
                MsgKind::WtStore {
                    ord: StoreOrd::Release,
                    bytes: 0,
                    needs_ack: true,
                    ..
                }
            ));
        }
        // Both acks release the fence (tids 0/1 went to the relaxed stores).
        ack(&mut core, 2);
        let (r2, _) = issue(
            &mut core,
            &Op::Fence {
                kind: FenceKind::Release,
            },
        );
        assert_eq!(r2, Issue::Stall(StallCause::AckWait));
        ack(&mut core, 3);
        let (r3, _) = issue(
            &mut core,
            &Op::Fence {
                kind: FenceKind::Release,
            },
        );
        assert_eq!(r3, Issue::Done);
        // An idle fence is free.
        let (r4, fx4) = issue(
            &mut core,
            &Op::Fence {
                kind: FenceKind::Full,
            },
        );
        assert_eq!(r4, Issue::Done);
        assert!(fx4.is_empty());
    }

    #[test]
    fn out_of_order_acks_free_their_own_entries_and_recovery_reissues_in_tid_order() {
        let mut core = CordCore::new(CoreId(0), &cfg());
        let inflight = |core: &CordCore| core.inflight.iter().map(|&(t, _)| t).collect::<Vec<_>>();
        let unacked = |core: &CordCore| core.unacked.keys().copied().collect::<Vec<_>>();
        // Releases alternate between directories 0 and 1: tid k, epoch k.
        for k in 0..4 {
            let (r, _) = issue(&mut core, &st(addr_on_slice(k % 2, k), StoreOrd::Release));
            assert_eq!(r, Issue::Done);
        }
        assert_eq!(inflight(&core), vec![0, 1, 2, 3]);
        // Directory 0 acks tid 2 before directory 1 acks tid 1.
        ack(&mut core, 2);
        assert_eq!(inflight(&core), vec![0, 1, 3]);
        assert_eq!(
            unacked(&core),
            vec![(0, DirId(0)), (1, DirId(1)), (3, DirId(1))]
        );
        ack(&mut core, 1);
        assert_eq!(inflight(&core), vec![0, 3]);
        assert_eq!(unacked(&core), vec![(0, DirId(0)), (3, DirId(1))]);
        // A fence closes epoch 4 with one empty Release per directory.
        issue(&mut core, &st(addr_on_slice(0, 9), StoreOrd::Relaxed));
        issue(&mut core, &st(addr_on_slice(1, 9), StoreOrd::Relaxed));
        let fence = Op::Fence {
            kind: FenceKind::Release,
        };
        assert_eq!(
            issue(&mut core, &fence).0,
            Issue::Stall(StallCause::AckWait)
        );
        assert_eq!(inflight(&core), vec![0, 3, 6, 7]);

        // Both directories crash; each poll re-issues, in tid order, every
        // Release whose older epochs are all acknowledged.
        let mut fx = Vec::new();
        let mut ctx = CoreCtx::new(Time::from_ns(500), &mut fx);
        core.on_dir_recover(DirId(0), &mut ctx);
        core.on_dir_recover(DirId(1), &mut ctx);
        let poll = |core: &mut CordCore| {
            let mut fx = Vec::new();
            let done = core.finish_recover(&mut CoreCtx::new(Time::from_ns(600), &mut fx));
            let tids: Vec<u64> = sends(&fx)
                .iter()
                .filter_map(|m| match m.kind {
                    MsgKind::WtStore {
                        tid,
                        ord: StoreOrd::Release,
                        ..
                    } => Some(tid),
                    _ => None,
                })
                .collect();
            (done, tids)
        };
        assert_eq!(poll(&mut core), (false, vec![0]));
        assert_eq!(poll(&mut core), (false, vec![]), "re-issues are sent once");
        ack(&mut core, 0);
        assert_eq!(poll(&mut core), (false, vec![3]));
        ack(&mut core, 3);
        assert_eq!(poll(&mut core), (false, vec![6, 7]));
        ack(&mut core, 7);
        assert_eq!(inflight(&core), vec![6]);
        assert_eq!(unacked(&core), vec![(4, DirId(0))]);
        ack(&mut core, 6);
        assert_eq!(poll(&mut core), (true, vec![]));
        assert!(core.quiesced());
        assert!(core.unacked.is_empty());
    }

    #[test]
    fn storage_stats_reflect_peaks() {
        let mut core = CordCore::new(CoreId(0), &cfg());
        issue(&mut core, &st(addr_on_slice(0, 0), StoreOrd::Relaxed));
        issue(&mut core, &st(addr_on_slice(1, 0), StoreOrd::Relaxed));
        issue(&mut core, &st(addr_on_slice(2, 0), StoreOrd::Release));
        let s = core.stats();
        assert_eq!(s.peak_cnt_bytes, 2 * PROC_CNT_ENTRY_BYTES);
        assert_eq!(s.peak_other_bytes, PROC_UNACKED_ENTRY_BYTES);
        assert_eq!(s.peak_total(), 12);
    }
}
