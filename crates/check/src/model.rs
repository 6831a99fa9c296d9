//! Abstract operational models of CORD, source ordering, and message
//! passing, for explicit-state model checking.
//!
//! Unlike the performance simulator (whose fabric delivers FIFO per
//! channel), the checked network is a **multiset of in-flight messages with
//! arbitrary delivery order** — except message passing's defining
//! per-channel FIFO. Ordering-sensitive deliveries (CORD Release stores and
//! requests-for-notification) are *guarded*: a message stays in the network
//! until its commit conditions hold, modeling the directory's recycling
//! buffer without extra state.
//!
//! Epoch numbers and store counters are carried as unbounded logical values
//! while the configured moduli gate the *processor-side* overflow stalls —
//! exactly the live-span invariant real hardware needs to disambiguate
//! wrapped wire values (see `cord::CordCore` docs). Threads can run
//! different protocols in one system (paper §4.5's mixed CORD/source-
//! ordering scenario).

use std::sync::Arc;

use cord_proto::{FenceKind, StoreOrd};

use crate::litmus::{LOp, Litmus};

/// Protocol a thread runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadProto {
    /// Directory ordering (this paper).
    Cord,
    /// Source ordering.
    So,
    /// Message passing (PCIe-style posted writes).
    Mp,
}

/// Model-checking configuration.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Per-thread protocol (mixing CORD and SO is allowed; MP must be
    /// system-wide).
    pub protos: Vec<ThreadProto>,
    /// Number of directories.
    pub dirs: u8,
    /// Epoch wire-space size (2^epoch_bits).
    pub epoch_modulus: u64,
    /// Store-counter wire-space size (2^cnt_bits).
    pub cnt_modulus: u64,
    /// Processor unacknowledged-epoch table capacity.
    pub proc_unacked_cap: usize,
    /// Directory per-processor store-counter capacity.
    pub dir_cnt_cap: usize,
    /// Directory per-processor notification-counter capacity.
    pub dir_noti_cap: usize,
    /// Enforce Total Store Ordering (paper §6): every store is totally
    /// ordered — CORD threads run every store down the Release-Release
    /// path; SO threads acknowledge stores one at a time.
    pub tso: bool,
}

impl CheckConfig {
    /// A comfortably-provisioned configuration for `threads` CORD threads.
    pub fn cord(threads: usize, dirs: u8) -> Self {
        CheckConfig {
            protos: vec![ThreadProto::Cord; threads],
            dirs,
            epoch_modulus: 256,
            cnt_modulus: 1 << 32,
            proc_unacked_cap: 8,
            dir_cnt_cap: 8,
            dir_noti_cap: 16,
            tso: false,
        }
    }

    /// All-threads source ordering.
    pub fn so(threads: usize, dirs: u8) -> Self {
        CheckConfig {
            protos: vec![ThreadProto::So; threads],
            ..Self::cord(threads, dirs)
        }
    }

    /// All-threads message passing.
    pub fn mp(threads: usize, dirs: u8) -> Self {
        CheckConfig {
            protos: vec![ThreadProto::Mp; threads],
            ..Self::cord(threads, dirs)
        }
    }

    fn validate(&self) {
        let has_mp = self.protos.contains(&ThreadProto::Mp);
        if has_mp {
            assert!(
                self.protos.iter().all(|&p| p == ThreadProto::Mp),
                "message passing cannot be mixed with shared-memory protocols"
            );
        }
        assert!(self.proc_unacked_cap >= 1 && self.dir_cnt_cap >= 1 && self.dir_noti_cap >= 1);
        assert!(self.epoch_modulus >= 2 && self.cnt_modulus >= 2);
    }
}

/// In-flight protocol messages.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NetMsg {
    /// CORD Relaxed write-through store.
    CordRelaxed {
        t: u8,
        dir: u8,
        var: u8,
        val: u64,
        ep: u64,
    },
    /// CORD Release store (`var: None` = empty barrier release).
    CordRelease {
        t: u8,
        dir: u8,
        var: Option<u8>,
        val: u64,
        ep: u64,
        cnt: u64,
        last_prev: Option<u64>,
        noti_cnt: u8,
    },
    /// CORD request-for-notification to pending directory `pend`.
    ReqNotify {
        t: u8,
        pend: u8,
        ep: u64,
        relaxed_cnt: u64,
        last_unacked: Option<u64>,
        dst: u8,
    },
    /// CORD inter-directory notification.
    Notify { t: u8, dst: u8, ep: u64 },
    /// CORD Release acknowledgment.
    CordAck { t: u8, ep: u64, dir: u8 },
    /// Atomic fetch-add request (all protocols; `rel`+CORD fields mirror a
    /// Release store when `release` is set).
    AtomicReq {
        t: u8,
        dir: u8,
        var: u8,
        add: u64,
        /// CORD: epoch this atomic belongs to (Relaxed) or closes (Release).
        ep: u64,
        /// CORD Release fields (cnt/last_prev/noti like CordRelease).
        release: Option<(u64, Option<u64>, u8)>,
        /// MP: channel sequence number (MP atomics are non-posted but still
        /// channel-ordered).
        seq: u64,
        /// SO: no extra fields (the response is the acknowledgment).
        so: bool,
    },
    /// Atomic response: old value (and, for CORD Release atomics, the ack).
    AtomicResp {
        t: u8,
        old: u64,
        reg: u8,
        ack: Option<(u64, u8)>,
    },
    /// Source-ordered write-through store (always acknowledged).
    SoStore { t: u8, dir: u8, var: u8, val: u64 },
    /// Source-ordering acknowledgment.
    SoAck { t: u8 },
    /// Posted message-passing write (FIFO per (thread, dir) channel).
    MpWrite {
        t: u8,
        dir: u8,
        var: u8,
        val: u64,
        seq: u64,
    },
}

/// One labeled transition of the abstract model: either a thread executed
/// its next program operation, or an in-flight message committed at its
/// destination. A sequence of steps from [`Model::init`] is a complete
/// interleaving — the raw material for counterexample narration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Thread `t` executed operation `op` (and emitted any protocol
    /// messages that operation entails).
    Thread {
        /// Thread index.
        t: u8,
        /// The program operation executed.
        op: LOp,
    },
    /// The message was delivered and its guarded effects applied.
    Deliver(NetMsg),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct ThreadSt {
    pc: u8,
    regs: [u64; 4],
    /// CORD: current epoch.
    ep: u64,
    /// CORD: relaxed-store counters per directory (current epoch).
    cnt: Vec<u64>,
    /// CORD: unacknowledged (epoch, directory) pairs, sorted.
    unacked: Vec<(u64, u8)>,
    /// CORD: a fence has broadcast its empty releases.
    fence_sent: bool,
    /// SO: outstanding unacknowledged stores.
    outstanding: u8,
    /// MP: next channel sequence number per directory.
    chan_next: Vec<u64>,
    /// Blocked on an atomic response (destination register).
    wait_atomic: Option<u8>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct DirSt {
    /// Cnt[tid, ep] (sorted association list).
    cnt: Vec<(u8, u64, u64)>,
    /// notiCnt[tid, ep].
    noti: Vec<(u8, u64, u64)>,
    /// largestEp[tid].
    largest: Vec<(u8, u64)>,
    /// MP: next expected channel sequence per thread.
    chan_expect: Vec<u64>,
}

/// A complete system state.
///
/// Threads and directories sit behind [`Arc`]s, copy-on-write: a successor
/// shares every thread and directory its transition leaves alone, and
/// `thread_mut` / `dir_mut` unshare one before writing. `Arc` forwards
/// `Hash`, `Ord` and `Debug` to its contents, so sharing is invisible to
/// fingerprints, canonical order and rendered states. `mem` and `net` are
/// plain vectors: nearly every transition rewrites `net`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct State {
    threads: Vec<Arc<ThreadSt>>,
    dirs: Vec<Arc<DirSt>>,
    /// Committed value per variable (each variable has one home directory).
    mem: Vec<u64>,
    /// In-flight messages (sorted multiset).
    net: Vec<NetMsg>,
}

impl State {
    /// Final register files (thread-major).
    pub fn regs(&self) -> Vec<Vec<u64>> {
        self.threads.iter().map(|t| t.regs.to_vec()).collect()
    }

    /// Flattened registers for outcome sets.
    pub fn flat_regs(&self) -> Vec<u64> {
        self.threads.iter().flat_map(|t| t.regs).collect()
    }

    /// Final (committed) value of every variable.
    pub fn mem(&self) -> &[u64] {
        &self.mem
    }

    /// Flattened outcome: registers (thread-major) then memory.
    pub fn outcome(&self) -> Vec<u64> {
        let mut v = self.flat_regs();
        v.extend_from_slice(&self.mem);
        v
    }

    /// Thread `t`, unshared from every other state so it can be written.
    fn thread_mut(&mut self, t: usize) -> &mut ThreadSt {
        Arc::make_mut(&mut self.threads[t])
    }

    /// Directory `d`, unshared from every other state so it can be written.
    fn dir_mut(&mut self, d: usize) -> &mut DirSt {
        Arc::make_mut(&mut self.dirs[d])
    }

    /// Writes the state relabeled under the group element `p` into `out`,
    /// reusing `out`'s buffers; `out` may hold a state of any shape. Every
    /// ID-keyed structure — per-thread/per-directory vectors, association
    /// lists, and in-flight messages — is remapped and re-sorted, so the
    /// result is a well-formed state. Only meaningful for permutations that
    /// are actual automorphisms of the model (see [`Symmetry`]).
    ///
    /// A thread's contents are keyed by directory alone, so when `p` fixes
    /// every directory each image thread *is* a source thread: it is shared,
    /// not rebuilt.
    fn permute_into(&self, p: &Perm, out: &mut State) {
        let (tp, dp) = (&p.tp[..], &p.dp[..]);
        if p.fixes_dirs {
            out.threads.clear();
            out.threads.extend(
                p.inv_t
                    .iter()
                    .map(|&o| Arc::clone(&self.threads[o as usize])),
            );
        } else {
            out.threads.truncate(self.threads.len());
            for (j, &o) in p.inv_t.iter().enumerate() {
                let src = &self.threads[o as usize];
                let ThreadSt {
                    pc,
                    regs,
                    ep,
                    cnt,
                    unacked,
                    fence_sent,
                    outstanding,
                    chan_next,
                    wait_atomic,
                } = &**src;
                let img = slot_mut(&mut out.threads, j, src);
                img.pc = *pc;
                img.regs = *regs;
                img.ep = *ep;
                img.cnt.clear();
                img.cnt.extend(p.inv_d.iter().map(|&d| cnt[d as usize]));
                img.unacked.clear();
                img.unacked
                    .extend(unacked.iter().map(|&(ep, d)| (ep, dp[d as usize])));
                img.unacked.sort_unstable();
                img.fence_sent = *fence_sent;
                img.outstanding = *outstanding;
                img.chan_next.clear();
                img.chan_next
                    .extend(p.inv_d.iter().map(|&d| chan_next[d as usize]));
                img.wait_atomic = *wait_atomic;
            }
        }
        out.dirs.truncate(self.dirs.len());
        for (j, &o) in p.inv_d.iter().enumerate() {
            let src = &self.dirs[o as usize];
            let DirSt {
                cnt,
                noti,
                largest,
                chan_expect,
            } = &**src;
            let img = slot_mut(&mut out.dirs, j, src);
            remap_assoc(cnt, tp, &mut img.cnt);
            remap_assoc(noti, tp, &mut img.noti);
            img.largest.clear();
            img.largest
                .extend(largest.iter().map(|&(t, ep)| (tp[t as usize], ep)));
            img.largest.sort_unstable();
            img.chan_expect.clear();
            img.chan_expect
                .extend(p.inv_t.iter().map(|&t| chan_expect[t as usize]));
        }
        out.mem.clone_from(&self.mem);
        out.net.clear();
        out.net
            .extend(self.net.iter().map(|m| permute_msg(m, tp, dp)));
        out.net.sort_unstable();
    }
}

/// Slot `j` of a scratch vector as a value to overwrite: the slot's own
/// buffers unless another state shares it, and a copy of `like` when the
/// vector is one short.
fn slot_mut<'a, T: Clone>(v: &'a mut Vec<Arc<T>>, j: usize, like: &Arc<T>) -> &'a mut T {
    if j == v.len() {
        v.push(Arc::clone(like));
    }
    Arc::make_mut(&mut v[j])
}

/// Writes `list` with thread IDs mapped through `tp` into `out`, re-sorted.
fn remap_assoc(list: &[(u8, u64, u64)], tp: &[u8], out: &mut Vec<(u8, u64, u64)>) {
    out.clear();
    out.extend(list.iter().map(|&(t, ep, v)| (tp[t as usize], ep, v)));
    out.sort_unstable();
}

fn permute_msg(m: &NetMsg, tp: &[u8], dp: &[u8]) -> NetMsg {
    let t_ = |t: u8| tp[t as usize];
    let d_ = |d: u8| dp[d as usize];
    match *m {
        NetMsg::CordRelaxed {
            t,
            dir,
            var,
            val,
            ep,
        } => NetMsg::CordRelaxed {
            t: t_(t),
            dir: d_(dir),
            var,
            val,
            ep,
        },
        NetMsg::CordRelease {
            t,
            dir,
            var,
            val,
            ep,
            cnt,
            last_prev,
            noti_cnt,
        } => NetMsg::CordRelease {
            t: t_(t),
            dir: d_(dir),
            var,
            val,
            ep,
            cnt,
            last_prev,
            noti_cnt,
        },
        NetMsg::ReqNotify {
            t,
            pend,
            ep,
            relaxed_cnt,
            last_unacked,
            dst,
        } => NetMsg::ReqNotify {
            t: t_(t),
            pend: d_(pend),
            ep,
            relaxed_cnt,
            last_unacked,
            dst: d_(dst),
        },
        NetMsg::Notify { t, dst, ep } => NetMsg::Notify {
            t: t_(t),
            dst: d_(dst),
            ep,
        },
        NetMsg::CordAck { t, ep, dir } => NetMsg::CordAck {
            t: t_(t),
            ep,
            dir: d_(dir),
        },
        NetMsg::AtomicReq {
            t,
            dir,
            var,
            add,
            ep,
            release,
            seq,
            so,
        } => NetMsg::AtomicReq {
            t: t_(t),
            dir: d_(dir),
            var,
            add,
            ep,
            release,
            seq,
            so,
        },
        NetMsg::AtomicResp { t, old, reg, ack } => NetMsg::AtomicResp {
            t: t_(t),
            old,
            reg,
            ack: ack.map(|(ep, dir)| (ep, d_(dir))),
        },
        NetMsg::SoStore { t, dir, var, val } => NetMsg::SoStore {
            t: t_(t),
            dir: d_(dir),
            var,
            val,
        },
        NetMsg::SoAck { t } => NetMsg::SoAck { t: t_(t) },
        NetMsg::MpWrite {
            t,
            dir,
            var,
            val,
            seq,
        } => NetMsg::MpWrite {
            t: t_(t),
            dir: d_(dir),
            var,
            val,
            seq,
        },
    }
}

/// The model's structural symmetry group: permutations of thread IDs under
/// which the transition system is invariant (Murphi's scalarset reduction).
///
/// Two threads are interchangeable iff they run the **same program under
/// the same protocol**; the group is the direct product of the symmetric
/// groups on those equivalence classes. Groups larger than
/// [`Symmetry::MAX_ORDER`] degenerate to the trivial group (canonicalizing
/// would cost more than it saves).
///
/// Directory-ID permutations are automorphisms too (`State::permute_into`
/// handles both sorts), but within one model the only interchangeable
/// directories are those homing no variable — and unused directories are
/// stateless in every protocol here, so permuting them is the *identity*
/// on reachable states: including them would multiply canonicalization
/// cost for zero reduction. Directory symmetry pays off **across**
/// placements instead — placements equal up to a directory relabeling
/// yield identical reports and are deduplicated by
/// [`explore_all_placements`](crate::explore_all_placements).
///
/// [`Symmetry::canonicalize`] maps a state to the lexicographic minimum of
/// its orbit; exploring only canonical representatives divides the state
/// space by up to the group order while preserving reachability,
/// deadlock-freedom, and — together with [`Symmetry::orbit_outcomes`] —
/// the exact raw outcome set.
#[derive(Debug, Clone)]
pub struct Symmetry {
    /// Non-identity group elements.
    perms: Vec<Perm>,
    threads: usize,
}

/// One group element: thread and directory maps with their inverses.
#[derive(Debug, Clone)]
struct Perm {
    /// Thread map, old ID → new ID.
    tp: Vec<u8>,
    /// Directory map, old ID → new ID.
    dp: Vec<u8>,
    /// Thread map, new ID → old ID.
    inv_t: Vec<u8>,
    /// Directory map, new ID → old ID.
    inv_d: Vec<u8>,
    /// `dp` is the identity.
    fixes_dirs: bool,
}

impl Perm {
    fn new(tp: Vec<u8>, dp: Vec<u8>) -> Self {
        let inverse = |map: &[u8]| {
            let mut inv = vec![0u8; map.len()];
            for (old, &new) in map.iter().enumerate() {
                inv[new as usize] = old as u8;
            }
            inv
        };
        Perm {
            inv_t: inverse(&tp),
            inv_d: inverse(&dp),
            fixes_dirs: dp.iter().enumerate().all(|(i, &d)| d as usize == i),
            tp,
            dp,
        }
    }
}

/// Reusable buffers for [`Symmetry::canonicalize`]: the image being built
/// and the least image so far. Keep one per worker; states of any model may
/// pass through it.
#[derive(Debug)]
pub struct CanonScratch {
    best: State,
    cur: State,
}

impl Default for CanonScratch {
    fn default() -> Self {
        let empty = || State {
            threads: Vec::new(),
            dirs: Vec::new(),
            mem: Vec::new(),
            net: Vec::new(),
        };
        CanonScratch {
            best: empty(),
            cur: empty(),
        }
    }
}

impl Symmetry {
    /// Largest group order that is still worth canonicalizing against.
    pub const MAX_ORDER: usize = 64;

    fn new(ops: &[Vec<LOp>], cfg: &CheckConfig) -> Self {
        let nt = ops.len();
        let nd = cfg.dirs as usize;
        // Thread classes: identical (program, protocol).
        let mut tclasses: Vec<Vec<u8>> = Vec::new();
        for t in 0..nt {
            let found = tclasses.iter_mut().find(|c| {
                let r = c[0] as usize;
                ops[r] == ops[t] && cfg.protos[r] == cfg.protos[t]
            });
            match found {
                Some(c) => c.push(t as u8),
                None => tclasses.push(vec![t as u8]),
            }
        }
        let order = tclasses
            .iter()
            .map(|c| factorial(c.len()))
            .fold(1, usize::saturating_mul);
        if order <= 1 || order > Self::MAX_ORDER {
            return Symmetry {
                perms: Vec::new(),
                threads: nt,
            };
        }
        // Enumerate the full group: the product of per-class permutations.
        let mut tperms = vec![(0..nt as u8).collect::<Vec<u8>>()];
        for class in &tclasses {
            tperms = extend_perms(tperms, class);
        }
        let dp_id: Vec<u8> = (0..nd as u8).collect();
        let perms = tperms
            .into_iter()
            .filter(|tpm| tpm.iter().enumerate().any(|(i, &v)| v != i as u8))
            .map(|tpm| Perm::new(tpm, dp_id.clone()))
            .collect();
        Symmetry { perms, threads: nt }
    }

    /// Group order (1 = trivial: no reduction possible or worthwhile).
    pub fn order(&self) -> usize {
        self.perms.len() + 1
    }

    /// Whether the group is the identity alone.
    pub fn is_trivial(&self) -> bool {
        self.perms.is_empty()
    }

    /// The canonical representative of `s`'s orbit: the lexicographically
    /// smallest permuted image (identity included). Images are built in
    /// `scratch`, whose buffers carry over between calls; a winning image
    /// is returned and `s` takes its place in the scratch.
    pub fn canonicalize(&self, s: State, scratch: &mut CanonScratch) -> State {
        let CanonScratch { best, cur } = scratch;
        let mut found = false;
        for p in &self.perms {
            s.permute_into(p, cur);
            if !found || *cur < *best {
                std::mem::swap(cur, best);
                found = true;
            }
        }
        if found && *best < s {
            std::mem::replace(best, s)
        } else {
            s
        }
    }

    /// All non-identity images of a flattened outcome (registers
    /// thread-major, then memory) under the group. Inserting these
    /// alongside each canonical final state's own outcome reconstructs the
    /// exact outcome set of an unreduced exploration: directory
    /// permutations never touch an outcome, and thread permutations only
    /// shuffle whole register blocks.
    pub fn orbit_outcomes(&self, outcome: &[u64]) -> Vec<Vec<u64>> {
        debug_assert!(outcome.len() >= self.threads * 4);
        let mut out = Vec::with_capacity(self.perms.len());
        for p in &self.perms {
            let mut img = outcome.to_vec();
            for (old, &new) in p.tp.iter().enumerate() {
                img[new as usize * 4..new as usize * 4 + 4]
                    .copy_from_slice(&outcome[old * 4..old * 4 + 4]);
            }
            out.push(img);
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// `n!`, saturating: any group too large to count is far past
/// [`Symmetry::MAX_ORDER`] anyway.
fn factorial(n: usize) -> usize {
    (1..=n).fold(1, usize::saturating_mul)
}

/// Extends each base permutation with every permutation of `class` members
/// among themselves (IDs outside `class` keep their base images).
fn extend_perms(base: Vec<Vec<u8>>, class: &[u8]) -> Vec<Vec<u8>> {
    if class.len() <= 1 {
        return base;
    }
    let mut arrangements: Vec<Vec<u8>> = Vec::new();
    push_arrangements(&mut class.to_vec(), 0, &mut arrangements);
    let mut out = Vec::with_capacity(base.len() * arrangements.len());
    for b in &base {
        for arr in &arrangements {
            let mut p = b.clone();
            for (slot, &member) in class.iter().enumerate() {
                p[member as usize] = arr[slot];
            }
            out.push(p);
        }
    }
    out
}

fn push_arrangements(items: &mut Vec<u8>, k: usize, out: &mut Vec<Vec<u8>>) {
    if k == items.len() {
        out.push(items.clone());
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        push_arrangements(items, k + 1, out);
        items.swap(k, i);
    }
}

fn assoc_get(list: &[(u8, u64, u64)], t: u8, ep: u64) -> u64 {
    list.iter()
        .find(|&&(a, b, _)| a == t && b == ep)
        .map_or(0, |&(_, _, v)| v)
}

fn assoc_bump(list: &mut Vec<(u8, u64, u64)>, t: u8, ep: u64, cap_per_thread: usize, what: &str) {
    if let Some(e) = list.iter_mut().find(|e| e.0 == t && e.1 == ep) {
        e.2 += 1;
        return;
    }
    let used = list.iter().filter(|e| e.0 == t).count();
    assert!(
        used < cap_per_thread,
        "{what} table overflow for thread {t}: the processor-side \
         provisioning check must prevent this"
    );
    list.push((t, ep, 1));
    list.sort_unstable();
}

fn assoc_remove(list: &mut Vec<(u8, u64, u64)>, t: u8, ep: u64) {
    list.retain(|&(a, b, _)| !(a == t && b == ep));
}

fn largest_get(list: &[(u8, u64)], t: u8) -> Option<u64> {
    list.iter().find(|&&(a, _)| a == t).map(|&(_, v)| v)
}

fn largest_set(list: &mut Vec<(u8, u64)>, t: u8, ep: u64) {
    if let Some(e) = list.iter_mut().find(|e| e.0 == t) {
        e.1 = e.1.max(ep);
    } else {
        list.push((t, ep));
        list.sort_unstable();
    }
}

/// The model: a litmus test + placement + configuration. Borrows the
/// configuration so building one per placement costs no `CheckConfig`
/// clone.
#[derive(Debug, Clone)]
pub struct Model<'a> {
    cfg: &'a CheckConfig,
    ops: Vec<Vec<LOp>>,
    /// Home directory per variable.
    placement: Vec<u8>,
}

impl<'a> Model<'a> {
    /// Builds a model for `lit` with variables placed per `placement`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent with the test.
    pub fn new(cfg: &'a CheckConfig, lit: &Litmus, placement: &[u8]) -> Self {
        cfg.validate();
        assert_eq!(
            cfg.protos.len(),
            lit.thread_count(),
            "one protocol per thread"
        );
        assert_eq!(placement.len(), lit.vars as usize, "one home per variable");
        assert!(
            placement.iter().all(|&d| d < cfg.dirs),
            "placement within dirs"
        );
        Model {
            cfg,
            ops: lit.threads.clone(),
            placement: placement.to_vec(),
        }
    }

    /// The initial state (all variables zero, nothing in flight).
    pub fn init(&self) -> State {
        let dirs = self.cfg.dirs as usize;
        let threads = self.ops.len();
        State {
            threads: (0..threads)
                .map(|_| {
                    Arc::new(ThreadSt {
                        pc: 0,
                        regs: [0; 4],
                        ep: 0,
                        cnt: vec![0; dirs],
                        unacked: Vec::new(),
                        fence_sent: false,
                        outstanding: 0,
                        chan_next: vec![0; dirs],
                        wait_atomic: None,
                    })
                })
                .collect(),
            dirs: (0..dirs)
                .map(|_| {
                    Arc::new(DirSt {
                        cnt: Vec::new(),
                        noti: Vec::new(),
                        largest: Vec::new(),
                        chan_expect: vec![0; threads],
                    })
                })
                .collect(),
            mem: vec![0; self.placement.len()],
            net: Vec::new(),
        }
    }

    /// Whether `s` is a completed execution: programs done, network drained,
    /// protocol state quiesced.
    pub fn is_final(&self, s: &State) -> bool {
        s.net.is_empty()
            && s.threads.iter().enumerate().all(|(i, t)| {
                t.pc as usize == self.ops[i].len()
                    && t.unacked.is_empty()
                    && t.outstanding == 0
                    && !t.fence_sent
                    && t.wait_atomic.is_none()
            })
    }

    /// All states reachable in one transition.
    pub fn successors(&self, s: &State) -> Vec<State> {
        let mut out = Vec::new();
        self.successors_into(s, &mut out);
        out
    }

    /// Like [`successors`](Self::successors) but labels every transition
    /// with the [`Step`] that produced it, in the same enumeration order.
    /// Used to reconstruct and narrate counterexample interleavings.
    pub fn successors_labeled(&self, s: &State) -> Vec<(Step, State)> {
        let mut out = Vec::new();
        for t in 0..s.threads.len() {
            if let Some(n) = self.thread_step(s, t) {
                let op = self.ops[t][s.threads[t].pc as usize];
                out.push((Step::Thread { t: t as u8, op }, n));
            }
        }
        for (i, msg) in s.net.iter().enumerate() {
            if let Some(n) = self.deliver(s, i, msg) {
                out.push((Step::Deliver(msg.clone()), n));
            }
        }
        out
    }

    /// Like [`successors`](Self::successors) but reuses `out` as scratch
    /// (cleared first), so a search loop allocates one buffer, not one per
    /// expanded state.
    pub fn successors_into(&self, s: &State, out: &mut Vec<State>) {
        out.clear();
        for t in 0..s.threads.len() {
            if let Some(n) = self.thread_step(s, t) {
                out.push(n);
            }
        }
        for (i, msg) in s.net.iter().enumerate() {
            if let Some(n) = self.deliver(s, i, msg) {
                out.push(n);
            }
        }
    }

    /// The model's symmetry group (see [`Symmetry`]).
    pub fn symmetry(&self) -> Symmetry {
        Symmetry::new(&self.ops, self.cfg)
    }

    fn home(&self, var: u8) -> u8 {
        self.placement[var as usize]
    }

    // ---- thread transitions -------------------------------------------

    fn thread_step(&self, s: &State, t: usize) -> Option<State> {
        if s.threads[t].wait_atomic.is_some() {
            return None; // blocked on an atomic response
        }
        let ops = &self.ops[t];
        let pc = s.threads[t].pc as usize;
        let op = *ops.get(pc)?;
        match self.cfg.protos[t] {
            ThreadProto::Cord => self.cord_step(s, t, op),
            ThreadProto::So => self.so_step(s, t, op),
            ThreadProto::Mp => self.mp_step(s, t, op),
        }
    }

    fn read_step(&self, s: &State, t: usize, op: LOp) -> Option<State> {
        match op {
            LOp::Load { var, reg, .. } => {
                let mut n = s.clone();
                n.thread_mut(t).regs[reg as usize] = s.mem[var as usize];
                n.thread_mut(t).pc += 1;
                Some(n)
            }
            LOp::WaitAcq { var, val } => {
                if s.mem[var as usize] != val {
                    return None; // spin: enabled only once the value lands
                }
                let mut n = s.clone();
                n.thread_mut(t).pc += 1;
                Some(n)
            }
            _ => unreachable!("read_step on non-read"),
        }
    }

    /// CORD Release-store emission (paper Algorithm 1 lines 5-13); returns
    /// `None` when a §4.1/§4.3 overflow/provisioning guard stalls it.
    fn cord_release(
        &self,
        s: &State,
        t: usize,
        dst: u8,
        var: Option<u8>,
        val: u64,
    ) -> Option<State> {
        let th = &s.threads[t];
        // Epoch-span wrap guard (§4.1).
        if let Some(&(oldest, _)) = th.unacked.first() {
            if th.ep - oldest + 1 > self.cfg.epoch_modulus {
                return None;
            }
        }
        // Processor table guard (§4.3).
        if th.unacked.len() + 1 > self.cfg.proc_unacked_cap {
            return None;
        }
        // Conservative destination-directory provisioning guard (§4.3).
        if th.unacked.len() + 1 > self.cfg.dir_cnt_cap.min(self.cfg.dir_noti_cap) {
            return None;
        }
        let mut n = s.clone();
        let ep = th.ep;
        let pending: Vec<u8> = (0..self.cfg.dirs)
            .filter(|&d| d != dst)
            .filter(|&d| th.cnt[d as usize] > 0 || th.unacked.iter().any(|&(_, ud)| ud == d))
            .collect();
        for &p in &pending {
            n.net.push(NetMsg::ReqNotify {
                t: t as u8,
                pend: p,
                ep,
                relaxed_cnt: th.cnt[p as usize],
                last_unacked: last_unacked_for(th, p),
                dst,
            });
        }
        n.net.push(NetMsg::CordRelease {
            t: t as u8,
            dir: dst,
            var,
            val,
            ep,
            cnt: th.cnt[dst as usize],
            last_prev: last_unacked_for(th, dst),
            noti_cnt: pending.len() as u8,
        });
        let nth = n.thread_mut(t);
        nth.unacked.push((ep, dst));
        nth.unacked.sort_unstable();
        nth.ep += 1;
        nth.cnt.iter_mut().for_each(|c| *c = 0);
        n.net.sort_unstable();
        Some(n)
    }

    fn cord_step(&self, s: &State, t: usize, op: LOp) -> Option<State> {
        match op {
            LOp::Store {
                var,
                val,
                ord: StoreOrd::Relaxed,
            } if !self.cfg.tso => {
                let dst = self.home(var);
                // Store-counter wrap: close the epoch with an empty Release
                // first (mirrors the engine's injection).
                let base = if s.threads[t].cnt[dst as usize] + 1 >= self.cfg.cnt_modulus {
                    self.cord_release(s, t, dst, None, 0)?
                } else {
                    s.clone()
                };
                // Conservative destination-directory provisioning guard
                // (§4.3): the store opens a CNT entry for the current epoch
                // while every unacked epoch may still hold one, so stall
                // until the table is provably wide enough (mirrors the
                // engine's backpressure; checked on the post-wrap state).
                if base.threads[t].unacked.len() + 1 > self.cfg.dir_cnt_cap {
                    return None;
                }
                let mut n = base;
                let ep = n.threads[t].ep;
                n.thread_mut(t).cnt[dst as usize] += 1;
                n.net.push(NetMsg::CordRelaxed {
                    t: t as u8,
                    dir: dst,
                    var,
                    val,
                    ep,
                });
                n.net.sort_unstable();
                n.thread_mut(t).pc += 1;
                Some(n)
            }
            LOp::Store { var, val, .. } => {
                // Release stores — and, under TSO, every store (§6).
                let mut n = self.cord_release(s, t, self.home(var), Some(var), val)?;
                n.thread_mut(t).pc += 1;
                Some(n)
            }
            LOp::Fence(FenceKind::Acquire) => {
                let mut n = s.clone();
                n.thread_mut(t).pc += 1;
                Some(n)
            }
            LOp::Fence(FenceKind::Release | FenceKind::Full) => {
                let th = &s.threads[t];
                let pending: Vec<u8> = (0..self.cfg.dirs)
                    .filter(|&d| {
                        th.cnt[d as usize] > 0 || th.unacked.iter().any(|&(_, ud)| ud == d)
                    })
                    .collect();
                if pending.is_empty() && th.unacked.is_empty() {
                    let mut n = s.clone();
                    n.thread_mut(t).pc += 1;
                    n.thread_mut(t).fence_sent = false;
                    return Some(n);
                }
                if th.fence_sent {
                    return None; // waiting for acknowledgments
                }
                // Broadcast empty Releases to every pending directory
                // (paper §4.4), all closing the same epoch.
                if let Some(&(oldest, _)) = th.unacked.first() {
                    if th.ep - oldest + 1 > self.cfg.epoch_modulus {
                        return None;
                    }
                }
                if th.unacked.len() + pending.len() > self.cfg.proc_unacked_cap {
                    return None;
                }
                let mut n = s.clone();
                let ep = th.ep;
                for &p in &pending {
                    n.net.push(NetMsg::CordRelease {
                        t: t as u8,
                        dir: p,
                        var: None,
                        val: 0,
                        ep,
                        cnt: th.cnt[p as usize],
                        last_prev: last_unacked_for(th, p),
                        noti_cnt: 0,
                    });
                    n.thread_mut(t).unacked.push((ep, p));
                }
                let nth = n.thread_mut(t);
                nth.unacked.sort_unstable();
                nth.ep += 1;
                nth.cnt.iter_mut().for_each(|c| *c = 0);
                nth.fence_sent = true;
                n.net.sort_unstable();
                Some(n)
            }
            LOp::FetchAdd { var, add, reg, ord } => {
                let dst = self.home(var);
                // Under TSO every atomic is totally ordered (§6).
                let ord = if self.cfg.tso { StoreOrd::Release } else { ord };
                match ord {
                    StoreOrd::Relaxed => {
                        // Same provisioning guard as a relaxed store: the
                        // atomic's CNT entry must fit beside every unacked
                        // epoch's.
                        if s.threads[t].unacked.len() + 1 > self.cfg.dir_cnt_cap {
                            return None;
                        }
                        let mut n = s.clone();
                        let ep = n.threads[t].ep;
                        n.thread_mut(t).cnt[dst as usize] += 1;
                        n.thread_mut(t).wait_atomic = Some(reg);
                        n.net.push(NetMsg::AtomicReq {
                            t: t as u8,
                            dir: dst,
                            var,
                            add,
                            ep,
                            release: None,
                            seq: 0,
                            so: false,
                        });
                        n.net.sort_unstable();
                        n.thread_mut(t).pc += 1;
                        Some(n)
                    }
                    StoreOrd::Release => {
                        // Mirror cord_release guards/emissions with an
                        // atomic carrier.
                        let th = &s.threads[t];
                        if let Some(&(oldest, _)) = th.unacked.first() {
                            if th.ep - oldest + 1 > self.cfg.epoch_modulus {
                                return None;
                            }
                        }
                        if th.unacked.len() + 1 > self.cfg.proc_unacked_cap {
                            return None;
                        }
                        if th.unacked.len() + 1 > self.cfg.dir_cnt_cap.min(self.cfg.dir_noti_cap) {
                            return None;
                        }
                        let mut n = s.clone();
                        let ep = th.ep;
                        let pending: Vec<u8> = (0..self.cfg.dirs)
                            .filter(|&d| d != dst)
                            .filter(|&d| {
                                th.cnt[d as usize] > 0 || th.unacked.iter().any(|&(_, ud)| ud == d)
                            })
                            .collect();
                        for &p in &pending {
                            n.net.push(NetMsg::ReqNotify {
                                t: t as u8,
                                pend: p,
                                ep,
                                relaxed_cnt: th.cnt[p as usize],
                                last_unacked: last_unacked_for(th, p),
                                dst,
                            });
                        }
                        n.net.push(NetMsg::AtomicReq {
                            t: t as u8,
                            dir: dst,
                            var,
                            add,
                            ep,
                            release: Some((
                                th.cnt[dst as usize],
                                last_unacked_for(th, dst),
                                pending.len() as u8,
                            )),
                            seq: 0,
                            so: false,
                        });
                        let nth = n.thread_mut(t);
                        nth.unacked.push((ep, dst));
                        nth.unacked.sort_unstable();
                        nth.ep += 1;
                        nth.cnt.iter_mut().for_each(|c| *c = 0);
                        nth.wait_atomic = Some(reg);
                        nth.pc += 1;
                        n.net.sort_unstable();
                        Some(n)
                    }
                }
            }
            LOp::Load { .. } | LOp::WaitAcq { .. } => self.read_step(s, t, op),
        }
    }

    fn so_step(&self, s: &State, t: usize, op: LOp) -> Option<State> {
        match op {
            LOp::Store { var, val, ord } => {
                let ordered = ord == StoreOrd::Release || self.cfg.tso;
                if ordered && s.threads[t].outstanding > 0 {
                    return None; // source ordering: wait for all acks
                }
                let mut n = s.clone();
                n.thread_mut(t).outstanding += 1;
                n.net.push(NetMsg::SoStore {
                    t: t as u8,
                    dir: self.home(var),
                    var,
                    val,
                });
                n.net.sort_unstable();
                n.thread_mut(t).pc += 1;
                Some(n)
            }
            LOp::Fence(FenceKind::Acquire) => {
                let mut n = s.clone();
                n.thread_mut(t).pc += 1;
                Some(n)
            }
            LOp::Fence(_) => {
                if s.threads[t].outstanding > 0 {
                    return None;
                }
                let mut n = s.clone();
                n.thread_mut(t).pc += 1;
                Some(n)
            }
            LOp::FetchAdd { var, add, reg, ord } => {
                if (ord == StoreOrd::Release || self.cfg.tso) && s.threads[t].outstanding > 0 {
                    return None;
                }
                let mut n = s.clone();
                n.thread_mut(t).outstanding += 1;
                n.thread_mut(t).wait_atomic = Some(reg);
                n.net.push(NetMsg::AtomicReq {
                    t: t as u8,
                    dir: self.home(var),
                    var,
                    add,
                    ep: 0,
                    release: None,
                    seq: 0,
                    so: true,
                });
                n.net.sort_unstable();
                n.thread_mut(t).pc += 1;
                Some(n)
            }
            LOp::Load { .. } | LOp::WaitAcq { .. } => self.read_step(s, t, op),
        }
    }

    fn mp_step(&self, s: &State, t: usize, op: LOp) -> Option<State> {
        match op {
            LOp::Store { var, val, .. } => {
                let dst = self.home(var);
                let mut n = s.clone();
                let seq = n.threads[t].chan_next[dst as usize];
                n.thread_mut(t).chan_next[dst as usize] += 1;
                n.net.push(NetMsg::MpWrite {
                    t: t as u8,
                    dir: dst,
                    var,
                    val,
                    seq,
                });
                n.net.sort_unstable();
                n.thread_mut(t).pc += 1;
                Some(n)
            }
            LOp::FetchAdd { var, add, reg, .. } => {
                let dst = self.home(var);
                let mut n = s.clone();
                let seq = n.threads[t].chan_next[dst as usize];
                n.thread_mut(t).chan_next[dst as usize] += 1;
                n.thread_mut(t).wait_atomic = Some(reg);
                n.net.push(NetMsg::AtomicReq {
                    t: t as u8,
                    dir: dst,
                    var,
                    add,
                    ep: 0,
                    release: None,
                    seq,
                    so: false,
                });
                n.net.sort_unstable();
                n.thread_mut(t).pc += 1;
                Some(n)
            }
            LOp::Fence(_) => {
                // MP fences only constrain point-to-point channels, which
                // are already FIFO: free (and insufficient — §3.2).
                let mut n = s.clone();
                n.thread_mut(t).pc += 1;
                Some(n)
            }
            LOp::Load { .. } | LOp::WaitAcq { .. } => self.read_step(s, t, op),
        }
    }

    // ---- delivery transitions ------------------------------------------

    fn deliver(&self, s: &State, idx: usize, msg: &NetMsg) -> Option<State> {
        match *msg {
            NetMsg::CordRelaxed {
                t,
                dir,
                var,
                val,
                ep,
            } => {
                let mut n = self.take(s, idx);
                n.mem[var as usize] = val;
                assoc_bump(
                    &mut n.dir_mut(dir as usize).cnt,
                    t,
                    ep,
                    self.cfg.dir_cnt_cap,
                    "store-counter",
                );
                Some(n)
            }
            NetMsg::CordRelease {
                t,
                dir,
                var,
                val,
                ep,
                cnt,
                last_prev,
                noti_cnt,
            } => {
                let d = &s.dirs[dir as usize];
                let cnt_ok = assoc_get(&d.cnt, t, ep) == cnt;
                let prev_ok =
                    last_prev.is_none_or(|e| largest_get(&d.largest, t).is_some_and(|l| l >= e));
                let noti_ok = assoc_get(&d.noti, t, ep) == noti_cnt as u64;
                if !(cnt_ok && prev_ok && noti_ok) {
                    return None; // recycled until conditions hold (Alg. 2 line 24)
                }
                let mut n = self.take(s, idx);
                if let Some(v) = var {
                    n.mem[v as usize] = val;
                }
                let nd = n.dir_mut(dir as usize);
                largest_set(&mut nd.largest, t, ep);
                assoc_remove(&mut nd.cnt, t, ep);
                assoc_remove(&mut nd.noti, t, ep);
                n.net.push(NetMsg::CordAck { t, ep, dir });
                n.net.sort_unstable();
                Some(n)
            }
            NetMsg::ReqNotify {
                t,
                pend,
                ep,
                relaxed_cnt,
                last_unacked,
                dst,
            } => {
                let d = &s.dirs[pend as usize];
                let cnt_ok = assoc_get(&d.cnt, t, ep) == relaxed_cnt;
                let prev_ok =
                    last_unacked.is_none_or(|e| largest_get(&d.largest, t).is_some_and(|l| l >= e));
                if !(cnt_ok && prev_ok) {
                    return None; // recycled (Alg. 2 line 28)
                }
                let mut n = self.take(s, idx);
                assoc_remove(&mut n.dir_mut(pend as usize).cnt, t, ep);
                n.net.push(NetMsg::Notify { t, dst, ep });
                n.net.sort_unstable();
                Some(n)
            }
            NetMsg::Notify { t, dst, ep } => {
                let mut n = self.take(s, idx);
                assoc_bump(
                    &mut n.dir_mut(dst as usize).noti,
                    t,
                    ep,
                    self.cfg.dir_noti_cap,
                    "notification-counter",
                );
                Some(n)
            }
            NetMsg::AtomicReq {
                t,
                dir,
                var,
                add,
                ep,
                release,
                seq,
                so,
            } => {
                let proto = self.cfg.protos[t as usize];
                if proto == ThreadProto::Mp && s.dirs[dir as usize].chan_expect[t as usize] != seq {
                    return None; // channel FIFO
                }
                if proto == ThreadProto::Cord {
                    if let Some((cnt, last_prev, noti_cnt)) = release {
                        let d = &s.dirs[dir as usize];
                        let cnt_ok = assoc_get(&d.cnt, t, ep) == cnt;
                        let prev_ok = last_prev
                            .is_none_or(|e| largest_get(&d.largest, t).is_some_and(|l| l >= e));
                        let noti_ok = assoc_get(&d.noti, t, ep) == noti_cnt as u64;
                        if !(cnt_ok && prev_ok && noti_ok) {
                            return None; // recycled like a Release store
                        }
                    }
                }
                let mut n = self.take(s, idx);
                let old = n.mem[var as usize];
                n.mem[var as usize] = old.wrapping_add(add);
                let mut ack = None;
                match proto {
                    ThreadProto::Cord => match release {
                        Some(_) => {
                            let nd = n.dir_mut(dir as usize);
                            largest_set(&mut nd.largest, t, ep);
                            assoc_remove(&mut nd.cnt, t, ep);
                            assoc_remove(&mut nd.noti, t, ep);
                            ack = Some((ep, dir));
                        }
                        None => {
                            assoc_bump(
                                &mut n.dir_mut(dir as usize).cnt,
                                t,
                                ep,
                                self.cfg.dir_cnt_cap,
                                "store-counter",
                            );
                        }
                    },
                    ThreadProto::Mp => {
                        n.dir_mut(dir as usize).chan_expect[t as usize] += 1;
                    }
                    ThreadProto::So => {}
                }
                let _ = so;
                let reg = s.threads[t as usize].wait_atomic.expect("issuer blocked");
                n.net.push(NetMsg::AtomicResp { t, old, reg, ack });
                n.net.sort_unstable();
                Some(n)
            }
            NetMsg::AtomicResp { t, old, reg, ack } => {
                let mut n = self.take(s, idx);
                let th = n.thread_mut(t as usize);
                th.regs[reg as usize] = old;
                th.wait_atomic = None;
                if th.outstanding > 0 && self.cfg.protos[t as usize] == ThreadProto::So {
                    th.outstanding -= 1;
                }
                if let Some((ep, dir)) = ack {
                    th.unacked.retain(|&(e, d)| !(e == ep && d == dir));
                }
                Some(n)
            }
            NetMsg::CordAck { t, ep, dir } => {
                let mut n = self.take(s, idx);
                n.thread_mut(t as usize)
                    .unacked
                    .retain(|&(e, d)| !(e == ep && d == dir));
                Some(n)
            }
            NetMsg::SoStore { t, var, val, .. } => {
                let mut n = self.take(s, idx);
                n.mem[var as usize] = val;
                n.net.push(NetMsg::SoAck { t });
                n.net.sort_unstable();
                Some(n)
            }
            NetMsg::SoAck { t } => {
                let mut n = self.take(s, idx);
                n.thread_mut(t as usize).outstanding -= 1;
                Some(n)
            }
            NetMsg::MpWrite {
                t,
                dir,
                var,
                val,
                seq,
            } => {
                if s.dirs[dir as usize].chan_expect[t as usize] != seq {
                    return None; // channel FIFO: earlier writes first
                }
                let mut n = self.take(s, idx);
                n.mem[var as usize] = val;
                n.dir_mut(dir as usize).chan_expect[t as usize] += 1;
                Some(n)
            }
        }
    }

    /// Clones `s` with message `idx` removed from the network.
    fn take(&self, s: &State, idx: usize) -> State {
        let mut n = s.clone();
        n.net.remove(idx);
        n
    }
}

fn last_unacked_for(th: &ThreadSt, dir: u8) -> Option<u64> {
    th.unacked
        .iter()
        .filter(|&&(_, d)| d == dir)
        .map(|&(e, _)| e)
        .max()
}

#[cfg(test)]
impl Model<'_> {
    /// Every state reachable from [`Model::init`], unreduced, in BFS order.
    pub(crate) fn reachable(&self) -> Vec<State> {
        let mut seen = std::collections::HashSet::new();
        let mut order = vec![self.init()];
        seen.insert(order[0].clone());
        let mut i = 0;
        while i < order.len() {
            for n in self.successors(&order[i]) {
                if seen.insert(n.clone()) {
                    order.push(n);
                }
            }
            i += 1;
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::dsl::*;
    use crate::litmus::Cond;

    fn mp_shape() -> Litmus {
        Litmus::new(
            "MP",
            vec![vec![w(0, 1), wrel(1, 1)], vec![wacq(1, 1), r(0, 0)]],
            2,
            vec![Cond::regs(vec![(1, 0, 0)])],
        )
    }

    #[test]
    fn capacity_one_tables_backpressure_instead_of_overflowing() {
        // Relaxed stores in two consecutive epochs target the same
        // directory; with a single-entry CNT table the second store must
        // stall until the first epoch is acknowledged (the engine's
        // backpressure), not overflow the directory table mid-delivery.
        let lit = Litmus::new(
            "rlx-rel-rlx",
            vec![vec![w(0, 1), wrel(1, 1), w(2, 2)]],
            3,
            vec![],
        );
        let mut cfg = CheckConfig::cord(1, 2);
        cfg.proc_unacked_cap = 1;
        cfg.dir_cnt_cap = 1;
        cfg.dir_noti_cap = 1;
        let report = crate::explore(&cfg, &lit, &[0, 1, 0], 100_000);
        assert!(!report.truncated && report.deadlocks.is_empty());
        assert!(report.outcomes.contains(&vec![0, 0, 0, 0, 1, 1, 2]));
    }

    #[test]
    fn init_state_is_clean() {
        let lit = mp_shape();
        let cfg = CheckConfig::cord(2, 2);
        let m = Model::new(&cfg, &lit, &[0, 1]);
        let s = m.init();
        assert!(!m.is_final(&s), "threads have work to do");
        assert_eq!(s.mem(), &[0, 0]);
        assert_eq!(s.flat_regs(), vec![0; 8]);
        assert_eq!(s.outcome().len(), 10);
    }

    #[test]
    fn relaxed_store_then_release_produces_reqnotify() {
        let lit = mp_shape();
        let cfg = CheckConfig::cord(2, 2);
        let m = Model::new(&cfg, &lit, &[0, 1]);
        let s0 = m.init();
        // thread 0 issues the relaxed store
        let s1 = m
            .successors(&s0)
            .into_iter()
            .find(|s| !s.net.is_empty())
            .unwrap();
        // thread 0 issues the release (to dir 1, with dir 0 pending)
        let s2 = m
            .successors(&s1)
            .into_iter()
            .find(|s| s.net.iter().any(|x| matches!(x, NetMsg::ReqNotify { .. })))
            .expect("release across directories must request a notification");
        assert!(s2
            .net
            .iter()
            .any(|x| matches!(x, NetMsg::CordRelease { noti_cnt: 1, .. })));
    }

    #[test]
    fn guarded_release_waits_for_relaxed_count() {
        let lit = Litmus::new("rel-after-rlx", vec![vec![w(0, 1), wrel(1, 2)]], 2, vec![]);
        // both vars on one directory: release must wait for the relaxed store
        let cfg = CheckConfig::cord(1, 1);
        let m = Model::new(&cfg, &lit, &[0, 0]);
        let mut s = m.init();
        // issue both stores
        s = m.successors(&s).pop().unwrap();
        s = m.successors(&s).pop().unwrap();
        // find the state where only the release was delivered — impossible:
        // its guard requires the relaxed store's count first.
        let succ = m.successors(&s);
        for n in &succ {
            if n.mem[1] == 2 {
                panic!("release committed before the relaxed store");
            }
        }
    }

    #[test]
    fn mp_requires_channel_fifo() {
        let lit = Litmus::new("two-writes", vec![vec![w(0, 1), w(1, 2)]], 2, vec![]);
        let cfg = CheckConfig::mp(1, 1);
        let m = Model::new(&cfg, &lit, &[0, 0]);
        let mut s = m.init();
        // take the thread-step successor (largest network) twice
        s = m
            .successors(&s)
            .into_iter()
            .max_by_key(|n| n.net.len())
            .unwrap();
        s = m
            .successors(&s)
            .into_iter()
            .max_by_key(|n| n.net.len())
            .unwrap();
        assert_eq!(s.net.len(), 2);
        // only the seq-0 write is deliverable
        let succ = m.successors(&s);
        assert_eq!(succ.len(), 1, "second write must wait for the first");
        assert_eq!(succ[0].mem[0], 1);
    }

    #[test]
    fn canonicalization_collapses_interchangeable_thread_orbits() {
        // Two threads running the identical program: the states "thread 0
        // moved first" and "thread 1 moved first" are one orbit.
        let lit = Litmus::new("sym", vec![vec![wrel(0, 1)], vec![wrel(0, 1)]], 1, vec![]);
        let cfg = CheckConfig::cord(2, 2);
        let m = Model::new(&cfg, &lit, &[0]);
        let sym = m.symmetry();
        assert_eq!(sym.order(), 2, "swap of the two identical threads");
        let init = m.init();
        let succ = m.successors(&init);
        assert_eq!(succ.len(), 2);
        assert_ne!(succ[0], succ[1]);
        let mut scratch = CanonScratch::default();
        assert_eq!(
            sym.canonicalize(succ[0].clone(), &mut scratch),
            sym.canonicalize(succ[1].clone(), &mut scratch)
        );
        // Canonicalization is idempotent.
        let c = sym.canonicalize(succ[0].clone(), &mut scratch);
        assert_eq!(sym.canonicalize(c.clone(), &mut scratch), c);
    }

    #[test]
    fn asymmetric_programs_get_the_trivial_group() {
        let lit = mp_shape();
        let cfg = CheckConfig::cord(2, 2);
        let m = Model::new(&cfg, &lit, &[0, 1]);
        let sym = m.symmetry();
        assert!(sym.is_trivial());
        assert_eq!(sym.order(), 1);
        let init = m.init();
        assert_eq!(
            sym.canonicalize(init.clone(), &mut CanonScratch::default()),
            init
        );
        assert!(sym.orbit_outcomes(&init.outcome()).is_empty());
    }

    #[test]
    fn orbit_outcomes_swap_whole_register_blocks() {
        let lit = Litmus::new(
            "sym",
            vec![vec![r(0, 0)], vec![r(0, 0)], vec![wrel(0, 7)]],
            1,
            vec![],
        );
        let cfg = CheckConfig::cord(3, 1);
        let m = Model::new(&cfg, &lit, &[0]);
        let sym = m.symmetry();
        assert_eq!(sym.order(), 2, "threads 0 and 1 are interchangeable");
        // Outcome where only thread 0 observed the store.
        let outcome = vec![7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7];
        let orbit = sym.orbit_outcomes(&outcome);
        assert_eq!(
            orbit,
            vec![vec![0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 7]],
            "the image has thread 1 observing instead; memory untouched"
        );
    }

    #[test]
    fn directory_permutation_round_trips_and_preserves_outcomes() {
        // Drive MP a few steps so directories and the network carry real
        // state, then check a directory transposition is an involution that
        // never touches the (thread, variable)-indexed outcome.
        let lit = mp_shape();
        let cfg = CheckConfig::cord(2, 2);
        let m = Model::new(&cfg, &lit, &[0, 1]);
        let mut s = m.init();
        for _ in 0..3 {
            s = m
                .successors(&s)
                .into_iter()
                .max_by_key(|n| n.net.len())
                .unwrap();
        }
        assert!(!s.net.is_empty(), "need in-flight messages to permute");
        let swap = Perm::new(vec![0, 1], vec![1, 0]);
        assert!(!swap.fixes_dirs);
        // Start from a scratch of another shape: every vector must resize.
        let cfg3 = CheckConfig::cord(3, 3);
        let lit3 = Litmus::new("three", vec![vec![wrel(0, 1)]; 3], 3, vec![]);
        let mut p = Model::new(&cfg3, &lit3, &[0, 1, 2]).init();
        s.permute_into(&swap, &mut p);
        assert_eq!(p, permuted(&s, &swap.tp, &swap.dp), "matches the reference");
        assert_ne!(p, s, "directory state must actually move");
        let mut back = m.init();
        p.permute_into(&swap, &mut back);
        assert_eq!(back, s, "transposition is an involution");
        assert_eq!(p.outcome(), s.outcome());
    }

    #[test]
    fn oversized_groups_degenerate_to_trivial() {
        // Five identical threads: 5! = 120 > MAX_ORDER — not worth it.
        // Twenty-one: 21! overflows a 64-bit usize, so the order must
        // saturate rather than wrap (release) or panic (debug).
        for n in [5, 21] {
            let lit = Litmus::new("many", vec![vec![wrel(0, 1)]; n], 1, vec![]);
            let cfg = CheckConfig::cord(n, 1);
            let m = Model::new(&cfg, &lit, &[0]);
            assert!(m.symmetry().is_trivial(), "{n} threads");
        }
    }

    /// The reference relabeling: a freshly allocated image with inverse maps
    /// computed on the spot and every thread rebuilt.
    fn permuted(s: &State, tp: &[u8], dp: &[u8]) -> State {
        let nt = s.threads.len();
        let nd = s.dirs.len();
        let mut inv_t = vec![0usize; nt];
        for (old, &new) in tp.iter().enumerate() {
            inv_t[new as usize] = old;
        }
        let mut inv_d = vec![0usize; nd];
        for (old, &new) in dp.iter().enumerate() {
            inv_d[new as usize] = old;
        }
        let threads = (0..nt)
            .map(|j| {
                let th = &s.threads[inv_t[j]];
                let mut unacked: Vec<(u64, u8)> = th
                    .unacked
                    .iter()
                    .map(|&(ep, d)| (ep, dp[d as usize]))
                    .collect();
                unacked.sort_unstable();
                Arc::new(ThreadSt {
                    pc: th.pc,
                    regs: th.regs,
                    ep: th.ep,
                    cnt: (0..nd).map(|d| th.cnt[inv_d[d]]).collect(),
                    unacked,
                    fence_sent: th.fence_sent,
                    outstanding: th.outstanding,
                    chan_next: (0..nd).map(|d| th.chan_next[inv_d[d]]).collect(),
                    wait_atomic: th.wait_atomic,
                })
            })
            .collect();
        let remap3 = |list: &[(u8, u64, u64)]| {
            let mut out: Vec<(u8, u64, u64)> = list
                .iter()
                .map(|&(t, ep, v)| (tp[t as usize], ep, v))
                .collect();
            out.sort_unstable();
            out
        };
        let dirs = (0..nd)
            .map(|j| {
                let d = &s.dirs[inv_d[j]];
                let mut largest: Vec<(u8, u64)> = d
                    .largest
                    .iter()
                    .map(|&(t, ep)| (tp[t as usize], ep))
                    .collect();
                largest.sort_unstable();
                Arc::new(DirSt {
                    cnt: remap3(&d.cnt),
                    noti: remap3(&d.noti),
                    largest,
                    chan_expect: (0..nt).map(|t| d.chan_expect[inv_t[t]]).collect(),
                })
            })
            .collect();
        let mut net: Vec<NetMsg> = s.net.iter().map(|m| permute_msg(m, tp, dp)).collect();
        net.sort_unstable();
        State {
            threads,
            dirs,
            mem: s.mem.clone(),
            net,
        }
    }

    #[test]
    fn canonicalize_equals_the_least_freshly_built_image() {
        let (label, cfg, lit, placement) = crate::scaling_suite()
            .into_iter()
            .find(|e| e.0.starts_with("SCALE-AMO-3x3"))
            .expect("fixture exists");
        let race = Litmus::new(
            "2W-sym",
            vec![
                vec![wrel(0, 1), racq(1, 0)],
                vec![wrel(0, 1), racq(1, 0)],
                vec![wrel(1, 1)],
            ],
            2,
            vec![],
        );
        let race_cfg = CheckConfig::cord(3, 2);
        // One scratch across both models: it must reshape between them.
        let mut scratch = CanonScratch::default();
        for (label, cfg, lit, placement) in [
            (label, &cfg, &lit, placement),
            ("2W-sym".to_string(), &race_cfg, &race, vec![0, 1]),
        ] {
            let m = Model::new(cfg, lit, &placement);
            let sym = m.symmetry();
            assert!(!sym.is_trivial(), "{label}");
            let states = m.reachable();
            for s in &states {
                let want = sym
                    .perms
                    .iter()
                    .map(|p| permuted(s, &p.tp, &p.dp))
                    .chain([s.clone()])
                    .min()
                    .expect("the identity image at least");
                assert_eq!(sym.canonicalize(s.clone(), &mut scratch), want, "{label}");
            }
        }
    }

    #[test]
    fn successors_share_what_their_transition_leaves_alone() {
        let amo = crate::scaling_suite()
            .into_iter()
            .find(|e| e.0.starts_with("SCALE-AMO-3x3"))
            .expect("fixture exists");
        let mp_cfg = CheckConfig::cord(2, 2);
        for (cfg, lit, placement) in [(&mp_cfg, &mp_shape(), vec![0, 1]), (&amo.1, &amo.2, amo.3)] {
            let m = Model::new(cfg, lit, &placement);
            let mut buf = Vec::new();
            fn shared<T>(a: &[Arc<T>], b: &[Arc<T>]) -> usize {
                a.iter().zip(b).filter(|(x, y)| Arc::ptr_eq(x, y)).count()
            }
            for s in m.reachable() {
                let before = crate::explore::fingerprint(&s, &mut buf);
                for (step, n) in m.successors_labeled(&s) {
                    let threads = shared(&n.threads, &s.threads);
                    let dirs = shared(&n.dirs, &s.dirs);
                    match step {
                        // A thread step writes its own thread alone…
                        Step::Thread { t, .. } => {
                            assert!(!Arc::ptr_eq(&n.threads[t as usize], &s.threads[t as usize]));
                            assert_eq!(threads, s.threads.len() - 1, "{step:?}");
                            assert_eq!(dirs, s.dirs.len(), "{step:?}");
                        }
                        // …and a delivery at most one thread and one directory.
                        Step::Deliver(_) => {
                            assert!(threads + 1 >= s.threads.len(), "{step:?}");
                            assert!(dirs + 1 >= s.dirs.len(), "{step:?}");
                        }
                    }
                }
                assert_eq!(
                    crate::explore::fingerprint(&s, &mut buf),
                    before,
                    "expanding a state must not change it"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot be mixed")]
    fn mixed_mp_rejected() {
        let lit = mp_shape();
        let cfg = CheckConfig {
            protos: vec![ThreadProto::Mp, ThreadProto::Cord],
            ..CheckConfig::cord(2, 2)
        };
        let _ = Model::new(&cfg, &lit, &[0, 1]);
    }
}
