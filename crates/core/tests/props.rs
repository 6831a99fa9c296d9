//! Randomized property tests for the CORD engines: protocol invariants over
//! random store/release interleavings driven directly through the engine
//! API. Driven by `cord_sim::DetRng` with fixed seeds (no external deps).

use cord::{CordCore, CordDir, LookupTable};
use cord_mem::{Addr, Memory};
use cord_proto::{
    CoreCtx, CoreEffect, CoreId, CoreProtocol, DirCtx, DirEffect, DirId, DirProtocol, Issue, Msg,
    MsgKind, Op, ProtocolKind, StoreOrd, SystemConfig,
};
use cord_sim::{DetRng, Time};

/// host 0, slice `s`, line k — deterministic single-host addressing.
fn addr(s: u64, k: u64) -> Addr {
    Addr::new((k * 8 + s) * 64)
}

#[derive(Debug, Clone)]
enum Step {
    Relaxed { slice: u64, k: u64 },
    Release { slice: u64, k: u64 },
    DeliverAck, // deliver the oldest in-flight ack
}

fn steps(rng: &mut DetRng) -> Vec<Step> {
    let n = rng.range_usize(1..120);
    (0..n)
        .map(|_| match rng.range_u64(0..3) {
            0 => Step::Relaxed {
                slice: rng.range_u64(0..4),
                k: rng.range_u64(0..8),
            },
            1 => Step::Release {
                slice: rng.range_u64(0..4),
                k: rng.range_u64(0..8),
            },
            _ => Step::DeliverAck,
        })
        .collect()
}

/// Drives one CordCore and its directories synchronously, queueing acks.
struct Rig {
    core: CordCore,
    dirs: Vec<CordDir>,
    mems: Vec<Memory>,
    acks: Vec<Msg>,
    now: Time,
    committed_releases: u64,
    issued_releases: u64,
}

impl Rig {
    fn new(cfg: &SystemConfig) -> Self {
        Rig {
            core: CordCore::new(CoreId(0), cfg),
            dirs: (0..8).map(|d| CordDir::new(DirId(d), cfg)).collect(),
            mems: (0..8).map(|_| Memory::new()).collect(),
            acks: Vec::new(),
            now: Time::ZERO,
            committed_releases: 0,
            issued_releases: 0,
        }
    }

    fn issue(&mut self, op: &Op) -> Issue {
        self.now += Time::from_ns(1);
        let mut fx = Vec::new();
        let r = {
            let mut ctx = CoreCtx::new(self.now, &mut fx);
            self.core.issue(op, &mut ctx)
        };
        for e in fx {
            if let CoreEffect::Send { msg, .. } = e {
                self.deliver_to_dir(msg);
            }
        }
        r
    }

    fn deliver_to_dir(&mut self, msg: Msg) {
        let d = msg.dst.tile_flat() as usize;
        let mut fx = Vec::new();
        {
            let mut ctx = DirCtx::new(self.now, &mut self.mems[d], &mut fx);
            self.dirs[d].on_msg(msg, &mut ctx);
        }
        for e in fx {
            if let DirEffect::Send { msg, .. } = e {
                match msg.dst {
                    cord_proto::NodeRef::Core(_) => {
                        if matches!(msg.kind, MsgKind::WtAck { .. }) {
                            self.committed_releases += 1;
                        }
                        self.acks.push(msg);
                    }
                    cord_proto::NodeRef::Dir(_) => self.deliver_to_dir(msg),
                }
            }
        }
    }

    fn deliver_ack(&mut self) {
        if self.acks.is_empty() {
            return;
        }
        let msg = self.acks.remove(0);
        let mut fx = Vec::new();
        let mut ctx = CoreCtx::new(self.now, &mut fx);
        self.core.on_msg(msg.src, msg.kind, &mut ctx);
    }
}

/// Engine invariants over arbitrary interleavings:
/// * the unacked table never exceeds its capacity;
/// * stalled Releases always become issuable after acks drain;
/// * every issued Release eventually commits and is acked exactly once;
/// * directory storage is fully reclaimed at quiescence.
#[test]
fn cord_engine_invariants() {
    for case in 0..48 {
        let mut rng = DetRng::new(0xC04D).stream(case);
        let script = steps(&mut rng);
        let cfg = SystemConfig::cxl(ProtocolKind::Cord, 1);
        let cap = cfg.tables.proc_unacked;
        let mut rig = Rig::new(&cfg);
        for step in script {
            match step {
                Step::Relaxed { slice, k } => {
                    let op = Op::Store {
                        addr: addr(slice, k),
                        bytes: 8,
                        value: 1,
                        ord: StoreOrd::Relaxed,
                    };
                    // Relaxed stores may stall only on table bounds; retry
                    // after draining an ack.
                    if rig.issue(&op) == Issue::Done {
                        continue;
                    }
                    rig.deliver_ack();
                }
                Step::Release { slice, k } => {
                    let op = Op::Store {
                        addr: addr(slice, k),
                        bytes: 8,
                        value: 2,
                        ord: StoreOrd::Release,
                    };
                    if rig.issue(&op) == Issue::Done {
                        rig.issued_releases += 1;
                    }
                }
                Step::DeliverAck => rig.deliver_ack(),
            }
            assert!(
                rig.core.unacked_len() <= cap,
                "case {case}: unacked table overflow"
            );
        }
        // Drain all remaining acknowledgments.
        while !rig.acks.is_empty() {
            rig.deliver_ack();
        }
        assert!(
            rig.core.quiesced(),
            "case {case}: core must quiesce after drain"
        );
        assert_eq!(
            rig.committed_releases, rig.issued_releases,
            "case {case}: every release acked once"
        );
        // Per-epoch directory entries fully reclaimed: only largestEp stays.
        for d in &rig.dirs {
            assert_eq!(
                d.buffered_bytes(),
                0,
                "case {case}: recycled buffer drained"
            );
        }
    }
}

/// LookupTable behaves exactly like a capacity-bounded `BTreeMap`: random
/// `try_insert` / `get_or_insert_with` / `remove` / `clear` sequences are
/// mirrored on the reference model and every observable is compared after
/// each step.
#[test]
fn lookup_table_matches_btreemap_model() {
    use std::collections::BTreeMap;
    const ENTRY_BYTES: u64 = 3;
    let mut saw_full = false;
    for case in 0..128 {
        let mut rng = DetRng::new(0x7AB1E).stream(case);
        let cap = rng.range_usize(1..24);
        let keys = rng.range_u64(1..48);
        let mut t: LookupTable<(u32, u64), u64> = LookupTable::new(cap, ENTRY_BYTES);
        let mut model: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        let mut peak = 0usize;
        for step in 0..rng.range_usize(1..400) {
            let k = rng.range_u64(0..keys);
            let key = ((k % 5) as u32, k / 5);
            let v = rng.next_u64();
            match rng.range_u64(0..16) {
                0..=5 => {
                    let fits = model.contains_key(&key) || model.len() < cap;
                    assert_eq!(t.try_insert(key, v), fits, "case {case} step {step}");
                    if fits {
                        model.insert(key, v);
                    }
                    saw_full |= !fits;
                }
                6..=9 => {
                    let fits = model.contains_key(&key) || model.len() < cap;
                    match t.get_or_insert_with(key, || v) {
                        Some(slot) => {
                            assert!(fits, "case {case} step {step}");
                            *slot = slot.wrapping_add(1);
                            *model.entry(key).or_insert(v) = *slot;
                        }
                        None => assert!(!fits, "case {case} step {step}"),
                    }
                }
                10..=14 => assert_eq!(t.remove(&key), model.remove(&key), "case {case}"),
                _ => {
                    t.clear();
                    model.clear();
                }
            }
            peak = peak.max(model.len());
            assert_eq!(t.get(&key), model.get(&key), "case {case} step {step}");
            assert_eq!(t.len(), model.len(), "case {case} step {step}");
            assert_eq!(t.is_empty(), model.is_empty());
            assert!(t.iter().eq(model.iter()), "case {case} step {step}: order");
            assert!(t.keys().eq(model.keys()));
            assert_eq!(t.min_key(), model.keys().next());
            assert_eq!(t.max_key(), model.keys().next_back());
            assert_eq!(t.has_room(), model.len() < cap);
            assert_eq!(t.has_room_for(2), model.len() + 2 <= cap);
            assert_eq!(t.bytes(), model.len() as u64 * ENTRY_BYTES);
            assert_eq!(
                t.peak_bytes(),
                peak as u64 * ENTRY_BYTES,
                "case {case} step {step}"
            );
        }
    }
    assert!(saw_full, "some case must hit capacity");
}

/// LookupTable never exceeds capacity and its peak is monotone.
#[test]
fn lookup_table_bounds() {
    for case in 0..64 {
        let mut rng = DetRng::new(0x100C).stream(case);
        let cap = rng.range_usize(1..12);
        let n = rng.range_usize(1..200);
        let mut t: LookupTable<u8, u8> = LookupTable::new(cap, 4);
        let mut peak = 0;
        for _ in 0..n {
            let k = rng.range_u64(0..16) as u8;
            if rng.chance(0.5) {
                let _ = t.try_insert(k, 0);
            } else {
                t.remove(&k);
            }
            assert!(t.len() <= cap, "case {case}");
            assert!(t.peak_bytes() >= peak, "case {case}: peak regressed");
            peak = t.peak_bytes();
            assert!(t.bytes() <= t.peak_bytes(), "case {case}");
        }
    }
}
