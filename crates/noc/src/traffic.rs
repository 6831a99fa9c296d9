//! Traffic accounting by message class and scope.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::topology::MsgClass;

/// Byte/message counts for one message class.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// Bytes crossing the inter-host switch.
    pub inter_bytes: u64,
    /// Messages crossing the inter-host switch.
    pub inter_msgs: u64,
    /// Bytes staying within a host's mesh.
    pub intra_bytes: u64,
    /// Messages staying within a host's mesh.
    pub intra_msgs: u64,
}

impl ClassStats {
    fn record(&mut self, bytes: u64, inter: bool) {
        if inter {
            self.inter_bytes += bytes;
            self.inter_msgs += 1;
        } else {
            self.intra_bytes += bytes;
            self.intra_msgs += 1;
        }
    }
}

/// Fault-injection and reliable-transport counters (zero when no
/// [`cord_sim::fault::FaultPlan`] is installed on the [`crate::Noc`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped by the fault plan.
    pub dropped: u64,
    /// Messages duplicated by the fault plan.
    pub duplicated: u64,
    /// Messages delivered with injected extra delay.
    pub delayed: u64,
    /// Transport retransmissions (reported by the runner's transport shim).
    pub retransmits: u64,
    /// Retransmissions that were unnecessary: sent after the copy that
    /// delivered their message (counted once per message by the shim).
    pub spurious_retransmits: u64,
    /// Duplicate deliveries suppressed by the transport receiver.
    pub dup_dropped: u64,
    /// Transport send channels reset into a new session epoch by a crash
    /// fault (reported by the runner's transport shim).
    pub sessions_reset: u64,
    /// Unacked messages replayed into a new session after a transport reset.
    pub replayed: u64,
    /// Arrivals rejected for carrying a stale (pre-reset) session epoch.
    pub stale_rejected: u64,
}

impl FaultStats {
    /// Whether any fault or transport activity was recorded.
    pub fn any(&self) -> bool {
        *self != FaultStats::default()
    }

    /// Adds `other`'s counters into `self` (all counters are additive, so
    /// per-partition stats sum to the whole-system stats in any order).
    pub fn merge(&mut self, other: &FaultStats) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
        self.retransmits += other.retransmits;
        self.spurious_retransmits += other.spurious_retransmits;
        self.dup_dropped += other.dup_dropped;
        self.sessions_reset += other.sessions_reset;
        self.replayed += other.replayed;
        self.stale_rejected += other.stale_rejected;
    }
}

/// Flow counters for one `(src_host, dst_host)` pair, recorded by the
/// [`crate::Noc`] when per-pair accounting is enabled
/// ([`crate::Noc::set_pair_accounting`]). `notify_msgs` singles out the CORD
/// cross-directory classes ([`MsgClass::ReqNotify`] + [`MsgClass::Notify`])
/// so scale benches can report notification fan-out per pair.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PairFlow {
    /// Inter-host messages on this pair.
    pub msgs: u64,
    /// Inter-host bytes on this pair.
    pub bytes: u64,
    /// The subset of `msgs` that are notification traffic
    /// (ReqNotify/Notify).
    pub notify_msgs: u64,
}

impl PairFlow {
    /// Records one message.
    pub fn record(&mut self, bytes: u64, class: MsgClass) {
        self.msgs += 1;
        self.bytes += bytes;
        if matches!(class, MsgClass::ReqNotify | MsgClass::Notify) {
            self.notify_msgs += 1;
        }
    }

    /// Adds `other`'s counters into `self` (additive, order-independent).
    pub fn merge(&mut self, other: &PairFlow) {
        self.msgs += other.msgs;
        self.bytes += other.bytes;
        self.notify_msgs += other.notify_msgs;
    }
}

/// Aggregate traffic statistics, indexable by [`MsgClass`].
///
/// # Example
///
/// ```
/// use cord_noc::{MsgClass, TrafficStats};
///
/// let mut t = TrafficStats::default();
/// t.record(MsgClass::Ack, 16, true);
/// t.record(MsgClass::Data, 80, true);
/// assert_eq!(t.inter_bytes(), 96);
/// assert_eq!(t[MsgClass::Ack].inter_msgs, 1);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TrafficStats {
    classes: [ClassStats; MsgClass::COUNT],
    /// Fault-injection and transport counters.
    pub faults: FaultStats,
}

impl TrafficStats {
    /// Records one message of `bytes` bytes; `inter` marks switch-crossing
    /// traffic.
    pub fn record(&mut self, class: MsgClass, bytes: u64, inter: bool) {
        self.classes[class as usize].record(bytes, inter);
    }

    /// Total inter-host bytes across all classes (the paper's "traffic").
    pub fn inter_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.inter_bytes).sum()
    }

    /// Total inter-host messages across all classes.
    pub fn inter_msgs(&self) -> u64 {
        self.classes.iter().map(|c| c.inter_msgs).sum()
    }

    /// Total intra-host bytes across all classes.
    pub fn intra_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.intra_bytes).sum()
    }

    /// Adds `other`'s counters into `self`. Every field is an additive
    /// counter, so summing per-partition stats reproduces the single-queue
    /// totals regardless of partition count or merge order.
    pub fn merge(&mut self, other: &TrafficStats) {
        for (mine, theirs) in self.classes.iter_mut().zip(other.classes.iter()) {
            mine.inter_bytes += theirs.inter_bytes;
            mine.inter_msgs += theirs.inter_msgs;
            mine.intra_bytes += theirs.intra_bytes;
            mine.intra_msgs += theirs.intra_msgs;
        }
        self.faults.merge(&other.faults);
    }

    /// Iterates `(class, stats)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MsgClass, &ClassStats)> {
        MsgClass::ALL
            .iter()
            .map(move |&c| (c, &self.classes[c as usize]))
    }
}

impl Index<MsgClass> for TrafficStats {
    type Output = ClassStats;
    fn index(&self, class: MsgClass) -> &ClassStats {
        &self.classes[class as usize]
    }
}

impl IndexMut<MsgClass> for TrafficStats {
    fn index_mut(&mut self, class: MsgClass) -> &mut ClassStats {
        &mut self.classes[class as usize]
    }
}

impl fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "inter {} B in {} msgs",
            self.inter_bytes(),
            self.inter_msgs()
        )?;
        for (c, s) in self.iter() {
            if s.inter_bytes > 0 {
                write!(f, "; {c:?}={} B", s.inter_bytes)?;
            }
        }
        if self.faults.any() {
            write!(
                f,
                "; faults: {} dropped, {} duplicated, {} delayed, {} retransmits ({} spurious)",
                self.faults.dropped,
                self.faults.duplicated,
                self.faults.delayed,
                self.faults.retransmits,
                self.faults.spurious_retransmits
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_per_class_and_scope() {
        let mut t = TrafficStats::default();
        t.record(MsgClass::Data, 100, true);
        t.record(MsgClass::Data, 50, false);
        t.record(MsgClass::Notify, 16, true);
        assert_eq!(t[MsgClass::Data].inter_bytes, 100);
        assert_eq!(t[MsgClass::Data].intra_bytes, 50);
        assert_eq!(t[MsgClass::Data].intra_msgs, 1);
        assert_eq!(t.inter_bytes(), 116);
        assert_eq!(t.inter_msgs(), 2);
        assert_eq!(t.intra_bytes(), 50);
    }

    #[test]
    fn iter_covers_all_classes() {
        let t = TrafficStats::default();
        assert_eq!(t.iter().count(), MsgClass::COUNT);
    }

    #[test]
    fn fault_stats_merge_sums_every_counter() {
        let one = FaultStats {
            dropped: 1,
            duplicated: 2,
            delayed: 3,
            retransmits: 4,
            spurious_retransmits: 5,
            dup_dropped: 6,
            sessions_reset: 7,
            replayed: 8,
            stale_rejected: 9,
        };
        let mut sum = one;
        sum.merge(&FaultStats {
            dropped: 10,
            duplicated: 20,
            delayed: 30,
            retransmits: 40,
            spurious_retransmits: 50,
            dup_dropped: 60,
            sessions_reset: 70,
            replayed: 80,
            stale_rejected: 90,
        });
        assert_eq!(
            sum,
            FaultStats {
                dropped: 11,
                duplicated: 22,
                delayed: 33,
                retransmits: 44,
                spurious_retransmits: 55,
                dup_dropped: 66,
                sessions_reset: 77,
                replayed: 88,
                stale_rejected: 99,
            }
        );
    }

    #[test]
    fn display_nonempty() {
        let mut t = TrafficStats::default();
        t.record(MsgClass::Ack, 16, true);
        let s = t.to_string();
        assert!(s.contains("16 B"), "{s}");
        assert!(s.contains("Ack"), "{s}");
    }
}
