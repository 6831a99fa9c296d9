//! Memory operations and per-core programs.
//!
//! A [`Program`] is the stream of operations one simulated core executes.
//! Programs model the communication skeleton of an application: bulk
//! write-through stores, Release flag stores, Acquire polls, loads of
//! produced data, and compute delays.

use cord_mem::Addr;
use cord_sim::Time;

/// Ordering annotation on a store (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOrd {
    /// No ordering constraints.
    Relaxed,
    /// Prior accesses in program order may not be reordered after this store.
    Release,
}

/// Ordering annotation on a load (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOrd {
    /// No ordering constraints.
    Relaxed,
    /// Subsequent accesses in program order may not be reordered before it.
    Acquire,
}

/// Memory barriers supported by the simulator (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceKind {
    /// Orders prior loads with subsequent accesses.
    Acquire,
    /// Orders prior accesses with subsequent stores; under CORD this
    /// broadcasts an "empty" directory-ordered Release store to all pending
    /// directories and awaits their acknowledgments.
    Release,
    /// Full (sequentially-consistent) barrier.
    Full,
}

/// One operation in a core's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A write-through (or, under the WB baseline, write-back) store of
    /// `bytes` bytes starting at `addr`. `value` is written to the first
    /// word — data payloads beyond the first word carry no semantic value in
    /// the simulator, only their size.
    Store {
        /// First byte written.
        addr: Addr,
        /// Store size in bytes (8 = word, 64 = line, larger = bulk/flit).
        bytes: u32,
        /// Value deposited in the first word (flags, litmus observations).
        value: u64,
        /// Ordering annotation.
        ord: StoreOrd,
    },
    /// A blocking load of `bytes` bytes; the first word's value is written
    /// to register `reg`.
    Load {
        /// First byte read.
        addr: Addr,
        /// Load size in bytes.
        bytes: u32,
        /// Ordering annotation.
        ord: LoadOrd,
        /// Destination register (0..16).
        reg: u8,
    },
    /// Repeatedly load `addr` (with `ord` semantics) until the first word
    /// reaches `expect` (monotonic flags: the poll succeeds on any value
    /// ≥ `expect`) — the canonical Acquire-poll on a flag.
    WaitValue {
        /// Flag address.
        addr: Addr,
        /// Expected value.
        expect: u64,
        /// Ordering of each poll load (normally [`LoadOrd::Acquire`]).
        ord: LoadOrd,
    },
    /// A **write-back** store (paper §4.4): cached in the issuing core and
    /// source-ordered. Only meaningful under the WB baseline and the Hybrid
    /// protocol; pure write-through baselines coerce it to a write-through
    /// store.
    StoreWb {
        /// First byte written.
        addr: Addr,
        /// Store size in bytes.
        bytes: u32,
        /// Value deposited in the first word.
        value: u64,
        /// Ordering annotation.
        ord: StoreOrd,
    },
    /// An atomic fetch-add on the word at `addr` (the "atomics" of the
    /// paper's write-through access class, à la CHI far atomics): the home
    /// directory applies the addend and returns the old value into `reg`.
    /// Ordering annotations behave exactly as for stores.
    AtomicRmw {
        /// Word operated on.
        addr: Addr,
        /// Addend.
        add: u64,
        /// Ordering annotation (Relaxed or Release).
        ord: StoreOrd,
        /// Destination register for the previous value.
        reg: u8,
    },
    /// A wide, MLP-friendly read of `bytes` bytes starting at `addr`
    /// (consumers sweeping produced data): write-through protocols fetch it
    /// from the home LLC slice in one round trip; the write-back baseline
    /// issues all line fills concurrently. The first word lands in `reg`.
    BulkRead {
        /// First byte read.
        addr: Addr,
        /// Bytes read.
        bytes: u32,
        /// Destination register for the first word.
        reg: u8,
    },
    /// Local computation for `dur` of simulated time.
    Compute {
        /// Duration of the computation.
        dur: Time,
    },
    /// A memory barrier.
    Fence {
        /// Barrier flavor.
        kind: FenceKind,
    },
}

impl Op {
    /// Short human-readable mnemonic, used in traces and error messages.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Store {
                ord: StoreOrd::Relaxed,
                ..
            } => "st.rlx",
            Op::Store {
                ord: StoreOrd::Release,
                ..
            } => "st.rel",
            Op::StoreWb {
                ord: StoreOrd::Relaxed,
                ..
            } => "stwb.rlx",
            Op::StoreWb {
                ord: StoreOrd::Release,
                ..
            } => "stwb.rel",
            Op::Load {
                ord: LoadOrd::Relaxed,
                ..
            } => "ld.rlx",
            Op::Load {
                ord: LoadOrd::Acquire,
                ..
            } => "ld.acq",
            Op::AtomicRmw {
                ord: StoreOrd::Relaxed,
                ..
            } => "amo.rlx",
            Op::AtomicRmw {
                ord: StoreOrd::Release,
                ..
            } => "amo.rel",
            Op::BulkRead { .. } => "ld.bulk",
            Op::WaitValue { .. } => "wait",
            Op::Compute { .. } => "compute",
            Op::Fence { .. } => "fence",
        }
    }
}

/// The operation stream one core executes, in program order.
///
/// # Example
///
/// ```
/// use cord_mem::Addr;
/// use cord_proto::{Program, StoreOrd};
///
/// let p = Program::build()
///     .store(Addr::new(0x100), 64, 1, StoreOrd::Relaxed)
///     .store_release(Addr::new(0x200), 1)
///     .finish();
/// assert_eq!(p.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// Creates an empty program (the core finishes immediately).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a fluent [`ProgramBuilder`].
    pub fn build() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Creates a program from explicit operations.
    pub fn from_ops(ops: Vec<Op>) -> Self {
        Program { ops }
    }

    /// The operation at `pc`, if any.
    pub fn op(&self, pc: usize) -> Option<&Op> {
        self.ops.get(pc)
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates the operations in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Op> {
        self.ops.iter()
    }

    /// Total bytes written by stores (payload footprint).
    pub fn store_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Store { bytes, .. } => *bytes as u64,
                _ => 0,
            })
            .sum()
    }

    /// Number of Release stores.
    pub fn release_count(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    Op::Store {
                        ord: StoreOrd::Release,
                        ..
                    }
                )
            })
            .count() as u64
    }
}

impl FromIterator<Op> for Program {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        Program {
            ops: iter.into_iter().collect(),
        }
    }
}

impl Extend<Op> for Program {
    fn extend<I: IntoIterator<Item = Op>>(&mut self, iter: I) {
        self.ops.extend(iter);
    }
}

/// Fluent builder for [`Program`]s.
#[derive(Debug, Default, Clone)]
pub struct ProgramBuilder {
    ops: Vec<Op>,
}

impl ProgramBuilder {
    /// Appends a store.
    pub fn store(mut self, addr: Addr, bytes: u32, value: u64, ord: StoreOrd) -> Self {
        self.ops.push(Op::Store {
            addr,
            bytes,
            value,
            ord,
        });
        self
    }

    /// Appends a Relaxed word store of `value`.
    pub fn store_relaxed(self, addr: Addr, value: u64) -> Self {
        self.store(addr, 8, value, StoreOrd::Relaxed)
    }

    /// Appends a Release word store of `value` (a flag publication).
    pub fn store_release(self, addr: Addr, value: u64) -> Self {
        self.store(addr, 8, value, StoreOrd::Release)
    }

    /// Appends a blocking load into `reg`.
    pub fn load(mut self, addr: Addr, bytes: u32, ord: LoadOrd, reg: u8) -> Self {
        self.ops.push(Op::Load {
            addr,
            bytes,
            ord,
            reg,
        });
        self
    }

    /// Appends a write-back store (§4.4).
    pub fn store_wb(mut self, addr: Addr, bytes: u32, value: u64, ord: StoreOrd) -> Self {
        self.ops.push(Op::StoreWb {
            addr,
            bytes,
            value,
            ord,
        });
        self
    }

    /// Appends an atomic fetch-add; the old value lands in `reg`.
    pub fn fetch_add(mut self, addr: Addr, add: u64, ord: StoreOrd, reg: u8) -> Self {
        self.ops.push(Op::AtomicRmw {
            addr,
            add,
            ord,
            reg,
        });
        self
    }

    /// Appends a wide MLP read into `reg`.
    pub fn bulk_read(mut self, addr: Addr, bytes: u32, reg: u8) -> Self {
        self.ops.push(Op::BulkRead { addr, bytes, reg });
        self
    }

    /// Appends an Acquire poll until `addr == expect`.
    pub fn wait_value(mut self, addr: Addr, expect: u64) -> Self {
        self.ops.push(Op::WaitValue {
            addr,
            expect,
            ord: LoadOrd::Acquire,
        });
        self
    }

    /// Appends a compute delay.
    pub fn compute(mut self, dur: Time) -> Self {
        self.ops.push(Op::Compute { dur });
        self
    }

    /// Appends a fence.
    pub fn fence(mut self, kind: FenceKind) -> Self {
        self.ops.push(Op::Fence { kind });
        self
    }

    /// Appends a bulk write: `total` bytes starting at `base`, split into
    /// Relaxed stores of `gran` bytes each (the last store may be smaller).
    ///
    /// # Panics
    ///
    /// Panics if `gran` is zero.
    pub fn bulk_store(mut self, base: Addr, total: u64, gran: u32, value: u64) -> Self {
        assert!(gran > 0, "store granularity must be positive");
        let mut off = 0u64;
        while off < total {
            let sz = (total - off).min(gran as u64) as u32;
            self.ops.push(Op::Store {
                addr: base.offset(off),
                bytes: sz,
                value,
                ord: StoreOrd::Relaxed,
            });
            off += sz as u64;
        }
        self
    }

    /// Finalizes the program.
    pub fn finish(self) -> Program {
        Program { ops: self.ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let p = Program::build()
            .store_relaxed(Addr::new(0), 1)
            .store_release(Addr::new(64), 2)
            .wait_value(Addr::new(128), 2)
            .load(Addr::new(0), 8, LoadOrd::Relaxed, 3)
            .compute(Time::from_ns(10))
            .fence(FenceKind::Release)
            .finish();
        assert_eq!(p.len(), 6);
        assert_eq!(p.release_count(), 1);
        assert_eq!(p.store_bytes(), 16);
        assert_eq!(p.op(0).unwrap().mnemonic(), "st.rlx");
        assert_eq!(p.op(1).unwrap().mnemonic(), "st.rel");
        assert_eq!(p.op(2).unwrap().mnemonic(), "wait");
        assert!(p.op(6).is_none());
    }

    #[test]
    fn bulk_store_splits_and_handles_remainder() {
        let p = Program::build()
            .bulk_store(Addr::new(0x1000), 200, 64, 7)
            .finish();
        assert_eq!(p.len(), 4); // 64+64+64+8
        let sizes: Vec<u32> = p
            .iter()
            .map(|op| match op {
                Op::Store { bytes, .. } => *bytes,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(sizes, vec![64, 64, 64, 8]);
        assert_eq!(p.store_bytes(), 200);
        // addresses are contiguous
        if let Op::Store { addr, .. } = p.op(3).unwrap() {
            assert_eq!(addr.raw(), 0x1000 + 192);
        }
    }

    #[test]
    fn from_iter_and_extend() {
        let mut p: Program = vec![Op::Compute {
            dur: Time::from_ns(1),
        }]
        .into_iter()
        .collect();
        p.extend([Op::Fence {
            kind: FenceKind::Full,
        }]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(Program::new().is_empty());
    }

    #[test]
    fn mnemonics_cover_loads() {
        let acq = Op::Load {
            addr: Addr::new(0),
            bytes: 8,
            ord: LoadOrd::Acquire,
            reg: 0,
        };
        let rlx = Op::Load {
            addr: Addr::new(0),
            bytes: 8,
            ord: LoadOrd::Relaxed,
            reg: 0,
        };
        assert_eq!(acq.mnemonic(), "ld.acq");
        assert_eq!(rlx.mnemonic(), "ld.rlx");
    }
}
