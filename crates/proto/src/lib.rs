//! Program model, protocol messages, and baseline coherence engines for the
//! CORD multi-PU simulator.
//!
//! This crate defines everything the protocol engines share:
//!
//! * [`Op`] / [`Program`] — the memory-operation streams that simulated cores
//!   execute (Relaxed/Release write-through stores, Acquire/Relaxed loads,
//!   acquire-polls, fences, compute delays),
//! * [`Msg`] / [`MsgKind`] — the on-wire protocol messages with their sizes
//!   and traffic classes,
//! * [`CoreProtocol`] / [`DirProtocol`] — the engine interfaces a coherence
//!   protocol implements at the processor and at the directory,
//! * the three baselines the paper compares against, plus the naive
//!   directory-ordering strawman:
//!   [`SoCore`]/[`SoDir`] — **source ordering** (AMBA CHI OWO / CXL UIO
//!   style acknowledgments), [`MpCore`]/[`MpDir`] — **message passing**
//!   (PCIe-style posted writes, destination-ordered per channel),
//!   [`WbCore`]/[`WbDir`] — **write-back MESI**, and [`SeqCore`]/[`SeqDir`]
//!   — **SEQ-N** single sequence numbers (paper Fig. 10).
//!
//! The CORD engines themselves and the system runner live in the `cord`
//! crate, which composes these pieces.

pub mod common;
mod config;
mod engine;
mod mp;
mod msg;
mod ops;
mod seq;
mod so;
pub mod transport;
mod wb;

pub use common::{home_dir, ReadPath};
pub use config::{ConsistencyModel, CordWidths, CostModel, ProtocolKind, SystemConfig, TableSizes};
pub use engine::{
    CoreCtx, CoreEffect, CoreProtoStats, CoreProtocol, DirCtx, DirEffect, DirProtocol, DirStorage,
    Issue, StallCause,
};
pub use mp::{MpCore, MpDir};
pub use msg::{CoreId, DirId, Msg, MsgKind, NodeRef, WtMeta, CTRL_BYTES};
pub use ops::{FenceKind, LoadOrd, Op, Program, ProgramBuilder, StoreOrd};
pub use seq::{SeqCore, SeqDir};
pub use so::{SoCore, SoDir};
pub use transport::{
    FaultSpec, RecvOutcome, Resend, Transport, TransportConfig, XportStats, ACK_BYTES, SEQ_BYTES,
};
pub use wb::{WbCore, WbDir};
