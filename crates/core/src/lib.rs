//! # CORD: release consistency ordered at the cache directory
//!
//! A from-scratch reproduction of *"CORD: Low-Latency, Bandwidth-Efficient
//! and Scalable Release Consistency via Directory Ordering"* (ISCA '25).
//!
//! In today's multi-PU systems (CPU–GPU, multi-CPU, multi-GPU), release
//! consistency for write-through stores is enforced at the **source
//! processor**: the home directory acknowledges every write-through access,
//! and a Release store may not issue until all prior acknowledgments have
//! returned. Those acknowledgments cost an interconnect round-trip of stall
//! per synchronization and control traffic proportional to the store count.
//!
//! CORD instead orders write-through stores **at the directory** — the same
//! place they commit — using:
//!
//! * decoupled sequence numbers (small epoch + wide store counter, §4.1),
//! * inter-directory notifications for multi-directory ordering (§4.2), and
//! * bounded, stall-on-overflow lookup tables (§4.3).
//!
//! This crate provides the CORD protocol engines ([`CordCore`],
//! [`CordDir`]), the bounded [`LookupTable`] primitive, and the [`System`]
//! runner that composes them (or any baseline from `cord-proto`) into the
//! paper's simulated 8-host CXL/UPI machine.
//!
//! # Quick start
//!
//! ```
//! use cord::System;
//! use cord_proto::{Program, ProtocolKind, SystemConfig};
//!
//! let cfg = SystemConfig::cxl(ProtocolKind::Cord, 2);
//! let data = cfg.map.addr_on_host(1, 0);
//! let flag = cfg.map.addr_on_host(1, 4096);
//! let mut programs = vec![Program::new(); cfg.total_tiles() as usize];
//! programs[0] = Program::build()
//!     .bulk_store(data, 4096, 64, 7) // 4 KB of Relaxed write-through data
//!     .store_release(flag, 1)        // publish
//!     .finish();
//! programs[8] = Program::build().wait_value(flag, 1).finish();
//! let result = System::new(cfg, programs).run();
//! assert!(result.makespan > cord_sim::Time::ZERO);
//! ```

mod any;
mod cord_core;
mod cord_dir;
mod frontend;
mod hybrid;
mod run_config;
mod runner;
mod shard;
mod tables;

pub use any::{AnyCore, AnyDir};
pub use cord_core::{CordCore, PROC_CNT_ENTRY_BYTES, PROC_UNACKED_ENTRY_BYTES};
pub use cord_dir::{CordDir, DIR_CNT_ENTRY_BYTES, DIR_LARGEST_ENTRY_BYTES, DIR_NOTI_ENTRY_BYTES};
pub use frontend::{FeAction, Frontend};
pub use hybrid::{HybridCore, HybridDir, WbWindow};
pub use run_config::RunConfig;
pub use runner::{RunError, RunResult, System};
pub use tables::LookupTable;
