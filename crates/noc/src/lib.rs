//! Interconnect model for the CORD multi-PU simulator.
//!
//! Models the paper's Table 1 system fabric:
//!
//! * each CPU host is a 2×4 **mesh** of tiles (core + co-located LLC slice /
//!   directory), XY-routed with a fixed per-hop latency;
//! * hosts connect through a single **switch** (CXL or UPI): a one-way
//!   host-to-host latency plus 64 GB/s link bandwidth with egress/ingress
//!   serialization and contention;
//! * all inter-host traffic is accounted per message class ([`MsgClass`]) so
//!   experiments can report acknowledgment/notification overheads exactly as
//!   the paper's figures do.
//!
//! # Fault model
//!
//! The *clean* fabric ([`Noc::send`]) delivers every message exactly once,
//! and FIFO per (source, destination) pair: departures are serialized on
//! shared egress/ingress channels and path latency is constant, so arrival
//! order matches send order.
//!
//! Those guarantees are **conditional**, not promises. With a
//! [`cord_sim::fault::FaultPlan`] installed ([`Noc::set_faults`]), the
//! [`Noc::transmit_egress`] entry point may *drop*, *duplicate*, or *delay*
//! any message — injected jitter breaks the FIFO property too. It runs the
//! source-side half of a send; an inter-host copy then still owes
//! [`Noc::ingress`]. Fault and transport activity is counted in
//! [`FaultStats`] (a field of [`TrafficStats`]).
//!
//! What each protocol layer tolerates, and who restores what:
//!
//! | fault class       | restored by              | relied on by                   |
//! |-------------------|--------------------------|--------------------------------|
//! | duplication       | transport dedup (always) | every protocol                 |
//! | loss              | transport retransmission | every protocol                 |
//! | reordering/jitter | transport FIFO hold-back | MP, WB/MESI, Hybrid only       |
//!
//! CORD, SO and SEQ run correctly over a reordering network — CORD's
//! directory ordering (epoch counters + notifications) carries the ordering
//! information in-band, which is exactly the paper's argument for why it
//! needs no ordered interconnect. The invalidation-based protocols (MP,
//! WB/MESI, Hybrid) assume point-to-point ordering, so the transport shim in
//! `cord-core` reassembles FIFO order for them before delivery. Loss and
//! duplication are below *every* protocol's abstraction and are always
//! handled by the transport (sequence numbers, acknowledgment, timeout
//! retransmission).
//!
//! # Example
//!
//! ```
//! use cord_noc::{MsgClass, Noc, NocConfig, TileId};
//! use cord_sim::Time;
//!
//! let mut noc = Noc::new(NocConfig::cxl(8, 8));
//! let src = TileId::new(0, 0);
//! let dst = TileId::new(1, 3);
//! let arrive = noc.send(Time::ZERO, src, dst, 80, MsgClass::Data);
//! assert!(arrive >= Time::from_ns(150)); // at least one switch traversal
//! assert_eq!(noc.stats().inter_bytes(), 80);
//! ```

mod topology;
mod traffic;

pub use topology::{
    DragonflyConfig, EgressDelivery, Fabric, FatTreeConfig, MsgClass, Noc, NocConfig, PodConfig,
    TileId,
};
pub use traffic::{ClassStats, FaultStats, PairFlow, TrafficStats};
