//! Explicit-state model checking for CORD (paper §4.5).
//!
//! The paper verifies CORD with the Murphi model checker: bounded explicit-
//! state enumeration over litmus tests (122 herd-generated Armv8 release-
//! consistency tests plus 180 customized ones covering mixed protocols,
//! under-provisioned tables, and counter overflows). Murphi is unavailable
//! here, so this crate re-implements the methodology natively:
//!
//! * [`Litmus`] — a litmus-test DSL with RC-forbidden outcome conditions,
//! * [`Model`] — abstract operational models of CORD, source ordering, and
//!   message passing over an arbitrarily-reordering network (guarded
//!   deliveries model directory recycling),
//! * [`explore`] — exhaustive BFS with deadlock detection, sharded across
//!   `CORD_CHECK_THREADS` workers with symmetry reduction
//!   (`CORD_CHECK_SYM=0` to disable) — bit-identical reports at any width,
//! * [`classic_suite`] / [`weak_suite`] / [`stress_configs`] — the shape ×
//!   placement × provisioning campaign.
//!
//! The headline results (mirrored in this crate's test suite):
//!
//! * CORD passes every forbidden-outcome test under every placement and
//!   every stress configuration, deadlock-free;
//! * so does source ordering, and mixed CORD/SO systems;
//! * message passing **fails** ISA2/WRC-style cumulativity tests whenever
//!   the variables span destinations — the paper's §3.2 argument, found
//!   automatically.
//!
//! # Example
//!
//! ```
//! use cord_check::{explore, CheckConfig, classic_suite};
//!
//! let isa2 = classic_suite().into_iter().find(|l| l.name == "ISA2").unwrap();
//! // CORD with every variable on its own directory:
//! let report = explore(&CheckConfig::cord(3, 3), &isa2, &[0, 1, 2], 2_000_000);
//! assert!(report.passes(&isa2));
//! // Message passing reaches the forbidden outcome:
//! let report = explore(&CheckConfig::mp(3, 3), &isa2, &[0, 1, 2], 2_000_000);
//! assert!(!report.violations(&isa2).is_empty());
//! ```

mod explore;
mod litmus;
mod model;
mod narrate;
mod suites;

pub use explore::{
    check_thread_count, explore, explore_all_placements, explore_with, ExploreOpts, ExploreStats,
    Report, Verdict,
};
pub use litmus::{dsl, Cond, CondAtom, LOp, Litmus};
pub use model::{CanonScratch, CheckConfig, Model, NetMsg, State, Step, Symmetry, ThreadProto};
pub use narrate::{narrate_violation, Narrative};
pub use suites::{
    campaign_entries, classic_suite, scaling_suite, stress_configs, tso_suite, weak_suite,
    ConfigFactory,
};
