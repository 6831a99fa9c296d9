//! Discrete-event simulation kernel for the CORD multi-PU coherence simulator.
//!
//! This crate provides the timing substrate that every other crate in the
//! workspace builds on:
//!
//! * [`Time`] — picosecond-resolution simulated time with cycle/ns conversions,
//! * [`EventQueue`] — a deterministic priority queue of timestamped events,
//! * [`DetRng`] — a seedable, stream-splittable random number generator so
//!   that every simulation run is exactly reproducible,
//! * [`StallTracker`] / [`Counter`] / [`Histogram`] — lightweight statistics,
//! * [`par`] — deterministic fork-join parallelism for independent runs
//!   (input-order result collection; worker count from `CORD_THREADS`),
//! * [`fault`] — deterministic, seeded fault injection plans (drop,
//!   duplicate, delay/jitter, degradation windows) applied at the
//!   interconnect boundary,
//! * [`trace`] — zero-cost-when-disabled protocol tracing: typed events,
//!   pluggable sinks (ring buffer, Perfetto-compatible Chrome-trace JSON,
//!   metrics timelines), [`trace::Tracer`], the run's one observer set,
//!   and [`trace::ObsConfig`], the one parser of the observability knobs
//!   (`CORD_TRACE`, `CORD_OBS`, `CORD_PROFILE`, `CORD_FLIGHT` and their
//!   `_OUT` paths),
//! * [`coverage`] — deterministic trace-derived coverage maps (protocol
//!   event-pair, fault-recovery and table-pressure edges), the novelty
//!   signal behind the coverage-guided fuzzer,
//! * [`obs`] — continuous observability on top of the tracer: deterministic
//!   sim-time-sampled series (JSON + Prometheus export), a failure flight
//!   recorder, a wall-clock self-profiler, and the shared campaign
//!   progress line (`CORD_PROGRESS`).
//!
//! # Example
//!
//! ```
//! use cord_sim::{EventQueue, Time};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(Time::from_ns(10), "b");
//! q.push(Time::from_ns(5), "a");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t, e), (Time::from_ns(5), "a"));
//! ```

pub mod coverage;
mod event;
pub mod fault;
pub mod obs;
pub mod par;
mod rng;
mod stats;
mod time;
pub mod trace;

pub use event::EventQueue;
pub use rng::DetRng;
pub use stats::{Counter, Histogram, StallTracker};
pub use time::{Freq, Time};
