//! Simulation kernel primitives shared by every timing model in the M²NDP
//! reproduction.
//!
//! This crate provides the small, deterministic building blocks that the
//! cycle-level models (DRAM, caches, NoC, CXL links, NDP units, host cores)
//! are assembled from:
//!
//! * [`Cycle`] / [`Frequency`] — time bookkeeping and clock-domain conversion,
//! * [`BandwidthGate`] — byte/cycle throughput limiter used for links and
//!   crossbar ports,
//! * [`stats`] — counters and a sample histogram (P50/P95/P99 queries),
//! * [`rng`] — seeded random sources plus the Zipfian and exponential
//!   samplers used by the workload generators,
//! * [`EventQueue`] / [`FEventQueue`] — one `(time, seq)`-keyed event heap,
//!   [`event::KeyedQueue`], under integer cycles and `f64` nanoseconds: the
//!   device's in-flight events (L2-slice inboxes, DRAM completions,
//!   sub-core wakes, deliveries), polled every simulated cycle, and the
//!   serving runtime's arrival and completion clock,
//! * [`fingerprint`] — rolling state fingerprints asserting that optimized
//!   hot-path structures stay observably identical to naive references,
//! * [`par`] — deterministic, ordered, scoped fan-out
//!   ([`par::map_ordered_with`]), the worker pool that runs the figure
//!   sweep's cells,
//! * [`json`] — the dependency-free, deterministic JSON value shared by the
//!   figure sweep, the trace exporter, and the CLI diagnostics,
//! * [`trace`] — the opt-in observability layer: typed timeline events, the
//!   [`trace::TraceSink`] trait, and Chrome trace-event export.
//!
//! Everything here is deterministic: no wall-clock time, no global state, and
//! all randomness flows from caller-provided seeds, so simulations are
//! bit-reproducible (relied upon by the property tests across the workspace).
//!
//! # Example
//!
//! ```
//! use m2ndp_sim::{BandwidthGate, Cycle};
//!
//! // A 64 GB/s CXL direction at a 2 GHz device clock moves 32 B/cycle.
//! let mut gate = BandwidthGate::new(32.0);
//! let now: Cycle = 100;
//! let injected = gate.send(now, 256); // one 256 B flit: 8 cycles
//! assert_eq!(injected, 108);
//! // Back-to-back flits queue behind it, 8 cycles apart.
//! assert_eq!(gate.send(now, 256), 116);
//! let arrival = injected + 150; // 75 ns one-way at 2 GHz
//! assert_eq!(arrival, 258);
//! ```

#![warn(missing_docs)]

pub mod bandwidth;
pub mod event;
pub mod fingerprint;
pub mod json;
pub mod par;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use bandwidth::BandwidthGate;
pub use event::{EventQueue, FEventQueue};
pub use fingerprint::{Fingerprint, Fingerprintable};
pub use stats::{Counter, FHistogram, Snapshot};
pub use time::{Cycle, Frequency};
