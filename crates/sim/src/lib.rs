//! Simulation kernel primitives shared by every timing model in the M²NDP
//! reproduction.
//!
//! This crate provides the small, deterministic building blocks that the
//! cycle-level models (DRAM, caches, NoC, CXL links, NDP units, host cores)
//! are assembled from:
//!
//! * [`Cycle`] / [`Frequency`] — time bookkeeping and clock-domain conversion,
//! * [`DelayPipe`] — fixed- or variable-latency delay lines,
//! * [`BandwidthGate`] — byte/cycle throughput limiter used for links and
//!   crossbar ports,
//! * [`stats`] — counters and sample histograms (P50/P95/P99 queries),
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
//!   ([`par::map_ordered`]), the worker pool that runs the figure sweep's
//!   cells,
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
//! use m2ndp_sim::{BandwidthGate, Cycle, DelayPipe};
//!
//! // A 64 GB/s CXL direction at a 2 GHz device clock moves 32 B/cycle.
//! let mut gate = BandwidthGate::new(32.0);
//! let mut wire: DelayPipe<u32> = DelayPipe::new();
//! let now: Cycle = 100;
//! let depart = gate.earliest(now);
//! gate.consume(depart, 256); // one 256 B flit
//! wire.push_at(depart + 140, 7); // 70 ns one-way at 2 GHz
//! assert_eq!(wire.pop_ready(depart + 140), Some(7));
//! ```

#![warn(missing_docs)]

pub mod bandwidth;
pub mod event;
pub mod fingerprint;
pub mod json;
pub mod par;
pub mod pipe;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use bandwidth::BandwidthGate;
pub use event::{EventQueue, FEventQueue};
pub use fingerprint::{Fingerprint, Fingerprintable};
pub use pipe::DelayPipe;
pub use stats::{Counter, FHistogram, Histogram, RunningStat, Snapshot, TrafficStats};
pub use time::{Cycle, Frequency};
