//! M²NDP: the paper's primary contribution.
//!
//! This crate implements Memory-Mapped Near-Data Processing (§III) on top of
//! the substrate crates:
//!
//! * [`m2func`] — **M²func**, the CXL.mem-compatible NDP management
//!   mechanism: the Table II user-level API, its encoding into write/read
//!   packets against a reserved M²func region, and the NDP-controller
//!   frontend that the ingress packet filter hands matching packets to;
//! * [`engine`] — **M²µthread**, the execution engine: NDP units built from
//!   sub-cores with 16 µthread slots each, fine-grained multithreading over
//!   lightweight µthreads spawned in direct association with memory (the
//!   µthread pool region), per-kernel register allocation, and the
//!   initializer/body/finalizer kernel structure of §III-G. The same engine,
//!   differently parameterized ([`config::EngineConfig`]), models GPU SMs —
//!   warp-granularity contexts, threadblock-granularity resource release,
//!   TB-scoped scratchpad, and no scalar units — which is exactly the set of
//!   differences Table III and §III-D (A1–A4) enumerate;
//! * [`device`] — the CXL-M²NDP device: CXL port + packet filter + NDP
//!   controller + units, connected through crossbars to memory-side L2
//!   slices and the LPDDR5 channels (Fig. 3);
//! * [`tlb`] — on-chip TLBs backed by the in-memory DRAM-TLB (§III-H);
//! * [`kernel`] — NDP kernel specifications and the registration-time
//!   resource accounting (Table II arguments);
//! * [`fleet`] — scaling across multiple CXL-M²NDP devices (§III-I),
//!   simulated: N real device simulators behind a switch, offloads routed
//!   through the HDM page router, the all-reduce as actual P2P switch
//!   traffic, and the NDP-in-switch variant over passive memories.

#![warn(missing_docs)]

pub mod config;
pub mod device;
pub mod engine;
pub mod fleet;
pub mod kernel;
pub mod m2func;
pub mod tlb;

pub use config::{EngineConfig, M2ndpConfig};
pub use device::{CxlM2ndpDevice, DeviceStats, MetricSet, StatValue};
pub use engine::Engine;
pub use fleet::{Fleet, FleetConfig, FleetRun, SwitchNdp};
pub use kernel::{KernelId, KernelInstanceId, KernelSpec, LaunchArgs};
pub use m2func::{M2Func, NdpApiError};
