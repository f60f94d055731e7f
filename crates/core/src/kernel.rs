//! NDP kernel specifications, registration, and launch arguments.
//!
//! A kernel (§III-G) consists of an optional *initializer* (runs once per
//! µthread slot at launch, e.g. zeroing scratchpad), one *body* program
//! (spawned across the µthread pool region, possibly for several
//! iterations), and an optional *finalizer* (post-processing / flushing
//! results to DRAM). Registration (Table II, `ndpRegisterKernel`) records
//! the code location and the per-µthread resource requirements the compiler
//! declared: scratchpad bytes and integer/float/vector register counts.

use std::collections::HashMap;
use std::sync::Arc;

use m2ndp_riscv::program::RegUsage;
use m2ndp_riscv::Program;

/// Identifier returned by `ndpRegisterKernel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub u32);

/// Identifier returned by `ndpLaunchKernel` for one kernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelInstanceId(pub u32);

/// A complete kernel specification.
///
/// Each contained [`Program`] carries the pre-decoded per-instruction
/// class table ([`Program::classes`]) built at assemble time, so the
/// engine's dispatch scan and latency selection are array lookups — the
/// table is derived from the instruction stream, never stored or edited
/// independently, and registering a spec caches it for the kernel's
/// lifetime.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Human-readable name (reporting only).
    pub name: String,
    /// Initializer program, run once per slot at launch (§III-G, Fig. 8a).
    pub init: Option<Program>,
    /// Kernel body, spawned per pool-region granule (Fig. 8b).
    pub body: Program,
    /// Finalizer program, run once per slot after all bodies (Fig. 8c).
    pub fini: Option<Program>,
    /// Scratchpad bytes the kernel needs per NDP unit.
    pub spad_bytes: u32,
    /// Integer registers per µthread.
    pub int_regs: u8,
    /// Float registers per µthread.
    pub float_regs: u8,
    /// Vector registers per µthread.
    pub vector_regs: u8,
}

impl KernelSpec {
    /// Builds a spec from programs, deriving register requirements from the
    /// union of the three programs' usage (what the compiler would declare).
    pub fn from_programs(
        name: impl Into<String>,
        init: Option<Program>,
        body: Program,
        fini: Option<Program>,
        spad_bytes: u32,
    ) -> Self {
        let mut usage = body.reg_usage();
        let fold = |u: &mut RegUsage, p: &Program| {
            let o = p.reg_usage();
            u.int_regs = u.int_regs.max(o.int_regs);
            u.float_regs = u.float_regs.max(o.float_regs);
            u.vector_regs = u.vector_regs.max(o.vector_regs);
        };
        if let Some(p) = &init {
            fold(&mut usage, p);
        }
        if let Some(p) = &fini {
            fold(&mut usage, p);
        }
        Self {
            name: name.into(),
            init,
            body,
            fini,
            spad_bytes,
            int_regs: usage.int_regs,
            float_regs: usage.float_regs,
            vector_regs: usage.vector_regs,
        }
    }

    /// A body-only kernel.
    pub fn body_only(name: impl Into<String>, body: Program) -> Self {
        Self::from_programs(name, None, body, None, 0)
    }

    /// Static instruction count across all phases (§III-D's static-count
    /// comparison).
    pub fn static_instrs(&self) -> usize {
        self.body.len()
            + self.init.as_ref().map_or(0, Program::len)
            + self.fini.as_ref().map_or(0, Program::len)
    }
}

/// The synchronicity of a launch (Table II argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Synchronicity {
    /// The launch-function read returns only after kernel termination.
    Sync,
    /// The read returns immediately; poll for completion.
    Async,
}

/// Arguments of `ndpLaunchKernel` (Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchArgs {
    /// Sync or async return semantics.
    pub synchronicity: Synchronicity,
    /// The registered kernel to run.
    pub kernel_id: KernelId,
    /// µthread pool region base (virtual address of an input/output array).
    pub pool_base: u64,
    /// µthread pool region bound (exclusive).
    pub pool_bound: u64,
    /// Kernel arguments, copied into each unit's scratchpad.
    pub args: Vec<u64>,
    /// Number of body iterations (≥1; >1 re-spawns all µthreads per
    /// iteration, the multi-body synchronization of §III-G).
    pub body_iterations: u32,
}

impl LaunchArgs {
    /// A single-iteration asynchronous launch over `[pool_base, pool_bound)`.
    pub fn new(kernel_id: KernelId, pool_base: u64, pool_bound: u64) -> Self {
        Self {
            synchronicity: Synchronicity::Async,
            kernel_id,
            pool_base,
            pool_bound,
            args: Vec::new(),
            body_iterations: 1,
        }
    }

    /// Adds kernel arguments.
    pub fn with_args(mut self, args: Vec<u64>) -> Self {
        self.args = args;
        self
    }

    /// Sets the number of body iterations.
    pub fn with_iterations(mut self, iters: u32) -> Self {
        assert!(iters >= 1, "kernels run at least one body iteration");
        self.body_iterations = iters;
        self
    }

    /// Sets synchronous completion semantics.
    pub fn synchronous(mut self) -> Self {
        self.synchronicity = Synchronicity::Sync;
        self
    }

    /// Kernel-argument byte size (Table II `kernelArgSize`).
    pub fn arg_bytes(&self) -> u32 {
        (self.args.len() * 8) as u32
    }
}

/// The kernel registry held in the M²func region's metadata area (§III-B).
///
/// Specs are stored behind an [`Arc`], so every launch of a kernel shares
/// one copy of its programs.
#[derive(Debug, Default)]
pub struct KernelRegistry {
    kernels: HashMap<KernelId, Arc<KernelSpec>>,
    next: u32,
}

impl KernelRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a kernel, returning its id.
    pub fn register(&mut self, spec: KernelSpec) -> KernelId {
        let id = KernelId(self.next);
        self.next += 1;
        self.kernels.insert(id, Arc::new(spec));
        id
    }

    /// Unregisters a kernel. Returns whether it existed. (The device also
    /// flushes instruction caches at this point, §III-F.)
    pub fn unregister(&mut self, id: KernelId) -> bool {
        self.kernels.remove(&id).is_some()
    }

    /// Looks up a kernel.
    pub fn get(&self, id: KernelId) -> Option<&Arc<KernelSpec>> {
        self.kernels.get(&id)
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Whether no kernels are registered.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Iterates over registered kernels in ascending id order (stable,
    /// for deterministic exports like trace annotation).
    pub fn iter(&self) -> impl Iterator<Item = (KernelId, &KernelSpec)> {
        let mut ids: Vec<KernelId> = self.kernels.keys().copied().collect();
        ids.sort_unstable_by_key(|k| k.0);
        ids.into_iter().map(|id| (id, &*self.kernels[&id]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m2ndp_riscv::assemble;

    fn body() -> Program {
        assemble("vsetvli x0, x0, e32, m1\nvle32.v v2, (x1)\nvse32.v v2, (x1)\nhalt").unwrap()
    }

    #[test]
    fn spec_derives_register_usage() {
        let spec = KernelSpec::body_only("copy", body());
        assert!(spec.int_regs >= 2); // x1 used
        assert!(spec.vector_regs >= 3); // v2 used
        assert_eq!(spec.float_regs, 0);
        assert_eq!(spec.static_instrs(), 4);
    }

    #[test]
    fn registry_round_trip() {
        let mut reg = KernelRegistry::new();
        let a = reg.register(KernelSpec::body_only("a", body()));
        let b = reg.register(KernelSpec::body_only("b", body()));
        assert_ne!(a, b);
        assert_eq!(reg.get(a).unwrap().name, "a");
        assert!(reg.unregister(a));
        assert!(!reg.unregister(a));
        assert!(reg.get(a).is_none());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn launch_args_builder() {
        let l = LaunchArgs::new(KernelId(3), 0xA000, 0xB000)
            .with_args(vec![1, 2, 3])
            .with_iterations(4)
            .synchronous();
        assert_eq!(l.arg_bytes(), 24);
        assert_eq!(l.body_iterations, 4);
        assert_eq!(l.synchronicity, Synchronicity::Sync);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_iterations_rejected() {
        let _ = LaunchArgs::new(KernelId(0), 0, 1).with_iterations(0);
    }

    #[test]
    fn spec_programs_carry_class_table() {
        let init = assemble("li x9, 0\nhalt").unwrap();
        let spec = KernelSpec::from_programs("k", Some(init), body(), None, 0);
        // The pre-decoded table is derived per instruction at assemble
        // time: one entry per pc, for every phase program.
        assert_eq!(spec.body.classes().len(), spec.body.len());
        let init = spec.init.as_ref().unwrap();
        assert_eq!(init.classes().len(), init.len());
        assert!(spec.body.class_at(spec.body.len()).is_none());
    }

    #[test]
    fn init_and_fini_extend_reg_usage() {
        let init = assemble("li x9, 0\nhalt").unwrap();
        let spec = KernelSpec::from_programs("k", Some(init), body(), None, 1024);
        assert!(spec.int_regs >= 10);
        assert_eq!(spec.spad_bytes, 1024);
    }
}
