//! The M²µthread execution engine (§III-D/E) — and, reparameterized, a GPU
//! SM array for the paper's GPU baselines.
//!
//! An [`Engine`] is a set of units (NDP units or SMs), each with sub-cores
//! holding µthread/warp slots. Every cycle each sub-core dispatches up to
//! `dispatch_width` instructions from ready slots, subject to functional-
//! unit availability (2 scalar ALUs, 1 scalar SFU/LSU, and one 256-bit
//! vALU/vSFU/vLSU per sub-core, Fig. 7). Instructions execute functionally
//! at issue; memory operations flow out of the engine as sector-granularity
//! requests and the issuing slot blocks until the device delivers the
//! responses.
//!
//! The GPU-mode differences (Table III, §III-D A1–A4) are all expressed in
//! [`EngineConfig`]:
//!
//! * contexts of 4 sub-threads execute in SIMT lockstep at the minimum pc
//!   (warp = 128 B of pool region vs the µthread's 32 B → intra-warp
//!   divergence, A4);
//! * contexts spawn and release resources in threadblock batches (A2);
//! * scratchpad scope is per-threadblock instead of per-unit (A3);
//! * no scalar units — scalar instructions occupy the vector ALU — and
//!   extra index-arithmetic instructions per context (A1).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use m2ndp_cache::{
    scratchpad::{spad_backing_addr, SPAD_APERTURE_BASE, SPAD_APERTURE_STRIDE},
    Access, CacheResult, Scratchpad, SectoredCache,
};
use m2ndp_mem::MainMemory;
use m2ndp_riscv::exec::{amo_on_memory, step_group, EffectBuf, EffectClass, MemIface, ThreadCtx};
use m2ndp_riscv::instr::{AmoOp, Width};
use m2ndp_riscv::program::FuClass;
use m2ndp_sim::{Counter, Cycle, EventQueue, Fingerprint};

use crate::config::EngineConfig;
use crate::kernel::{KernelInstanceId, KernelSpec, LaunchArgs};
use crate::m2func::InstanceStatus;
use crate::tlb::{dram_tlb_entry_addr, Tlb, DRAM_TLB_ENTRY_BYTES};

/// Sector size for memory coalescing (matches LPDDR5 access granularity).
pub const SECTOR_BYTES: u64 = 32;

/// The lowest set bit of the activity mask `mask` (64 bits per word) at
/// or above index `from`.
pub(crate) fn next_set_bit(mask: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = *mask.get(w)? & (u64::MAX << (from % 64));
    while word == 0 {
        w += 1;
        word = *mask.get(w)?;
    }
    Some(w * 64 + word.trailing_zeros() as usize)
}

/// The set bits of the activity mask `mask`, ascending.
pub(crate) fn set_bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    std::iter::successors(next_set_bit(mask, 0), |&i| next_set_bit(mask, i + 1))
}

/// Offset (within a unit's scratchpad) where per-instance argument blocks
/// are placed, growing downward from the top of the 128 KB array.
const ARG_BLOCK_BYTES: u64 = 256;

/// Fixed word layout of an argument block (u64 indices).
pub mod argblock {
    /// Word 0: virtual address of the kernel's scratchpad area.
    pub const SPAD_BASE: usize = 0;
    /// Word 1: number of initializer/finalizer µthreads spawned.
    pub const INIT_COUNT: usize = 1;
    /// Word 2: current body iteration index.
    pub const BODY_ITER: usize = 2;
    /// Word 3: µthread pool region base.
    pub const POOL_BASE: usize = 3;
    /// Word 4: µthread pool region bound.
    pub const POOL_BOUND: usize = 4;
    /// Words 5..: user kernel arguments.
    pub const USER: usize = 5;
}

/// Identifies a slot within a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubSlot {
    /// Sub-core index.
    pub subcore: u8,
    /// Slot index within the sub-core.
    pub slot: u8,
}

/// A memory request leaving the engine for the device's memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitRequest {
    /// Sector-aligned (or element) byte address.
    pub addr: u64,
    /// Size in bytes.
    pub bytes: u32,
    /// Write? (AMOs arrive as writes; they are applied functionally by the
    /// executor and charged at the memory-side L2, §III-F.)
    pub write: bool,
    /// How the response (if any) routes back.
    pub kind: RequestKind,
}

/// Response routing for a [`UnitRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Fill the unit's L1D sector; cache waiters wake on fill.
    L1Fill,
    /// Respond directly to a waiting slot (L1-bypassed reads, AMOs,
    /// DRAM-TLB fills).
    Direct(SubSlot),
    /// Posted write: no response expected.
    Posted,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Init,
    Body,
    Fini,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Free,
    Ready,
    Blocked,
    WaitMem,
    /// Finished its work but holding resources until the TB releases (A2).
    Parked,
}

#[derive(Debug)]
struct Slot {
    state: SlotState,
    ctxs: Vec<ThreadCtx>,
    instance: usize,
    phase: Phase,
    tb: Option<usize>,
    pending: u32,
    reg_bytes: u32,
    /// Remaining (start_granule, span_count) assignments for TB grid-stride.
    spans: VecDeque<u64>,
    /// Granules actually live in the current span (tail may be partial).
    live_ctxs: u32,
}

impl Slot {
    fn empty() -> Self {
        Self {
            state: SlotState::Free,
            ctxs: Vec::new(),
            instance: usize::MAX,
            phase: Phase::Body,
            tb: None,
            pending: 0,
            reg_bytes: 0,
            spans: VecDeque::new(),
            live_ctxs: 0,
        }
    }

    /// Returns the slot to the free state in place, retaining the `ctxs`
    /// and `spans` heap buffers so the next wave refills its ~`32×VLEN`
    /// register files instead of reallocating them.
    fn reset(&mut self) {
        self.state = SlotState::Free;
        self.ctxs.clear();
        self.instance = usize::MAX;
        self.phase = Phase::Body;
        self.tb = None;
        self.pending = 0;
        self.reg_bytes = 0;
        self.spans.clear();
        self.live_ctxs = 0;
    }

    /// Refills `ctxs` with exactly `n` freshly-reset contexts, reusing the
    /// retained storage (capacity only ever grows to the context width of
    /// the widest wave this slot has hosted).
    fn refill_ctxs(&mut self, n: usize) {
        self.ctxs.truncate(n);
        for ctx in &mut self.ctxs {
            ctx.reset();
        }
        while self.ctxs.len() < n {
            self.ctxs.push(ThreadCtx::new());
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct FuAvail {
    salu: u32,
    ssfu: u32,
    slsu: u32,
    valu: u32,
    vsfu: u32,
    vlsu: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FuKind {
    SAlu,
    SSfu,
    SLsu,
    VAlu,
    VSfu,
    VLsu,
}

/// Maps a pre-decoded ISA-level FU class (from the program's side
/// table, built once at assembly) onto this configuration's units: scalar
/// classes fold onto the vector units when the configuration has no scalar
/// units (GPU mode, §III-D A1).
fn fu_kind(class: FuClass, has_scalar: bool) -> FuKind {
    match class {
        FuClass::SAlu if has_scalar => FuKind::SAlu,
        FuClass::SSfu if has_scalar => FuKind::SSfu,
        FuClass::SLsu if has_scalar => FuKind::SLsu,
        FuClass::SAlu | FuClass::VAlu => FuKind::VAlu,
        FuClass::SSfu | FuClass::VSfu => FuKind::VSfu,
        FuClass::SLsu | FuClass::VLsu => FuKind::VLsu,
    }
}

#[derive(Debug)]
struct SubCore {
    slots: Vec<Slot>,
    ready: VecDeque<u8>,
    wake: EventQueue<u8>,
}

impl SubCore {
    fn new(slots: u32) -> Self {
        Self {
            slots: (0..slots).map(|_| Slot::empty()).collect(),
            ready: VecDeque::new(),
            wake: EventQueue::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TbState {
    Init,
    Body,
    Fini,
}

#[derive(Debug)]
struct TbGroup {
    instance: usize,
    members: Vec<SubSlot>,
    state: TbState,
    /// Members still executing the current TB phase.
    remaining: u32,
    /// Virtual scratchpad unit backing this TB (A3: TB-scoped shared mem).
    spad_unit: u32,
}

#[derive(Debug)]
struct Unit {
    subcores: Vec<SubCore>,
    /// Bit `s` set while sub-core `s` may have work. Set at every push
    /// onto a sub-core's ready or wake queue; cleared only at the end of
    /// that sub-core's own pass in `issue_all`, once both queues are
    /// empty. So every sub-core with a ready or wake entry has its bit
    /// set, and the per-cycle walks (`issue_all`, `tick_is_trivial`,
    /// `next_wake`, `has_ready`) visit set bits only, in sub-core order: a
    /// sub-core they skip has nothing for them to do. Derived bookkeeping:
    /// never fingerprinted.
    active: u64,
    regfile_free: u32,
    spad: Scratchpad,
    l1d: Option<SectoredCache<SubSlot>>,
    dtlb: Tlb,
    outbound: VecDeque<UnitRequest>,
    /// Threadblocks by index (slots name theirs through `Slot::tb`).
    /// Released entries are recycled through `free_tbs`, so the table is
    /// as large as the most TBs ever resident at once.
    tbs: Vec<TbGroup>,
    free_tbs: Vec<usize>,
    active_contexts: u32,
    free_slots: Vec<SubSlot>,
}

impl Unit {
    /// The sub-cores whose active bit is set, in sub-core order.
    fn active_subcores(&self) -> impl Iterator<Item = &SubCore> {
        set_bits(std::slice::from_ref(&self.active)).map(|i| &self.subcores[i])
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstPhase {
    Pending,
    Init,
    Body,
    Fini,
    Done,
}

#[derive(Debug)]
struct Instance {
    id: KernelInstanceId,
    spec: Arc<KernelSpec>,
    launch: LaunchArgs,
    phase: InstPhase,
    /// Granules in the pool region.
    granules: u64,
    /// Per-unit next granule ordinal (NDP interleaved spawning, §III-E).
    unit_cursor: Vec<u64>,
    /// Init/fini µthreads spawned and completed.
    once_spawned: u32,
    once_done: u32,
    /// Outstanding body contexts (and, in TB mode, TBs).
    outstanding: u32,
    body_iter: u32,
    /// TB mode: next chunk ordinal.
    next_tb: u64,
    total_tbs: u64,
    granules_per_tb: u64,
    started_at: Cycle,
    /// Cached register bytes per context.
    ctx_reg_bytes: u32,
    /// Scratchpad argument-block slot held while resident.
    arg_slot: u32,
}

/// Aggregate engine statistics.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Dynamic instructions executed (sub-thread granularity).
    pub instrs: Counter,
    /// Memory requests sent to the device.
    pub mem_reqs: Counter,
    /// Sector read requests that hit in L1D.
    pub l1_hits: Counter,
    /// Extra address-calculation instructions charged (A1).
    pub addr_calc_instrs: Counter,
}

/// One engine-side trace record, in the engine's cycle domain. The owning
/// device drains these each tick ([`Engine::take_trace`]), converts cycles
/// to nanoseconds, and forwards them into its
/// [`m2ndp_sim::trace::Tracer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineEvent {
    /// A kernel launch was accepted into the launch buffer.
    Launched {
        /// Acceptance cycle.
        at: Cycle,
        /// Kernel instance id.
        instance: u32,
        /// Registered kernel id.
        kernel: u32,
    },
    /// A kernel instance retired.
    Retired {
        /// Retire cycle.
        at: Cycle,
        /// Kernel instance id.
        instance: u32,
        /// Registered kernel id.
        kernel: u32,
        /// Admission cycle (span start for the kernel-run event).
        started: Cycle,
    },
    /// A wave of µthread contexts was placed onto one unit this cycle.
    WaveSpawn {
        /// Placement cycle.
        at: Cycle,
        /// Receiving unit index.
        unit: u32,
        /// Kernel instance id.
        instance: u32,
        /// Contexts placed.
        count: u32,
    },
    /// An instance's outstanding µthreads drained to zero (iteration
    /// barrier, phase hand-off, or completion).
    WaveDrain {
        /// Drain cycle.
        at: Cycle,
        /// Kernel instance id.
        instance: u32,
    },
}

/// The execution engine.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    units: Vec<Unit>,
    /// Admitted instances in admission order, which is the order the
    /// spawn passes scan. Slots, `TbGroup`s and `pending_iter_update` name
    /// an instance by its global admission index `i`, stored at
    /// `instances[i - base]`. Finished instances leave from the front at
    /// the end of each tick, so the store holds the live instances plus
    /// any that finished behind an older live one.
    instances: VecDeque<Instance>,
    /// Global admission index of `instances[0]`: the number of instances
    /// that have left the store.
    base: usize,
    /// Finish cycle of every finished instance. Outlives the instance, so
    /// `status` and `finished_at` still answer once it has left the store.
    finished: HashMap<KernelInstanceId, Cycle>,
    queued: VecDeque<Instance>,
    next_virtual_spad: u32,
    /// Instances whose body-iteration word must be rewritten at the next
    /// tick (multi-body synchronization, §III-G).
    pending_iter_update: Vec<usize>,
    /// Spare buffer ping-ponged with `pending_iter_update` so draining it
    /// never re-allocates.
    iter_scratch: Vec<usize>,
    /// True after a spawn pass placed nothing; cleared whenever an event
    /// that could enable spawning happens (slot freed, phase change). Lets
    /// `tick` prove itself a no-op without walking the instance list.
    spawn_exhausted: bool,
    /// Free scratchpad argument-block slots (one per concurrently resident
    /// kernel instance).
    free_arg_slots: Vec<u32>,
    /// Engine statistics.
    pub stats: EngineStats,
    /// Trace buffer; `None` when tracing is off (the default), so every
    /// emit site is one discriminant check.
    trace: Option<Vec<EngineEvent>>,
    /// Persistent issue-path scratch (group memory operations plus the
    /// coalescing buffers of `handle_memops`), reused across issues so a
    /// steady-state tick performs no heap allocation. Pure representation
    /// state: capacity never contributes to [`Engine::fingerprint`].
    scratch: IssueScratch,
    /// Per-unit context counts of the instance being spawned, reused
    /// across spawn passes; only filled while tracing.
    wave_counts: Vec<u32>,
}

/// Reusable buffers for one group issue: the [`EffectBuf`] the executor
/// fills plus the partition/coalescing vectors `handle_memops` builds from
/// it. Owned by the [`Engine`] and cleared per use, never reallocated in
/// steady state.
#[derive(Debug, Default)]
struct IssueScratch {
    /// Memory operations of the current group issue, in lane order.
    effects: EffectBuf,
    /// Coalesced global-read sector addresses.
    reads: Vec<u64>,
    /// Global write (addr, bytes) pieces, split at sector boundaries.
    writes: Vec<(u64, u32)>,
    /// Global atomic (addr, bytes) operations.
    amos: Vec<(u64, u32)>,
    /// Distinct page numbers touched (TLB lookups).
    pages: Vec<u64>,
}

/// Memory interface used during functional execution: rewrites the
/// scratchpad aperture to this context's backing unit and performs atomics
/// against the shared functional memory.
struct EngineMemIface<'a> {
    mem: &'a mut MainMemory,
    spad_unit: u32,
}

impl EngineMemIface<'_> {
    fn rewrite(&self, addr: u64) -> u64 {
        if (SPAD_APERTURE_BASE..SPAD_APERTURE_BASE + SPAD_APERTURE_STRIDE).contains(&addr) {
            spad_backing_addr(self.spad_unit, addr - SPAD_APERTURE_BASE)
        } else {
            addr
        }
    }
}

impl MemIface for EngineMemIface<'_> {
    fn load(&mut self, addr: u64, buf: &mut [u8]) {
        let a = self.rewrite(addr);
        self.mem.read_bytes(a, buf);
    }
    fn store(&mut self, addr: u64, data: &[u8]) {
        let a = self.rewrite(addr);
        self.mem.write_bytes(a, data);
    }
    fn amo(&mut self, op: AmoOp, width: Width, addr: u64, operand: u64) -> u64 {
        let a = self.rewrite(addr);
        amo_on_memory(self.mem, op, width, a, operand)
    }
}

impl Engine {
    /// Builds an engine from its configuration.
    ///
    /// # Panics
    /// If a unit has more than 64 sub-cores (one activity-mask word).
    pub fn new(cfg: EngineConfig) -> Self {
        assert!(
            cfg.subcores_per_unit <= 64,
            "at most 64 sub-cores per unit, got {}",
            cfg.subcores_per_unit
        );
        let free_arg_slots: Vec<u32> = (0..cfg.max_concurrent_kernels).rev().collect();
        let units = (0..cfg.units)
            .map(|_| {
                let mut free_slots = Vec::new();
                for sc in 0..cfg.subcores_per_unit {
                    for sl in 0..cfg.slots_per_subcore {
                        free_slots.push(SubSlot {
                            subcore: sc as u8,
                            slot: sl as u8,
                        });
                    }
                }
                Unit {
                    subcores: (0..cfg.subcores_per_unit)
                        .map(|_| SubCore::new(cfg.slots_per_subcore))
                        .collect(),
                    active: 0,
                    regfile_free: cfg.regfile_bytes_per_unit,
                    spad: Scratchpad::new(cfg.spad_bytes_per_unit as u64, cfg.lat.spad),
                    l1d: cfg.l1d.clone().map(SectoredCache::new),
                    dtlb: Tlb::ndp_dtlb(),
                    outbound: VecDeque::new(),
                    tbs: Vec::new(),
                    free_tbs: Vec::new(),
                    active_contexts: 0,
                    free_slots,
                }
            })
            .collect();
        Self {
            cfg,
            units,
            instances: VecDeque::new(),
            base: 0,
            finished: HashMap::new(),
            queued: VecDeque::new(),
            next_virtual_spad: 4096, // TB spad backing starts past real units
            pending_iter_update: Vec::new(),
            iter_scratch: Vec::new(),
            spawn_exhausted: false,
            free_arg_slots,
            stats: EngineStats::default(),
            trace: None,
            scratch: IssueScratch::default(),
            wave_counts: Vec::new(),
        }
    }

    /// Enables or disables engine-side trace recording. Off by default;
    /// when off, every emit site reduces to a single `Option` check and the
    /// engine's behavior is bit-identical to an uninstrumented build.
    pub fn set_trace(&mut self, on: bool) {
        if on {
            if self.trace.is_none() {
                self.trace = Some(Vec::new());
            }
        } else {
            self.trace = None;
        }
    }

    /// Whether engine-side trace recording is on.
    pub fn trace_on(&self) -> bool {
        self.trace.is_some()
    }

    /// Drains the buffered trace events (recording stays on).
    pub fn take_trace(&mut self) -> Vec<EngineEvent> {
        self.trace.as_mut().map_or_else(Vec::new, std::mem::take)
    }

    #[inline]
    fn push_ev(trace: &mut Option<Vec<EngineEvent>>, f: impl FnOnce() -> EngineEvent) {
        if let Some(buf) = trace {
            buf.push(f());
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Total scratchpad traffic across units (Fig. 6b).
    pub fn spad_traffic_bytes(&self) -> u64 {
        self.units.iter().map(|u| u.spad.total_bytes()).sum()
    }

    /// Currently active (resident, not parked) contexts across all units —
    /// the Fig. 6a occupancy metric.
    pub fn active_contexts(&self) -> u32 {
        self.units.iter().map(|u| u.active_contexts).sum()
    }

    /// Folds the engine's observable occupancy state into `fp`: context
    /// counts, queue depths, per-unit free-slot multisets, L1D line state,
    /// and sub-core ready/wake queues. Freelist order (`free_slots`,
    /// `free_arg_slots`) and scratch-buffer capacity are representation
    /// details and do not contribute, so index-freelist rewrites of the
    /// slot bookkeeping fingerprint identically.
    pub fn fingerprint(&self, fp: &mut Fingerprint) {
        fp.mix(u64::from(self.active_contexts()));
        fp.mix(self.queued.len() as u64);
        fp.mix(self.pending_iter_update.len() as u64);
        fp.mix(self.free_arg_slots.len() as u64);
        for slot in &self.free_arg_slots {
            fp.mix_unordered(u64::from(*slot));
        }
        fp.mix(self.units.len() as u64);
        for unit in &self.units {
            fp.mix(u64::from(unit.active_contexts));
            fp.mix(u64::from(unit.regfile_free));
            fp.mix(unit.outbound.len() as u64);
            fp.mix(unit.free_slots.len() as u64);
            for ss in &unit.free_slots {
                fp.mix_unordered((u64::from(ss.subcore) << 8) | u64::from(ss.slot));
            }
            match &unit.l1d {
                Some(l1) => {
                    fp.mix(1);
                    l1.fingerprint(fp);
                }
                None => fp.mix(0),
            }
            for sc in &unit.subcores {
                fp.mix(sc.ready.len() as u64);
                for &slot in &sc.ready {
                    fp.mix(u64::from(slot));
                }
                sc.wake.fingerprint(fp);
            }
        }
    }

    /// Number of resident + queued kernel instances.
    pub fn live_instances(&self) -> usize {
        self.instances
            .iter()
            .filter(|i| i.phase != InstPhase::Done)
            .count()
            + self.queued.len()
    }

    /// Submits a kernel launch. Returns `false` when the launch buffer is
    /// full (the caller surfaces `ERR`, §III-C).
    pub fn launch(
        &mut self,
        now: Cycle,
        id: KernelInstanceId,
        spec: Arc<KernelSpec>,
        launch: LaunchArgs,
    ) -> bool {
        if self.live_instances() >= self.cfg.max_concurrent_kernels as usize {
            return false;
        }
        let pool_bytes = launch.pool_bound.saturating_sub(launch.pool_base);
        let granules = pool_bytes.div_ceil(self.cfg.granule_bytes as u64).max(1);
        let ctx_reg_bytes =
            self.cfg
                .context_reg_bytes(spec.int_regs, spec.float_regs, spec.vector_regs);
        // TB sizing: grid-stride over chunks so the TB count tracks a
        // reasonable occupancy-driven grid rather than one TB per chunk.
        let (total_tbs, granules_per_tb) = if self.cfg.spawn_batch_contexts > 1 {
            let target = (self.cfg.units as u64 * 16).max(1);
            let tpc = self.cfg.threads_per_context as u64;
            let min_chunk = self.cfg.spawn_batch_contexts as u64 * tpc;
            // Chunks must be warp-width multiples so a TB's last grid-stride
            // span never spills into the next TB's chunk.
            let chunk = granules
                .div_ceil(target)
                .max(min_chunk)
                .next_multiple_of(tpc);
            (granules.div_ceil(chunk), chunk)
        } else {
            (0, 0)
        };
        let inst = Instance {
            id,
            spec,
            launch,
            phase: InstPhase::Pending,
            granules,
            unit_cursor: vec![0; self.cfg.units as usize],
            once_spawned: 0,
            once_done: 0,
            outstanding: 0,
            body_iter: 0,
            next_tb: 0,
            total_tbs,
            granules_per_tb,
            started_at: now,
            ctx_reg_bytes,
            arg_slot: u32::MAX,
        };
        Self::push_ev(&mut self.trace, || EngineEvent::Launched {
            at: now,
            instance: inst.id.0,
            kernel: inst.launch.kernel_id.0,
        });
        self.queued.push_back(inst);
        true
    }

    /// Status of an instance for `ndpPollKernelStatus`; `None` for an id
    /// this engine never accepted. A finished instance keeps answering
    /// `Finished` after it has left the live store.
    pub fn status(&self, id: KernelInstanceId) -> Option<InstanceStatus> {
        if self.queued.iter().any(|i| i.id == id) {
            return Some(InstanceStatus::Pending);
        }
        if let Some(inst) = self.instances.iter().find(|i| i.id == id) {
            return Some(match inst.phase {
                InstPhase::Done => InstanceStatus::Finished,
                InstPhase::Pending => InstanceStatus::Pending,
                _ => InstanceStatus::Running,
            });
        }
        self.finished
            .contains_key(&id)
            .then_some(InstanceStatus::Finished)
    }

    /// Completion cycle of an instance, if finished. Answers for as long
    /// as the engine lives, also after the instance has left the live
    /// store.
    pub fn finished_at(&self, id: KernelInstanceId) -> Option<Cycle> {
        self.finished.get(&id).copied()
    }

    /// How many instances have finished over the engine's lifetime. It
    /// moves exactly when some instance finishes, so a caller waiting on
    /// one can skip [`Engine::finished_at`] while it stands still.
    pub(crate) fn finished_count(&self) -> usize {
        self.finished.len()
    }

    /// Whether all submitted work has completed.
    pub fn is_idle(&self) -> bool {
        self.queued.is_empty() && self.instances.iter().all(|i| i.phase == InstPhase::Done)
    }

    /// Pops an outbound memory request from a unit.
    pub fn pop_outbound(&mut self, unit: usize) -> Option<UnitRequest> {
        self.units[unit].outbound.pop_front()
    }

    /// Delivers a memory response to a unit.
    pub fn deliver(&mut self, now: Cycle, unit: usize, kind: RequestKind, addr: u64) {
        match kind {
            RequestKind::L1Fill => {
                let u = &mut self.units[unit];
                if let Some(l1) = u.l1d.as_mut() {
                    l1.fill(now, addr);
                }
                // Pop-then-complete one at a time: the cache borrow ends
                // each iteration, so no intermediate `woken` buffer (and no
                // per-fill allocation) is needed. Order matches the old
                // collect-then-drain exactly.
                while let Some(ss) = u.l1d.as_mut().and_then(|l1| l1.pop_ready(now)) {
                    Self::complete_one(u, now, ss);
                }
            }
            RequestKind::Direct(ss) => {
                let u = &mut self.units[unit];
                Self::complete_one(u, now, ss);
            }
            RequestKind::Posted => {}
        }
    }

    fn complete_one(unit: &mut Unit, _now: Cycle, ss: SubSlot) {
        let sc = &mut unit.subcores[ss.subcore as usize];
        let slot = &mut sc.slots[ss.slot as usize];
        if slot.state != SlotState::WaitMem {
            return; // stale completion for a released slot
        }
        slot.pending = slot.pending.saturating_sub(1);
        if slot.pending == 0 {
            slot.state = SlotState::Ready;
            sc.ready.push_back(ss.slot);
            unit.active |= 1 << ss.subcore;
        }
    }

    /// One engine cycle: spawn work, wake blocked slots, dispatch.
    pub fn tick(&mut self, now: Cycle, mem: &mut MainMemory) {
        if self.tick_is_trivial(now) {
            // Nothing can admit, wake, spawn, or issue this cycle.
            return;
        }
        self.admit(now, mem);
        if !self.pending_iter_update.is_empty() {
            self.apply_iter_updates(mem);
        }
        // Drain L1D waiters whose fills matured on an earlier cycle (the
        // cache charges its hit latency after the fill arrives). Pop and
        // complete one at a time so the cache borrow ends each iteration —
        // no intermediate buffer, same order as a collect-then-drain.
        for unit in &mut self.units {
            while let Some(ss) = unit.l1d.as_mut().and_then(|l1| l1.pop_ready(now)) {
                Self::complete_one(unit, now, ss);
            }
        }
        self.spawn(now, mem);
        self.issue_all(now, mem);
        self.retire_finished();
    }

    /// Drops finished instances off the front of the store. Runs once per
    /// tick after every pass, never inside one: `spawn_tb_mode` can finish
    /// an instance (through `release_tb`) and read its index again in the
    /// same pass.
    fn retire_finished(&mut self) {
        while self
            .instances
            .front()
            .is_some_and(|i| i.phase == InstPhase::Done)
        {
            self.instances.pop_front();
            self.base += 1;
        }
    }

    /// The instance at global admission index `inst_idx`.
    fn inst(&self, inst_idx: usize) -> &Instance {
        &self.instances[inst_idx - self.base]
    }

    /// Whether this cycle's tick would change nothing but the occupancy
    /// integral: no queued launches to admit, no deferred iteration
    /// updates, the last spawn pass placed nothing and no enabling event
    /// (slot free, phase change) happened since, no slot is ready to
    /// issue, and no L1 fill or wake-up matures at or before `now`.
    ///
    /// This is a pure within-tick cost optimization — callers' tick
    /// cadence and every externally visible cycle count are unchanged.
    fn tick_is_trivial(&self, now: Cycle) -> bool {
        if !self.is_settled() {
            return false;
        }
        self.units.iter().all(|u| {
            u.l1d
                .as_ref()
                .and_then(SectoredCache::next_ready_cycle)
                .is_none_or(|c| c > now)
                && u.active_subcores()
                    .all(|sc| sc.ready.is_empty() && sc.wake.next_cycle().is_none_or(|c| c > now))
        })
    }

    /// Whether only the slots' timed queues can move the engine: no queued
    /// launch, no deferred iteration update, and the last spawn pass placed
    /// nothing with no enabling event since. These are the facts
    /// [`Self::tick_is_trivial`] checks first.
    pub(crate) fn is_settled(&self) -> bool {
        self.spawn_exhausted && self.queued.is_empty() && self.pending_iter_update.is_empty()
    }

    /// Earliest cycle at which an L1D hit or fill matures into its waiting
    /// slot (for fast-forwarding); `None` when no unit's L1D has a parked
    /// waiter.
    pub(crate) fn next_l1d_ready(&self) -> Option<Cycle> {
        self.units
            .iter()
            .filter_map(|u| u.l1d.as_ref()?.next_ready_cycle())
            .min()
    }

    /// Earliest future wake-up among blocked slots (for fast-forwarding);
    /// `None` when nothing is pending inside the engine.
    pub fn next_wake(&self) -> Option<Cycle> {
        self.units
            .iter()
            .flat_map(Unit::active_subcores)
            .filter_map(|sc| sc.wake.next_cycle())
            .min()
    }

    /// Whether nothing in the engine can move until a memory response
    /// arrives: no tick, at any later cycle, would do more than
    /// [`Self::tick_is_trivial`]'s nothing, because no launch, iteration
    /// update, spawn, ready slot, wake-up or L1D fill is pending at all.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.tick_is_trivial(Cycle::MAX)
    }

    /// Whether any slot is ready to issue right now.
    pub fn has_ready(&self) -> bool {
        self.units
            .iter()
            .any(|u| u.active_subcores().any(|sc| !sc.ready.is_empty()))
    }

    /// Panics unless every sub-core with a ready or wake entry has its
    /// active bit set.
    #[cfg(test)]
    pub(crate) fn assert_activity_invariant(&self) {
        for (u, unit) in self.units.iter().enumerate() {
            for (i, sc) in unit.subcores.iter().enumerate() {
                assert!(
                    (sc.ready.is_empty() && sc.wake.is_empty()) || unit.active & (1 << i) != 0,
                    "unit {u} sub-core {i} has work but its active bit is clear"
                );
            }
        }
    }

    // ----- instance admission and spawning -----

    fn admit(&mut self, now: Cycle, mem: &mut MainMemory) {
        while let Some(mut inst) = self.queued.pop_front() {
            let Some(arg_slot) = self.free_arg_slots.pop() else {
                self.queued.push_front(inst);
                break;
            };
            inst.arg_slot = arg_slot;
            inst.started_at = now;
            // Resource sanity: one context must fit a unit's register file.
            if inst.ctx_reg_bytes > self.cfg.regfile_bytes_per_unit {
                self.instances.push_back(inst);
                self.finish(now, self.base + self.instances.len() - 1);
                continue;
            }
            if self.cfg.spawn_batch_contexts > 1 {
                // TB mode: args written per TB at TB spawn.
                inst.phase = InstPhase::Body;
            } else {
                // Write argument blocks into every unit's scratchpad.
                for u in 0..self.cfg.units {
                    self.write_arg_block(mem, u, &inst, self.cfg.total_slots() as u64);
                }
                inst.phase = if inst.spec.init.is_some() {
                    InstPhase::Init
                } else {
                    InstPhase::Body
                };
            }
            self.instances.push_back(inst);
        }
    }

    /// Marks an instance finished at `now`: records its finish cycle,
    /// frees its argument-block slot and emits `Retired`. The instance
    /// itself leaves the store at the end of the tick.
    fn finish(&mut self, now: Cycle, inst_idx: usize) {
        let inst = &mut self.instances[inst_idx - self.base];
        inst.phase = InstPhase::Done;
        self.finished.insert(inst.id, now);
        self.free_arg_slots.push(inst.arg_slot);
        Self::push_ev(&mut self.trace, || EngineEvent::Retired {
            at: now,
            instance: inst.id.0,
            kernel: inst.launch.kernel_id.0,
            started: inst.started_at,
        });
    }

    fn arg_block_off(&self, arg_slot: u32) -> u64 {
        self.cfg.spad_bytes_per_unit as u64 - ARG_BLOCK_BYTES * (1 + arg_slot as u64)
    }

    fn write_arg_block(
        &self,
        mem: &mut MainMemory,
        spad_unit: u32,
        inst: &Instance,
        init_count: u64,
    ) {
        let off = self.arg_block_off(inst.arg_slot);
        let base = spad_backing_addr(spad_unit, off);
        let words = [
            SPAD_APERTURE_BASE,
            init_count,
            inst.body_iter as u64,
            inst.launch.pool_base,
            inst.launch.pool_bound,
        ];
        for (i, w) in words.iter().enumerate() {
            mem.write_u64(base + i as u64 * 8, *w);
        }
        for (i, w) in inst.launch.args.iter().enumerate() {
            mem.write_u64(base + (argblock::USER + i) as u64 * 8, *w);
        }
    }

    fn arg_block_va(&self, arg_slot: u32) -> u64 {
        SPAD_APERTURE_BASE + self.arg_block_off(arg_slot)
    }

    fn spawn(&mut self, now: Cycle, mem: &mut MainMemory) {
        let placed = if self.cfg.spawn_batch_contexts > 1 {
            self.spawn_tb_mode(now, mem)
        } else {
            self.spawn_fine_grained(now)
        };
        // A pass that placed nothing will keep placing nothing until a slot
        // frees or an instance changes phase; those paths reset the flag.
        self.spawn_exhausted = placed == 0;
    }

    /// NDP-mode spawning: init/fini once per slot; body µthreads mapped to
    /// pool granules, interleaved across units (§III-E load balancing).
    /// Returns the number of contexts placed.
    fn spawn_fine_grained(&mut self, now: Cycle) -> u64 {
        let mut placed: u64 = 0;
        let units = self.cfg.units as usize;
        let total_slots = self.cfg.total_slots();
        let tracing = self.trace.is_some();
        let mut wave_counts = std::mem::take(&mut self.wave_counts);
        for pos in 0..self.instances.len() {
            let inst_idx = self.base + pos;
            if tracing {
                wave_counts.clear();
                wave_counts.resize(units, 0);
            }
            let (phase, id) = {
                let inst = &self.instances[pos];
                (inst.phase, inst.arg_slot)
            };
            match phase {
                InstPhase::Init | InstPhase::Fini => loop {
                    let inst = &self.instances[pos];
                    if inst.once_spawned >= total_slots {
                        break;
                    }
                    let uid = inst.once_spawned;
                    let unit_idx = (uid as usize) % units;
                    let reg_bytes = inst.ctx_reg_bytes;
                    let Some(ss) = self.take_slot(unit_idx, reg_bytes) else {
                        break;
                    };
                    let prog_phase = if phase == InstPhase::Init {
                        Phase::Init
                    } else {
                        Phase::Fini
                    };
                    let arg_va = self.arg_block_va(id);
                    self.place(
                        unit_idx, ss, inst_idx, prog_phase, 0, uid as u64, arg_va, None,
                    );
                    placed += 1;
                    self.instances[pos].once_spawned += 1;
                    self.instances[pos].outstanding += 1;
                    if tracing {
                        wave_counts[unit_idx] += 1;
                    }
                },
                InstPhase::Body => {
                    // Fill free slots unit by unit with that unit's granules.
                    // (`wave_counts` is only filled while tracing, so this
                    // cannot iterate over it.)
                    #[allow(clippy::needless_range_loop)]
                    for unit_idx in 0..units {
                        loop {
                            let inst = &self.instances[pos];
                            let cursor = inst.unit_cursor[unit_idx];
                            let granule = unit_idx as u64 + cursor * units as u64;
                            if granule >= inst.granules {
                                break;
                            }
                            let reg_bytes = inst.ctx_reg_bytes;
                            let Some(ss) = self.take_slot(unit_idx, reg_bytes) else {
                                break;
                            };
                            let gb = self.cfg.granule_bytes as u64;
                            let addr = self.instances[pos].launch.pool_base + granule * gb;
                            let arg_va = self.arg_block_va(id);
                            self.place(
                                unit_idx,
                                ss,
                                inst_idx,
                                Phase::Body,
                                addr,
                                granule * gb,
                                arg_va,
                                None,
                            );
                            placed += 1;
                            self.instances[pos].unit_cursor[unit_idx] += 1;
                            self.instances[pos].outstanding += 1;
                            if tracing {
                                wave_counts[unit_idx] += 1;
                            }
                        }
                    }
                }
                _ => {}
            }
            if tracing {
                let instance = self.instances[pos].id.0;
                for (unit, &count) in wave_counts.iter().enumerate() {
                    if count > 0 {
                        Self::push_ev(&mut self.trace, || EngineEvent::WaveSpawn {
                            at: now,
                            unit: unit as u32,
                            instance,
                            count,
                        });
                    }
                }
            }
        }
        self.wave_counts = wave_counts;
        placed
    }

    /// GPU-mode spawning: whole threadblocks (spawn_batch contexts) with a
    /// contiguous granule chunk, scheduled round-robin across units.
    /// Returns the number of TBs placed (empty TBs released through the
    /// completion path still count — the pass made progress).
    fn spawn_tb_mode(&mut self, now: Cycle, mem: &mut MainMemory) -> u64 {
        let mut placed: u64 = 0;
        let units = self.cfg.units as usize;
        let batch = self.cfg.spawn_batch_contexts;
        let tpc = self.cfg.threads_per_context;
        for pos in 0..self.instances.len() {
            let inst_idx = self.base + pos;
            loop {
                let inst = &self.instances[pos];
                if inst.phase != InstPhase::Body || inst.next_tb >= inst.total_tbs {
                    break;
                }
                let tb_ord = inst.next_tb;
                let unit_idx = (tb_ord as usize) % units;
                let reg_bytes = inst.ctx_reg_bytes;
                // All-or-nothing TB admission.
                if self.units[unit_idx].free_slots.len() < batch as usize
                    || self.units[unit_idx].regfile_free < reg_bytes * batch
                {
                    break;
                }
                let chunk_start = tb_ord * inst.granules_per_tb;
                let chunk_len = inst.granules_per_tb.min(inst.granules - chunk_start);
                let spad_unit = self.next_virtual_spad;
                self.next_virtual_spad += 1;
                self.write_arg_block(mem, spad_unit, &self.instances[pos], 1);
                let inst = &self.instances[pos];
                let arg_va = self.arg_block_va(inst.arg_slot);
                let state = if inst.spec.init.is_some() {
                    TbState::Init
                } else {
                    TbState::Body
                };

                let tbg = TbGroup {
                    instance: inst_idx,
                    members: Vec::with_capacity(batch as usize),
                    state,
                    remaining: 0,
                    spad_unit,
                };
                let unit = &mut self.units[unit_idx];
                let tb_idx = match unit.free_tbs.pop() {
                    Some(tb_idx) => {
                        unit.tbs[tb_idx] = tbg;
                        tb_idx
                    }
                    None => {
                        unit.tbs.push(tbg);
                        unit.tbs.len() - 1
                    }
                };
                for _ in 0..batch {
                    let ss = self
                        .take_slot(unit_idx, reg_bytes)
                        .expect("checked free slots above");
                    self.units[unit_idx].tbs[tb_idx].members.push(ss);
                }

                // Assign grid-stride spans: context j takes granule spans
                // starting at chunk_start + j*tpc, striding batch*tpc.
                for j in 0..batch as usize {
                    let ss = self.units[unit_idx].tbs[tb_idx].members[j];
                    let mut spans = VecDeque::new();
                    let mut s = chunk_start + j as u64 * tpc as u64;
                    while s < chunk_start + chunk_len {
                        spans.push_back(s);
                        s += (batch * tpc) as u64;
                    }
                    if state == TbState::Init {
                        if j == 0 {
                            self.place(
                                unit_idx,
                                ss,
                                inst_idx,
                                Phase::Init,
                                0,
                                0,
                                arg_va,
                                Some(tb_idx),
                            );
                            self.units[unit_idx].subcores[ss.subcore as usize].slots
                                [ss.slot as usize]
                                .spans = spans;
                            self.units[unit_idx].tbs[tb_idx].remaining += 1;
                        } else {
                            // Parked until init completes; spans stored.
                            let slot = &mut self.units[unit_idx].subcores[ss.subcore as usize]
                                .slots[ss.slot as usize];
                            slot.state = SlotState::Parked;
                            slot.instance = inst_idx;
                            slot.phase = Phase::Body;
                            slot.tb = Some(tb_idx);
                            slot.spans = spans;
                            slot.reg_bytes = reg_bytes;
                            self.units[unit_idx].active_contexts += 1;
                        }
                    } else {
                        // Straight to body. Members without any spans (the
                        // pool is smaller than the TB) park immediately and
                        // never count toward `remaining`.
                        let has_spans = !spans.is_empty();
                        let slot = &mut self.units[unit_idx].subcores[ss.subcore as usize].slots
                            [ss.slot as usize];
                        slot.spans = spans;
                        slot.instance = inst_idx;
                        slot.tb = Some(tb_idx);
                        slot.reg_bytes = reg_bytes;
                        slot.state = SlotState::Parked;
                        self.units[unit_idx].active_contexts += 1;
                        if has_spans {
                            self.units[unit_idx].tbs[tb_idx].remaining += 1;
                            self.start_next_span(unit_idx, ss, inst_idx, tb_idx);
                        }
                    }
                }
                // A TB whose pool slice was empty (or smaller than its
                // member count) may have nothing to run at all: release it
                // through the normal completion path so the instance still
                // terminates.
                if self.units[unit_idx].tbs[tb_idx].state == TbState::Body
                    && self.units[unit_idx].tbs[tb_idx].remaining == 0
                {
                    self.instances[pos].outstanding += 1;
                    self.instances[pos].next_tb += 1;
                    self.advance_tb(now, unit_idx, tb_idx);
                    self.stats
                        .addr_calc_instrs
                        .add((self.cfg.addr_calc_overhead * batch) as u64);
                    placed += 1;
                    continue;
                }

                self.instances[pos].next_tb += 1;
                self.instances[pos].outstanding += 1;
                placed += 1;
                self.stats
                    .addr_calc_instrs
                    .add((self.cfg.addr_calc_overhead * batch) as u64);
                let instance = self.instances[pos].id.0;
                Self::push_ev(&mut self.trace, || EngineEvent::WaveSpawn {
                    at: now,
                    unit: unit_idx as u32,
                    instance,
                    count: batch,
                });
            }
        }
        placed
    }

    /// Sets a TB-mode slot running its next granule span, or returns false
    /// when none remain.
    fn start_next_span(
        &mut self,
        unit_idx: usize,
        ss: SubSlot,
        inst_idx: usize,
        tb_idx: usize,
    ) -> bool {
        let tpc = self.cfg.threads_per_context as u64;
        let gb = self.cfg.granule_bytes as u64;
        let (pool_base, granules, id) = {
            let inst = self.inst(inst_idx);
            (inst.launch.pool_base, inst.granules, inst.arg_slot)
        };
        let arg_va = self.arg_block_va(id);
        let unit = &mut self.units[unit_idx];
        let sc = &mut unit.subcores[ss.subcore as usize];
        let slot = &mut sc.slots[ss.slot as usize];
        let Some(span_start) = slot.spans.pop_front() else {
            return false;
        };
        slot.refill_ctxs(tpc as usize);
        let mut live = 0;
        for (i, ctx) in slot.ctxs.iter_mut().enumerate() {
            let g = span_start + i as u64;
            ctx.x[1] = pool_base + g * gb;
            ctx.x[2] = g * gb;
            ctx.x[3] = arg_va;
            if g >= granules {
                ctx.done = true; // tail lane masked off
            } else {
                live += 1;
            }
        }
        slot.phase = Phase::Body;
        slot.instance = inst_idx;
        slot.tb = Some(tb_idx);
        slot.live_ctxs = live;
        slot.pending = 0;
        slot.state = SlotState::Ready;
        sc.ready.push_back(ss.slot);
        unit.active |= 1 << ss.subcore;
        true
    }

    fn take_slot(&mut self, unit_idx: usize, reg_bytes: u32) -> Option<SubSlot> {
        let unit = &mut self.units[unit_idx];
        if unit.regfile_free < reg_bytes {
            return None;
        }
        let ss = unit.free_slots.pop()?;
        unit.regfile_free -= reg_bytes;
        Some(ss)
    }

    // Takes the full placement tuple; bundling it into a struct would only
    // move the argument list one call deeper. Places a single-µthread
    // context seeded per the spawn ABI (`x1` = mapped address, `x2` =
    // offset, `x3` = arg-block VA), reusing the slot's ctx storage.
    #[allow(clippy::too_many_arguments)]
    fn place(
        &mut self,
        unit_idx: usize,
        ss: SubSlot,
        inst_idx: usize,
        phase: Phase,
        addr: u64,
        offset: u64,
        arg_va: u64,
        tb: Option<usize>,
    ) {
        let reg_bytes = self.inst(inst_idx).ctx_reg_bytes;
        let unit = &mut self.units[unit_idx];
        let sc = &mut unit.subcores[ss.subcore as usize];
        let slot = &mut sc.slots[ss.slot as usize];
        debug_assert_eq!(slot.state, SlotState::Free);
        slot.state = SlotState::Ready;
        slot.refill_ctxs(1);
        slot.ctxs[0].x[1] = addr;
        slot.ctxs[0].x[2] = offset;
        slot.ctxs[0].x[3] = arg_va;
        slot.instance = inst_idx;
        slot.phase = phase;
        slot.tb = tb;
        slot.pending = 0;
        slot.reg_bytes = reg_bytes;
        slot.live_ctxs = 1;
        sc.ready.push_back(ss.slot);
        unit.active |= 1 << ss.subcore;
        unit.active_contexts += 1;
        if self.cfg.addr_calc_overhead > 0 {
            self.stats
                .addr_calc_instrs
                .add(self.cfg.addr_calc_overhead as u64);
        }
    }

    // ----- dispatch -----

    fn issue_all(&mut self, now: Cycle, mem: &mut MainMemory) {
        for unit_idx in 0..self.units.len() {
            // The live mask is re-read at every step: a TB-mode
            // `advance_tb` can mark a later sub-core during this pass, and
            // that sub-core still issues in this pass.
            let mut next = 0;
            while let Some(sc_idx) =
                next_set_bit(std::slice::from_ref(&self.units[unit_idx].active), next)
            {
                next = sc_idx + 1;
                // Wake blocked slots first.
                loop {
                    let sc = &mut self.units[unit_idx].subcores[sc_idx];
                    let Some((_, slot_idx)) = sc.wake.pop_due(now) else {
                        break;
                    };
                    let slot = &mut sc.slots[slot_idx as usize];
                    if slot.state == SlotState::Blocked {
                        slot.state = SlotState::Ready;
                        sc.ready.push_back(slot_idx);
                    }
                }
                self.issue_subcore(now, mem, unit_idx, sc_idx);
                let unit = &mut self.units[unit_idx];
                let sc = &unit.subcores[sc_idx];
                if sc.ready.is_empty() && sc.wake.is_empty() {
                    unit.active &= !(1 << sc_idx);
                }
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn issue_subcore(&mut self, now: Cycle, mem: &mut MainMemory, unit_idx: usize, sc_idx: usize) {
        let mut avail = FuAvail {
            salu: self.cfg.scalar_alus,
            ssfu: self.cfg.scalar_sfus,
            slsu: self.cfg.scalar_lsus,
            valu: self.cfg.vector_alus,
            vsfu: self.cfg.vector_sfus,
            vlsu: self.cfg.vector_lsus,
        };
        let mut issued = 0u32;
        let max_scan = self.units[unit_idx].subcores[sc_idx].ready.len();
        let mut scanned = 0usize;
        while issued < self.cfg.dispatch_width && scanned < max_scan {
            scanned += 1;
            let Some(slot_idx) = self.units[unit_idx].subcores[sc_idx].ready.pop_front() else {
                break;
            };
            // Determine the SIMT group and the FU needed — one borrow, no
            // per-scanned-slot `Arc` clone of the spec: the FU comes from
            // the program's pre-decoded class table instead of re-matching
            // the fetched instruction.
            enum Scan {
                /// All sub-threads done (possible for fully-masked tails).
                AllDone,
                /// Program ran off the end: treat as halt for robustness.
                OffEnd,
                /// Issue the group at this pc on this FU class.
                Issue(usize, FuClass),
            }
            let scan = {
                let slot = &self.units[unit_idx].subcores[sc_idx].slots[slot_idx as usize];
                let spec = &self.inst(slot.instance).spec;
                let prog = match slot.phase {
                    Phase::Init => spec.init.as_ref().expect("init phase has program"),
                    Phase::Body => &spec.body,
                    Phase::Fini => spec.fini.as_ref().expect("fini phase has program"),
                };
                match slot.ctxs.iter().filter(|c| !c.done).map(|c| c.pc).min() {
                    None => Scan::AllDone,
                    Some(pc) => match prog.class_at(pc) {
                        Some(class) => Scan::Issue(pc, class.fu),
                        None => Scan::OffEnd,
                    },
                }
            };
            let (min_pc, fu_class) = match scan {
                Scan::AllDone => {
                    self.retire_slot(now, unit_idx, sc_idx, slot_idx);
                    continue;
                }
                Scan::OffEnd => {
                    for c in
                        &mut self.units[unit_idx].subcores[sc_idx].slots[slot_idx as usize].ctxs
                    {
                        c.done = true;
                    }
                    self.retire_slot(now, unit_idx, sc_idx, slot_idx);
                    continue;
                }
                Scan::Issue(pc, fu) => (pc, fu),
            };
            let fu = fu_kind(fu_class, self.cfg.has_scalar_units);
            let counter = match fu {
                FuKind::SAlu => &mut avail.salu,
                FuKind::SSfu => &mut avail.ssfu,
                FuKind::SLsu => &mut avail.slsu,
                FuKind::VAlu => &mut avail.valu,
                FuKind::VSfu => &mut avail.vsfu,
                FuKind::VLsu => &mut avail.vlsu,
            };
            if *counter == 0 {
                // Structural hazard: rotate to the back, try another slot.
                self.units[unit_idx].subcores[sc_idx]
                    .ready
                    .push_back(slot_idx);
                continue;
            }
            *counter -= 1;
            issued += 1;
            self.execute_group(now, mem, unit_idx, sc_idx, slot_idx, min_pc);
        }
    }

    /// Executes one SIMT group issue: all non-done sub-threads at `min_pc`
    /// run the instruction there via [`step_group`] (decode once, tight
    /// lane loop), with memory operations collected in the engine-owned
    /// [`IssueScratch`] — no allocation on this path in steady state.
    fn execute_group(
        &mut self,
        now: Cycle,
        mem: &mut MainMemory,
        unit_idx: usize,
        sc_idx: usize,
        slot_idx: u8,
        min_pc: usize,
    ) {
        let (inst_idx, phase, spad_unit) = {
            let slot = &self.units[unit_idx].subcores[sc_idx].slots[slot_idx as usize];
            let spad_unit = match slot.tb {
                Some(tb_idx) => self.units[unit_idx].tbs[tb_idx].spad_unit,
                None => unit_idx as u32,
            };
            (slot.instance, slot.phase, spad_unit)
        };
        let mut scratch = std::mem::take(&mut self.scratch);
        let group = {
            let spec = &self.instances[inst_idx - self.base].spec;
            let prog = match phase {
                Phase::Init => spec.init.as_ref().expect("init"),
                Phase::Body => &spec.body,
                Phase::Fini => spec.fini.as_ref().expect("fini"),
            };
            let slot = &mut self.units[unit_idx].subcores[sc_idx].slots[slot_idx as usize];
            let mut iface = EngineMemIface { mem, spad_unit };
            step_group(
                &mut slot.ctxs,
                min_pc,
                prog,
                &mut iface,
                &mut scratch.effects,
            )
        };
        self.stats.instrs.add(group.lanes as u64);
        let class = group.effect.unwrap_or(EffectClass::Halted);

        // All sub-threads done after this issue?
        let all_done = self.units[unit_idx].subcores[sc_idx].slots[slot_idx as usize]
            .ctxs
            .iter()
            .all(|c| c.done);
        if all_done {
            self.scratch = scratch;
            self.retire_slot(now, unit_idx, sc_idx, slot_idx);
            return;
        }

        let lat = self.cfg.lat;
        let block_for = |l: Cycle| l.max(1);
        match class {
            EffectClass::Mem | EffectClass::VMem => {
                self.handle_memops(now, unit_idx, sc_idx, slot_idx, &mut scratch);
            }
            EffectClass::Alu | EffectClass::Branch | EffectClass::VCtl => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.alu));
            }
            EffectClass::Mul => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.mul))
            }
            EffectClass::Div => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.div))
            }
            EffectClass::FpAlu => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.fp))
            }
            EffectClass::Sfu => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.sfu))
            }
            EffectClass::VAlu => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.valu))
            }
            EffectClass::VFpu => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.vfpu))
            }
            EffectClass::VSfu => {
                self.block_slot(now, unit_idx, sc_idx, slot_idx, block_for(lat.vsfu))
            }
            EffectClass::Halted => {
                // Group halted but other sub-threads continue (divergence).
                self.block_slot(now, unit_idx, sc_idx, slot_idx, 1);
            }
        }
        self.scratch = scratch;
    }

    fn block_slot(&mut self, now: Cycle, unit_idx: usize, sc_idx: usize, slot_idx: u8, dur: Cycle) {
        let unit = &mut self.units[unit_idx];
        let sc = &mut unit.subcores[sc_idx];
        let slot = &mut sc.slots[slot_idx as usize];
        if dur <= 1 {
            // Ready again next cycle: keep it in the ready queue.
            slot.state = SlotState::Ready;
            sc.ready.push_back(slot_idx);
        } else {
            slot.state = SlotState::Blocked;
            sc.wake.schedule(now + dur, slot_idx);
        }
        unit.active |= 1 << sc_idx;
    }

    /// Routes the memory operations of one group issue: scratchpad accesses
    /// complete locally; global accesses coalesce into sectors and go
    /// through the L1D (reads) or out as posted writes / L2 atomics.
    fn handle_memops(
        &mut self,
        now: Cycle,
        unit_idx: usize,
        sc_idx: usize,
        slot_idx: u8,
        scratch: &mut IssueScratch,
    ) {
        let ss = SubSlot {
            subcore: sc_idx as u8,
            slot: slot_idx,
        };
        let mut max_local_ready = now + 1;
        let mut pending = 0u32;

        // Partition: scratchpad vs global. The partition buffers live in
        // the engine-owned scratch so steady-state issues don't allocate.
        let IssueScratch {
            effects,
            reads: global_reads,
            writes: global_writes,
            amos: global_amos,
            pages,
        } = scratch;
        global_reads.clear();
        global_writes.clear();
        global_amos.clear();
        pages.clear();
        for op in effects.memops() {
            if (SPAD_APERTURE_BASE..SPAD_APERTURE_BASE + SPAD_APERTURE_STRIDE).contains(&op.addr) {
                let unit = &mut self.units[unit_idx];
                let ready = unit.spad.access(now, op.bytes, op.write, op.amo);
                max_local_ready = max_local_ready.max(ready);
            } else if op.amo {
                global_amos.push((op.addr, op.bytes));
            } else if op.write {
                // Split at sector boundaries so no downstream access
                // crosses a cache-line edge (unaligned vector stores).
                let mut a = op.addr;
                let mut remaining = op.bytes;
                while remaining > 0 {
                    let room = (SECTOR_BYTES - (a % SECTOR_BYTES)) as u32;
                    let chunk = remaining.min(room);
                    global_writes.push((a, chunk));
                    a += chunk as u64;
                    remaining -= chunk;
                }
            } else {
                // Coalesce reads to sectors.
                let first = op.addr & !(SECTOR_BYTES - 1);
                let last = (op.addr + op.bytes as u64 - 1) & !(SECTOR_BYTES - 1);
                let mut s = first;
                while s <= last {
                    global_reads.push(s);
                    s += SECTOR_BYTES;
                }
            }
        }
        global_reads.sort_unstable();
        global_reads.dedup();

        // TLB: one lookup per distinct page touched.
        pages.extend(
            global_reads
                .iter()
                .copied()
                .chain(global_writes.iter().map(|(a, _)| *a))
                .chain(global_amos.iter().map(|(a, _)| *a))
                .map(|a| a >> self.units[unit_idx].dtlb.page_shift()),
        );
        pages.sort_unstable();
        pages.dedup();
        for &page in pages.iter() {
            let unit = &mut self.units[unit_idx];
            if !unit.dtlb.access(page << unit.dtlb.page_shift()) {
                // DRAM-TLB fill: one 16 B read the slot must wait for.
                let addr = dram_tlb_entry_addr(0, page);
                unit.outbound.push_back(UnitRequest {
                    addr,
                    bytes: DRAM_TLB_ENTRY_BYTES,
                    write: false,
                    kind: RequestKind::Direct(ss),
                });
                pending += 1;
                self.stats.mem_reqs.inc();
            }
        }

        // Reads through the L1D.
        for &sector in global_reads.iter() {
            let unit = &mut self.units[unit_idx];
            match unit.l1d.as_mut() {
                Some(l1) => {
                    let res = l1.access(
                        now,
                        Access {
                            addr: sector,
                            bytes: SECTOR_BYTES as u32,
                            write: false,
                        },
                        ss,
                    );
                    match res {
                        CacheResult::Hit { ready_at } => {
                            max_local_ready = max_local_ready.max(ready_at);
                            self.stats.l1_hits.inc();
                        }
                        CacheResult::MergedMiss => pending += 1,
                        CacheResult::Miss { fetches, writeback } => {
                            pending += 1;
                            for f in fetches {
                                unit.outbound.push_back(UnitRequest {
                                    addr: f,
                                    bytes: SECTOR_BYTES as u32,
                                    write: false,
                                    kind: RequestKind::L1Fill,
                                });
                                self.stats.mem_reqs.inc();
                            }
                            if let Some((a, b)) = writeback {
                                unit.outbound.push_back(UnitRequest {
                                    addr: a,
                                    bytes: b,
                                    write: true,
                                    kind: RequestKind::Posted,
                                });
                            }
                        }
                        CacheResult::Stalled | CacheResult::WriteForward { .. } => {
                            // MSHR exhaustion: bypass the L1 for this sector.
                            unit.outbound.push_back(UnitRequest {
                                addr: sector,
                                bytes: SECTOR_BYTES as u32,
                                write: false,
                                kind: RequestKind::Direct(ss),
                            });
                            pending += 1;
                            self.stats.mem_reqs.inc();
                        }
                    }
                }
                None => {
                    unit.outbound.push_back(UnitRequest {
                        addr: sector,
                        bytes: SECTOR_BYTES as u32,
                        write: false,
                        kind: RequestKind::Direct(ss),
                    });
                    pending += 1;
                    self.stats.mem_reqs.inc();
                }
            }
        }

        // Writes: write-through, posted (§III-F).
        for &(addr, bytes) in global_writes.iter() {
            let unit = &mut self.units[unit_idx];
            if let Some(l1) = unit.l1d.as_mut() {
                let _ = l1.access(
                    now,
                    Access {
                        addr,
                        bytes,
                        write: true,
                    },
                    ss,
                );
            }
            unit.outbound.push_back(UnitRequest {
                addr,
                bytes,
                write: true,
                kind: RequestKind::Posted,
            });
            self.stats.mem_reqs.inc();
        }

        // Atomics execute at the memory-side L2; the slot waits for the ack.
        for &(addr, bytes) in global_amos.iter() {
            let unit = &mut self.units[unit_idx];
            unit.outbound.push_back(UnitRequest {
                addr,
                bytes,
                write: true,
                kind: RequestKind::Direct(ss),
            });
            pending += 1;
            self.stats.mem_reqs.inc();
        }

        let unit = &mut self.units[unit_idx];
        let sc = &mut unit.subcores[sc_idx];
        let slot = &mut sc.slots[slot_idx as usize];
        if pending > 0 {
            slot.pending = pending;
            slot.state = SlotState::WaitMem;
        } else if max_local_ready > now + 1 {
            slot.state = SlotState::Blocked;
            sc.wake.schedule(max_local_ready, slot_idx);
            unit.active |= 1 << sc_idx;
        } else {
            slot.state = SlotState::Ready;
            sc.ready.push_back(slot_idx);
            unit.active |= 1 << sc_idx;
        }
    }

    /// Handles a slot whose sub-threads have all terminated.
    fn retire_slot(&mut self, now: Cycle, unit_idx: usize, sc_idx: usize, slot_idx: u8) {
        let ss = SubSlot {
            subcore: sc_idx as u8,
            slot: slot_idx,
        };
        let (inst_idx, phase, tb) = {
            let slot = &self.units[unit_idx].subcores[sc_idx].slots[slot_idx as usize];
            (slot.instance, slot.phase, slot.tb)
        };
        match tb {
            None => {
                self.free_slot(unit_idx, ss);
                self.on_context_done(now, inst_idx, phase);
            }
            Some(tb_idx) => {
                // TB mode: try the next grid-stride span first.
                if phase == Phase::Body && self.start_next_span(unit_idx, ss, inst_idx, tb_idx) {
                    return;
                }
                // Member finished its TB phase; park until the TB releases.
                {
                    let slot = &mut self.units[unit_idx].subcores[sc_idx].slots[slot_idx as usize];
                    slot.state = SlotState::Parked;
                }
                let done = {
                    let tbg = &mut self.units[unit_idx].tbs[tb_idx];
                    tbg.remaining -= 1;
                    tbg.remaining == 0
                };
                if done {
                    self.advance_tb(now, unit_idx, tb_idx);
                }
            }
        }
    }

    fn advance_tb(&mut self, now: Cycle, unit_idx: usize, tb_idx: usize) {
        let (state, inst_idx) = {
            let tbg = &self.units[unit_idx].tbs[tb_idx];
            (tbg.state, tbg.instance)
        };
        match state {
            TbState::Init => {
                // Activate all members for the body phase.
                let tbg = &mut self.units[unit_idx].tbs[tb_idx];
                tbg.state = TbState::Body;
                for j in 0..tbg.members.len() {
                    let ss = self.units[unit_idx].tbs[tb_idx].members[j];
                    if self.start_next_span(unit_idx, ss, inst_idx, tb_idx) {
                        self.units[unit_idx].tbs[tb_idx].remaining += 1;
                    }
                }
                if self.units[unit_idx].tbs[tb_idx].remaining == 0 {
                    self.advance_tb(now, unit_idx, tb_idx);
                }
            }
            TbState::Body => {
                let inst = self.inst(inst_idx);
                if inst.spec.fini.is_some() {
                    let arg_va = self.arg_block_va(inst.arg_slot);
                    let unit = &mut self.units[unit_idx];
                    let tbg = &mut unit.tbs[tb_idx];
                    tbg.state = TbState::Fini;
                    tbg.remaining = 1;
                    let ss = tbg.members[0];
                    let sc = &mut unit.subcores[ss.subcore as usize];
                    let slot = &mut sc.slots[ss.slot as usize];
                    slot.refill_ctxs(1);
                    slot.ctxs[0].x[3] = arg_va;
                    slot.phase = Phase::Fini;
                    slot.state = SlotState::Ready;
                    slot.live_ctxs = 1;
                    sc.ready.push_back(ss.slot);
                    unit.active |= 1 << ss.subcore;
                } else {
                    self.release_tb(now, unit_idx, tb_idx);
                }
            }
            TbState::Fini => {
                self.release_tb(now, unit_idx, tb_idx);
            }
        }
    }

    /// Frees a TB's member slots and recycles its entry through `free_tbs`.
    fn release_tb(&mut self, now: Cycle, unit_idx: usize, tb_idx: usize) {
        let tbg = &mut self.units[unit_idx].tbs[tb_idx];
        let inst_idx = tbg.instance;
        for ss in std::mem::take(&mut tbg.members) {
            self.free_slot(unit_idx, ss);
        }
        self.units[unit_idx].free_tbs.push(tb_idx);
        self.on_context_done(now, inst_idx, Phase::Body);
    }

    fn free_slot(&mut self, unit_idx: usize, ss: SubSlot) {
        let unit = &mut self.units[unit_idx];
        let slot = &mut unit.subcores[ss.subcore as usize].slots[ss.slot as usize];
        unit.regfile_free += slot.reg_bytes;
        slot.reset(); // retains ctx/span heap buffers for the next wave
        unit.free_slots.push(ss);
        unit.active_contexts = unit.active_contexts.saturating_sub(1);
        // A freed slot (and its registers) may let a stalled spawn proceed.
        self.spawn_exhausted = false;
    }

    /// Instance phase bookkeeping when a context (or TB) finishes.
    fn on_context_done(&mut self, now: Cycle, inst_idx: usize, phase: Phase) {
        // Phase transitions below (Init→Body, Body rerun, →Fini) can make
        // new work spawnable even without a slot freeing first.
        self.spawn_exhausted = false;
        let tb_mode = self.cfg.spawn_batch_contexts > 1;
        let units = self.cfg.units as u64;
        let total_slots = self.cfg.total_slots();
        let inst = &mut self.instances[inst_idx - self.base];
        inst.outstanding -= 1;
        // Init/fini µthreads run once per slot (NDP mode only); body
        // contexts (or TBs) drain an iteration once all are spawned.
        let once = matches!(phase, Phase::Init | Phase::Fini) && !tb_mode;
        let drained = if once {
            inst.once_done += 1;
            inst.once_done == total_slots
        } else if tb_mode {
            inst.next_tb >= inst.total_tbs && inst.outstanding == 0
        } else {
            let all_spawned = (0..units as usize).all(|u| {
                let granule = u as u64 + inst.unit_cursor[u] * units;
                granule >= inst.granules
            });
            all_spawned && inst.outstanding == 0
        };
        if !drained {
            return;
        }
        Self::push_ev(&mut self.trace, || EngineEvent::WaveDrain {
            at: now,
            instance: inst.id.0,
        });
        let done = if once {
            // Init hands off to the body; Fini completes the instance.
            if inst.phase == InstPhase::Init {
                inst.phase = InstPhase::Body;
                inst.once_spawned = 0;
                inst.once_done = 0;
            }
            inst.phase == InstPhase::Fini
        } else {
            inst.body_iter += 1;
            if inst.body_iter < inst.launch.body_iterations {
                // Multi-body barrier (§III-G): rerun the grid. NDP mode
                // rewrites the iteration word in every unit's arg block
                // at the next tick.
                if tb_mode {
                    inst.next_tb = 0;
                } else {
                    inst.unit_cursor.iter_mut().for_each(|c| *c = 0);
                    self.pending_iter_update.push(inst_idx);
                }
                false
            } else if !tb_mode && inst.spec.fini.is_some() {
                inst.phase = InstPhase::Fini;
                inst.once_spawned = 0;
                inst.once_done = 0;
                false
            } else {
                true
            }
        };
        if done {
            self.finish(now, inst_idx);
        }
    }
}

// The iteration-update list lives outside the main impl block purely so the
// struct definition above stays readable.
impl Engine {
    /// Applies deferred body-iteration argument updates (called from tick).
    fn apply_iter_updates(&mut self, mem: &mut MainMemory) {
        // Ping-pong with the scratch buffer so the steady state allocates
        // nothing: the drained list is cleared and kept for the next swap.
        let mut pending = std::mem::replace(
            &mut self.pending_iter_update,
            std::mem::take(&mut self.iter_scratch),
        );
        for &inst_idx in &pending {
            let inst = self.inst(inst_idx);
            let off = self.arg_block_off(inst.arg_slot);
            for u in 0..self.cfg.units {
                let base = spad_backing_addr(u, off);
                mem.write_u64(
                    base + (argblock::BODY_ITER as u64) * 8,
                    inst.body_iter as u64,
                );
            }
        }
        pending.clear();
        self.iter_scratch = pending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::kernel::KernelSpec;
    use m2ndp_riscv::assemble;

    /// Drives the engine with an idealized memory backend: every outbound
    /// request completes after a fixed latency.
    fn run_to_completion(engine: &mut Engine, mem: &mut MainMemory, mem_lat: Cycle) -> Cycle {
        run_from(engine, mem, 0, mem_lat, |_| {})
    }

    /// [`run_to_completion`] starting at cycle `now`, calling `each_tick`
    /// after every tick. Returns the cycle after the last tick.
    fn run_from(
        engine: &mut Engine,
        mem: &mut MainMemory,
        mut now: Cycle,
        mem_lat: Cycle,
        mut each_tick: impl FnMut(&Engine),
    ) -> Cycle {
        let mut inflight: EventQueue<(usize, RequestKind, u64)> = EventQueue::new();
        while !engine.is_idle() {
            engine.tick(now, mem);
            each_tick(engine);
            for u in 0..engine.config().units as usize {
                while let Some(req) = engine.pop_outbound(u) {
                    if !matches!(req.kind, RequestKind::Posted) {
                        inflight.schedule(now + mem_lat, (u, req.kind, req.addr));
                    }
                }
            }
            while let Some((_, (u, kind, addr))) = inflight.pop_due(now) {
                engine.deliver(now, u, kind, addr);
            }
            now += 1;
            assert!(now < 2_000_000, "engine deadlock");
        }
        now
    }

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            units: 2,
            ..EngineConfig::m2ndp()
        }
    }

    fn vec_double_kernel() -> KernelSpec {
        // Doubles each e32 element of the 32 B granule mapped to x1.
        let body = assemble(
            "vsetvli x0, x0, e32, m1
             vle32.v v1, (x1)
             vadd.vv v1, v1, v1
             vse32.v v1, (x1)
             halt",
        )
        .unwrap();
        KernelSpec::body_only("vec_double", body)
    }

    #[test]
    fn body_kernel_processes_whole_pool() {
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let base = 0x10_0000u64;
        let n = 1024u64; // e32 elements
        for i in 0..n {
            mem.write_u32(base + i * 4, i as u32);
        }
        let spec = Arc::new(vec_double_kernel());
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + n * 4);
        assert!(engine.launch(0, KernelInstanceId(0), spec, launch));
        run_to_completion(&mut engine, &mut mem, 50);
        for i in 0..n {
            assert_eq!(mem.read_u32(base + i * 4), 2 * i as u32, "elem {i}");
        }
        assert_eq!(
            engine.status(KernelInstanceId(0)),
            Some(InstanceStatus::Finished)
        );
    }

    #[test]
    fn memory_latency_extends_runtime() {
        let run = |lat: Cycle| {
            let mut engine = Engine::new(small_cfg());
            let mut mem = MainMemory::new();
            let base = 0x10_0000u64;
            let spec = Arc::new(vec_double_kernel());
            let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + 64 * 1024);
            engine.launch(0, KernelInstanceId(0), spec, launch);
            run_to_completion(&mut engine, &mut mem, lat)
        };
        let fast = run(10);
        let slow = run(400);
        assert!(slow > fast, "latency must matter: {fast} vs {slow}");
    }

    #[test]
    fn fgmt_hides_latency_with_many_slots() {
        // With 64 slots per unit and 400-cycle memory, throughput should be
        // far better than serial execution: 2048 granules * (400*2 loads+stores)
        // serial ≈ 1.6M cycles; FGMT should land well under 100k.
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let base = 0x10_0000u64;
        let spec = Arc::new(vec_double_kernel());
        let granules = 2048u64;
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + granules * 32);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        let t = run_to_completion(&mut engine, &mut mem, 400);
        assert!(t < 100_000, "FGMT failed to overlap latency: {t} cycles");
    }

    #[test]
    fn init_body_fini_sequence_runs_once_per_slot() {
        // init increments a global counter via AMO; body nops; fini likewise.
        let init = assemble("li x4, 1\nli x5, 0x500000\namoadd.d x4, x4, (x5)\nhalt").unwrap();
        let fini = assemble("li x4, 1\nli x5, 0x500008\namoadd.d x4, x4, (x5)\nhalt").unwrap();
        let body = assemble("halt").unwrap();
        let spec = Arc::new(KernelSpec::from_programs(
            "counting",
            Some(init),
            body,
            Some(fini),
            0,
        ));
        let cfg = small_cfg();
        let total_slots = cfg.total_slots() as u64;
        let mut engine = Engine::new(cfg);
        let mut mem = MainMemory::new();
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), 0x10_0000, 0x10_0000 + 32 * 10);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        run_to_completion(&mut engine, &mut mem, 20);
        assert_eq!(mem.read_u64(0x50_0000), total_slots, "init once per slot");
        assert_eq!(mem.read_u64(0x50_0008), total_slots, "fini once per slot");
    }

    #[test]
    fn multi_iteration_body_respawns_threads() {
        // Each body adds 1 to its granule's first word; 3 iterations → +3.
        let body = assemble(
            "lw x4, (x1)
             addi x4, x4, 1
             sw x4, (x1)
             halt",
        )
        .unwrap();
        let spec = Arc::new(KernelSpec::body_only("inc", body));
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let base = 0x10_0000u64;
        let granules = 64u64;
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + granules * 32)
            .with_iterations(3);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        run_to_completion(&mut engine, &mut mem, 30);
        for g in 0..granules {
            assert_eq!(mem.read_u32(base + g * 32), 3, "granule {g}");
        }
    }

    #[test]
    fn kernel_args_visible_through_arg_block() {
        // Kernel copies user arg 0 into its granule.
        let body = assemble(
            "ld x4, 40(x3)   // user arg 0 (word 5)
             sd x4, (x1)
             halt",
        )
        .unwrap();
        let spec = Arc::new(KernelSpec::body_only("argcopy", body));
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let base = 0x10_0000u64;
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + 32 * 4)
            .with_args(vec![0xDEAD_BEEF]);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        run_to_completion(&mut engine, &mut mem, 20);
        for g in 0..4 {
            assert_eq!(mem.read_u64(base + g * 32), 0xDEAD_BEEF);
        }
    }

    #[test]
    fn launch_buffer_full_returns_false() {
        let mut engine = Engine::new(EngineConfig {
            max_concurrent_kernels: 2,
            ..small_cfg()
        });
        let spec = Arc::new(vec_double_kernel());
        for i in 0..2 {
            assert!(engine.launch(
                0,
                KernelInstanceId(i),
                spec.clone(),
                LaunchArgs::new(crate::kernel::KernelId(0), 0x1000, 0x2000)
            ));
        }
        assert!(!engine.launch(
            0,
            KernelInstanceId(9),
            spec,
            LaunchArgs::new(crate::kernel::KernelId(0), 0x1000, 0x2000)
        ));
    }

    #[test]
    fn gpu_mode_completes_and_occupies_tb_granularity() {
        let cfg = EngineConfig::gpu_ndp(2, m2ndp_sim::Frequency::ghz(2.0), 4);
        let mut engine = Engine::new(cfg);
        let mut mem = MainMemory::new();
        let base = 0x10_0000u64;
        let n_elems = 4096u64;
        for i in 0..n_elems {
            mem.write_u32(base + i * 4, i as u32);
        }
        let spec = Arc::new(vec_double_kernel());
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + n_elems * 4);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        run_to_completion(&mut engine, &mut mem, 50);
        for i in 0..n_elems {
            assert_eq!(mem.read_u32(base + i * 4), 2 * i as u32, "elem {i}");
        }
    }

    #[test]
    fn gpu_mode_charges_addr_calc_overhead() {
        let cfg = EngineConfig::gpu_ndp(2, m2ndp_sim::Frequency::ghz(2.0), 4);
        let mut engine = Engine::new(cfg);
        let mut mem = MainMemory::new();
        let spec = Arc::new(vec_double_kernel());
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), 0x10_0000, 0x10_0000 + 4096);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        run_to_completion(&mut engine, &mut mem, 50);
        assert!(engine.stats.addr_calc_instrs.get() > 0);
    }

    #[test]
    fn ndp_mode_has_no_addr_calc_overhead() {
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let spec = Arc::new(vec_double_kernel());
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), 0x10_0000, 0x10_0000 + 4096);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        run_to_completion(&mut engine, &mut mem, 50);
        assert_eq!(engine.stats.addr_calc_instrs.get(), 0);
    }

    #[test]
    fn concurrent_kernels_share_the_engine() {
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let spec = Arc::new(vec_double_kernel());
        let a_base = 0x10_0000u64;
        let b_base = 0x20_0000u64;
        for i in 0..256u64 {
            mem.write_u32(a_base + i * 4, 1);
            mem.write_u32(b_base + i * 4, 10);
        }
        engine.launch(
            0,
            KernelInstanceId(0),
            spec.clone(),
            LaunchArgs::new(crate::kernel::KernelId(0), a_base, a_base + 1024),
        );
        engine.launch(
            0,
            KernelInstanceId(1),
            spec,
            LaunchArgs::new(crate::kernel::KernelId(0), b_base, b_base + 1024),
        );
        run_to_completion(&mut engine, &mut mem, 50);
        assert_eq!(mem.read_u32(a_base), 2);
        assert_eq!(mem.read_u32(b_base), 20);
        assert_eq!(
            engine.status(KernelInstanceId(1)),
            Some(InstanceStatus::Finished)
        );
    }

    #[test]
    fn spad_reduction_kernel_accumulates_per_unit_then_globally() {
        // Fig. 8 pattern: init zeroes a per-unit local sum; body reduces its
        // granule into the local sum; fini adds the local sum to the global.
        // Every init thread zeroes its unit's local sum and claim flag
        // (idempotent, so racing initializers are harmless).
        let init = assemble(
            "ld  x4, (x3)        // spad base VA
             sd x0, (x4)
             sd x0, 8(x4)
             halt",
        )
        .unwrap();
        let body = assemble(
            "vsetvli x0, x0, e64, m1
             vle64.v v2, (x1)
             vmv.v.i v1, 0
             vredsum.vs v3, v2, v1
             vmv.x.s x5, v3
             ld x4, (x3)
             amoadd.d x5, x5, (x4)
             halt",
        )
        .unwrap();
        // Exactly one finalizer µthread per unit claims the flush with an
        // atomic swap on the scratchpad flag, then adds the unit-local sum
        // to the global accumulator (user arg 0, arg-block word 5 = byte 40).
        let fini = assemble(
            "ld x4, (x3)
             addi x7, x4, 8
             li x5, 1
             amoswap.d x6, x5, (x7)
             bnez x6, skip
             ld x5, (x4)
             ld x6, 40(x3)
             amoadd.d x5, x5, (x6)
             skip: halt",
        )
        .unwrap();
        let spec = Arc::new(KernelSpec::from_programs(
            "reduce",
            Some(init),
            body,
            Some(fini),
            64,
        ));
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let base = 0x10_0000u64;
        let global_sum = 0x50_0000u64;
        let granules = 128u64;
        let mut expect = 0u64;
        for i in 0..granules * 4 {
            mem.write_u64(base + i * 8, i);
            expect += i;
        }
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + granules * 32)
            .with_args(vec![global_sum]);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        run_to_completion(&mut engine, &mut mem, 40);
        assert_eq!(mem.read_u64(global_sum), expect);
    }

    #[test]
    fn finished_instances_leave_the_store_and_keep_answering() {
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let spec = Arc::new(vec_double_kernel());
        let base = 0x10_0000u64;
        let mut now = 0;
        let mut first_finish = None;
        for i in 0..1000 {
            let launch = LaunchArgs::new(crate::kernel::KernelId(0), base, base + 64);
            assert!(engine.launch(now, KernelInstanceId(i), spec.clone(), launch));
            now = run_from(&mut engine, &mut mem, now, 20, |e| {
                assert!(
                    e.instances.len() <= e.live_instances(),
                    "store holds dead work"
                );
            });
            assert_eq!(engine.live_instances(), 0);
            assert!(engine.instances.is_empty());
            if i == 0 {
                first_finish = engine.finished_at(KernelInstanceId(0));
                assert!(first_finish.is_some());
            }
        }
        assert_eq!(
            engine.status(KernelInstanceId(0)),
            Some(InstanceStatus::Finished)
        );
        assert_eq!(engine.finished_at(KernelInstanceId(0)), first_finish);
        assert_eq!(engine.status(KernelInstanceId(1000)), None);
    }

    #[test]
    fn instances_finishing_out_of_order_keep_their_records() {
        let spin = assemble(
            "li x4, 500
             loop: addi x4, x4, -1
             bnez x4, loop
             halt",
        )
        .unwrap();
        let long = KernelInstanceId(0);
        let short = KernelInstanceId(1);
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let base = 0x10_0000u64;
        let args = || LaunchArgs::new(crate::kernel::KernelId(0), base, base + 32);
        assert!(engine.launch(
            0,
            long,
            Arc::new(KernelSpec::body_only("spin", spin)),
            args()
        ));
        assert!(engine.launch(0, short, Arc::new(vec_double_kernel()), args()));
        let mut short_at = None;
        let end = run_from(&mut engine, &mut mem, 0, 20, |e| {
            if short_at.is_none() && e.status(short) == Some(InstanceStatus::Finished) {
                short_at = e.finished_at(short);
                assert!(short_at.is_some());
                assert_eq!(e.status(long), Some(InstanceStatus::Running));
                assert_eq!(e.finished_at(long), None);
                assert_eq!(e.live_instances(), 1);
            }
        });
        let short_at = short_at.expect("the short kernel finishes first");
        let long_at = engine.finished_at(long).expect("long kernel finished");
        assert!(short_at < long_at && long_at < end);
        assert_eq!(engine.status(long), Some(InstanceStatus::Finished));
        assert_eq!(engine.status(short), Some(InstanceStatus::Finished));
        assert_eq!(engine.finished_at(short), Some(short_at));
        assert!(engine.instances.is_empty());
    }

    #[test]
    fn set_bit_walk_crosses_mask_words_in_order() {
        let mask = [1 | 1 << 63, 0, 1 << 5];
        assert_eq!(set_bits(&mask).collect::<Vec<_>>(), [0, 63, 133]);
        assert_eq!(next_set_bit(&mask, 1), Some(63));
        assert_eq!(next_set_bit(&mask, 64), Some(133));
        assert_eq!(next_set_bit(&mask, 134), None);
        assert_eq!(next_set_bit(&mask, 1000), None);
        assert_eq!(set_bits(&[]).count(), 0);
    }

    #[test]
    fn occupancy_metric_reports_active_contexts() {
        let mut engine = Engine::new(small_cfg());
        let mut mem = MainMemory::new();
        let spec = Arc::new(vec_double_kernel());
        let launch = LaunchArgs::new(crate::kernel::KernelId(0), 0x10_0000, 0x10_0000 + 32 * 4096);
        engine.launch(0, KernelInstanceId(0), spec, launch);
        engine.tick(0, &mut mem);
        assert!(engine.active_contexts() > 0);
        assert!(engine.active_contexts() <= engine.config().total_slots());
    }
}
