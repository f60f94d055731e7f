//! Engine isolation replay: runs a workload's launches again on a
//! benchmark-owned [`Engine`] whose memory requests all complete after a
//! fixed latency, with the same idle fast-forward the device uses.
//!
//! The host time of the replay is `core.engine.ideal_s`, the engine and
//! interpreter share of a device run; `run_s - ideal_s` estimates the
//! memory system (L2, DRAM, crossbars, event queues). Both are estimates:
//! ideal memory changes the schedule, so the replay issues the same
//! instructions in a different order and over a different number of cycles.
//! The functional output is still verified, so the replay does the
//! workload's full work.

use std::sync::Arc;

use m2ndp::core::engine::RequestKind;
use m2ndp::core::{Engine, EngineConfig, KernelInstanceId, KernelSpec, LaunchArgs};
use m2ndp::mem::MainMemory;
use m2ndp::sim::{Cycle, EventQueue};

/// Cycles every replayed memory request takes: about one L2-hit round trip.
const FIXED_LATENCY: Cycle = 40;

/// Loop iterations one launch may take before the replay gives up.
const GUARD: u64 = 2_000_000_000;

/// An engine driven directly, with fixed-latency memory.
#[derive(Debug)]
pub struct IdealEngine {
    engine: Engine,
    units: usize,
    now: Cycle,
    next_instance: u32,
    inflight: EventQueue<(usize, RequestKind, u64)>,
}

impl IdealEngine {
    /// A fresh engine built from the device's engine configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        Self {
            units: cfg.units as usize,
            engine: Engine::new(cfg),
            now: 0,
            next_instance: 0,
            inflight: EventQueue::new(),
        }
    }

    /// Launches one kernel and runs until it finishes; returns the cycle it
    /// finished at. Launches run one after another, as the workloads
    /// issue them on the device.
    ///
    /// # Errors
    /// A rejected launch or a launch that never finishes.
    pub fn run(
        &mut self,
        spec: &Arc<KernelSpec>,
        args: LaunchArgs,
        mem: &mut MainMemory,
    ) -> Result<Cycle, String> {
        let id = KernelInstanceId(self.next_instance);
        self.next_instance += 1;
        if !self.engine.launch(self.now, id, Arc::clone(spec), args) {
            return Err("ideal engine rejected a launch".into());
        }
        for _ in 0..GUARD {
            if let Some(at) = self.engine.finished_at(id) {
                return Ok(at);
            }
            let now = self.now;
            self.engine.tick(now, mem);
            for unit in 0..self.units {
                while let Some(req) = self.engine.pop_outbound(unit) {
                    if req.kind != RequestKind::Posted {
                        self.inflight
                            .schedule(now + FIXED_LATENCY, (unit, req.kind, req.addr));
                    }
                }
            }
            while let Some((_, (unit, kind, addr))) = self.inflight.pop_due(now) {
                self.engine.deliver(now, unit, kind, addr);
            }
            self.now += 1;
            if !self.engine.has_ready() {
                let next = [self.engine.next_wake(), self.inflight.next_cycle()]
                    .into_iter()
                    .flatten()
                    .min();
                self.now = self.now.max(next.unwrap_or(0));
            }
        }
        Err(format!("ideal engine: instance {} never finished", id.0))
    }
}
