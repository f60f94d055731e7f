//! Dynamic fleet autoscaling against a tail-latency SLO.
//!
//! The `Autoscaler` watches a sliding window of completed-request
//! latencies and periodically compares the window P95 against a target:
//! above target it activates a parked device, comfortably below target it
//! drains the highest-indexed active device (stop admitting, let in-flight
//! work finish, then park). Decisions are driven entirely by simulated
//! time and simulated latencies, so autoscaled runs are exactly as
//! deterministic as static ones.
//!
//! Lifecycle (one device):
//!
//! ```text
//!          scale-up                    drain decision
//! Parked ────────────▶ Active ────────────▶ Draining ───▶ Drained/Parked
//!   ▲                  admits new work      finishes        idle, zero
//!   └──────────────────────────────────────  in-flight ──── outstanding
//!                     (may be re-activated by a later scale-up)
//! ```
//!
//! Device-time accounting integrates only Active/Draining intervals, so an
//! autoscaled run's `device_time_ns` is directly comparable against a
//! static fleet's `devices × makespan`.

use m2ndp_sim::trace::ScaleDir;
use m2ndp_sim::FHistogram;

/// One autoscaler lifecycle transition, as recorded in
/// [`ServeReport::scale_events`](super::ServeReport::scale_events) and
/// (on traced runs) emitted as a `"sched"` trace instant.
#[derive(Debug, Clone, Copy)]
pub struct ScaleEvent {
    /// Simulated time of the transition (ns).
    pub t_ns: f64,
    /// Device the transition applies to.
    pub device: usize,
    /// What happened: scale-up, drain start, or drain completion.
    pub dir: ScaleDir,
    /// Active (admitting) device count after the transition.
    pub active: usize,
}

/// Autoscaling policy parameters.
///
/// Invariants (checked at run start): `1 <= min_devices <= max_devices`,
/// `max_devices <=` the backing fleet's device count, `p95_target_ns > 0`,
/// `interval_ns > 0`, `window >= 1`, and `0 < scale_down_frac < 1`.
#[derive(Debug, Clone, Copy)]
pub struct AutoscaleConfig {
    /// Never drain below this many active devices.
    pub min_devices: usize,
    /// Never activate more than this many devices.
    pub max_devices: usize,
    /// The P95 latency target (ns) the autoscaler steers toward.
    pub p95_target_ns: f64,
    /// Interval between autoscaler evaluations (simulated ns).
    pub interval_ns: f64,
    /// Number of most-recent completion latencies the P95 is computed over.
    pub window: usize,
    /// Drain a device only when the window P95 is below
    /// `scale_down_frac * p95_target_ns` — the hysteresis band that keeps
    /// up/down decisions from oscillating.
    pub scale_down_frac: f64,
    /// Evaluations to skip after any scale action, letting its effect show
    /// up in the window before reacting again.
    pub cooldown_ticks: u32,
}

impl AutoscaleConfig {
    /// Policy with defaults: evaluate every 50 µs over the last 256
    /// completions, drain below half the target, 2-tick cooldown.
    pub fn new(min_devices: usize, max_devices: usize, p95_target_ns: f64) -> Self {
        Self {
            min_devices,
            max_devices,
            p95_target_ns,
            interval_ns: 50_000.0,
            window: 256,
            scale_down_frac: 0.5,
            cooldown_ticks: 2,
        }
    }

    /// Set the evaluation interval (simulated ns).
    pub fn interval_ns(mut self, ns: f64) -> Self {
        self.interval_ns = ns;
        self
    }

    /// Set the latency-window length (completions).
    pub fn window(mut self, n: usize) -> Self {
        self.window = n;
        self
    }

    /// Set the scale-down hysteresis fraction.
    pub fn scale_down_frac(mut self, frac: f64) -> Self {
        self.scale_down_frac = frac;
        self
    }

    /// Set the post-action cooldown (evaluations).
    pub fn cooldown_ticks(mut self, ticks: u32) -> Self {
        self.cooldown_ticks = ticks;
        self
    }

    pub(super) fn validate(&self, fleet_devices: usize) {
        assert!(
            self.min_devices >= 1 && self.min_devices <= self.max_devices,
            "autoscale: need 1 <= min_devices ({}) <= max_devices ({})",
            self.min_devices,
            self.max_devices
        );
        assert!(
            self.max_devices <= fleet_devices,
            "autoscale: max_devices ({}) exceeds fleet size ({fleet_devices})",
            self.max_devices
        );
        assert!(
            self.p95_target_ns > 0.0 && self.p95_target_ns.is_finite(),
            "autoscale: p95_target_ns must be positive and finite"
        );
        assert!(
            self.interval_ns > 0.0 && self.interval_ns.is_finite(),
            "autoscale: interval_ns must be positive and finite"
        );
        assert!(self.window >= 1, "autoscale: window must be >= 1");
        assert!(
            self.scale_down_frac > 0.0 && self.scale_down_frac < 1.0,
            "autoscale: scale_down_frac must be in (0, 1)"
        );
    }
}

/// A scaling decision for the event loop to enact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ScaleDecision {
    /// Activate one more device.
    Up,
    /// Start draining one device.
    Drain,
}

/// The runtime half of autoscaling: latency window + decision logic.
/// The serve event loop owns enactment (which device, queue rebalancing,
/// lifecycle bookkeeping); this type only answers "should the fleet grow
/// or shrink right now?".
#[derive(Debug)]
pub(super) struct Autoscaler {
    cfg: AutoscaleConfig,
    /// Ring buffer of the most recent completion latencies (ns).
    window: Vec<f64>,
    /// Next write position in `window` once it is full.
    cursor: usize,
    cooldown: u32,
}

impl Autoscaler {
    pub(super) fn new(cfg: AutoscaleConfig) -> Self {
        Self {
            cfg,
            window: Vec::with_capacity(cfg.window),
            cursor: 0,
            cooldown: 0,
        }
    }

    /// Record one completed request's end-to-end latency.
    pub(super) fn observe(&mut self, latency_ns: f64) {
        if self.window.len() < self.cfg.window {
            self.window.push(latency_ns);
        } else {
            self.window[self.cursor] = latency_ns;
            self.cursor = (self.cursor + 1) % self.cfg.window;
        }
    }

    /// Window P95 by [`FHistogram`]'s nearest rank (the window is small).
    fn window_p95(&self) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let mut h = FHistogram::new();
        for &latency_ns in &self.window {
            h.record(latency_ns);
        }
        Some(h.percentile(0.95))
    }

    /// Evaluate the policy at a tick. `active` counts Active devices
    /// (Draining ones no longer admit and are already on their way out).
    pub(super) fn decide(&mut self, active: usize) -> Option<ScaleDecision> {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        let p95 = self.window_p95()?;
        let decision = if p95 > self.cfg.p95_target_ns && active < self.cfg.max_devices {
            Some(ScaleDecision::Up)
        } else if p95 < self.cfg.scale_down_frac * self.cfg.p95_target_ns
            && active > self.cfg.min_devices
        {
            Some(ScaleDecision::Drain)
        } else {
            None
        };
        if decision.is_some() {
            // Let the action's effect reach the window before reacting
            // again: restart the observation window and hold off.
            self.window.clear();
            self.cursor = 0;
            self.cooldown = self.cfg.cooldown_ticks;
        }
        decision
    }

    pub(super) fn interval_ns(&self) -> f64 {
        self.cfg.interval_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(cfg: AutoscaleConfig, latency: f64, n: usize) -> Autoscaler {
        let mut a = Autoscaler::new(cfg);
        for _ in 0..n {
            a.observe(latency);
        }
        a
    }

    #[test]
    fn scales_up_when_p95_above_target() {
        let mut a = filled(AutoscaleConfig::new(1, 4, 1000.0), 2000.0, 64);
        assert_eq!(a.decide(2), Some(ScaleDecision::Up));
    }

    #[test]
    fn drains_when_p95_well_below_target() {
        let mut a = filled(AutoscaleConfig::new(1, 4, 1000.0), 100.0, 64);
        assert_eq!(a.decide(2), Some(ScaleDecision::Drain));
    }

    #[test]
    fn holds_inside_hysteresis_band() {
        let mut a = filled(AutoscaleConfig::new(1, 4, 1000.0), 700.0, 64);
        assert_eq!(a.decide(2), None);
    }

    #[test]
    fn respects_bounds_and_cooldown() {
        // At max_devices an over-target window must not scale up.
        let mut a = filled(AutoscaleConfig::new(1, 2, 1000.0), 2000.0, 64);
        assert_eq!(a.decide(2), None);
        // At min_devices an under-target window must not drain.
        let mut a = filled(AutoscaleConfig::new(2, 4, 1000.0), 100.0, 64);
        assert_eq!(a.decide(2), None);
        // After an action, cooldown ticks suppress decisions and the
        // window restarts empty.
        let mut a = filled(AutoscaleConfig::new(1, 4, 1000.0), 2000.0, 64);
        assert_eq!(a.decide(2), Some(ScaleDecision::Up));
        a.observe(2000.0);
        assert_eq!(a.decide(3), None);
        assert_eq!(a.decide(3), None);
        assert_eq!(a.decide(3), Some(ScaleDecision::Up));
    }

    #[test]
    fn empty_window_never_decides() {
        let mut a = Autoscaler::new(AutoscaleConfig::new(1, 4, 1000.0));
        assert_eq!(a.decide(1), None);
    }
}
