//! Elastic serving with a load-aware scheduler kind (Fig. 15): the same
//! two-tenant load — a steady Poisson stream plus a bursty tenant that
//! exhausts its budget halfway — is served by a small static fleet, a
//! big static fleet, and an SLO-targeting autoscaler that grows from the
//! small fleet's floor to the big fleet's ceiling. The autoscaler should
//! meet the P95 SLO the small fleet blows while spending a fraction of
//! the big fleet's device-time. Requests are routed by the
//! `ShortestQueue` scheduler (a dynamic kind, so every device replicates
//! the store) and each device exposes a single kernel slot so capacity
//! tracks the active-device count.
//!
//! ```text
//! cargo run --release --example elastic_serving
//! ```

use m2ndp::core::fleet::{Fleet, FleetConfig};
use m2ndp::core::M2ndpConfig;
use m2ndp::cxl::SwitchConfig;
use m2ndp::host::offload::OffloadMechanism;
use m2ndp::host::serve::{
    self, AutoscaleConfig, KvServeWorkload, SchedulerKind, ServeBackend, ServeConfig, TenantSpec,
};
use m2ndp::sim::trace::ScaleDir;

const SLO_NS: f64 = 5_000.0;
const RATE: f64 = 5e6;

fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec::poisson("steady", RATE * 0.6)
            .requests(2_400)
            .slo_ns(SLO_NS)
            .seed(0x5EC1),
        // Ends halfway through the run, so the second half offers less
        // load and gives the autoscaler a reason to drain devices.
        TenantSpec::burst("bursty", RATE * 0.4, 4.0, 50_000.0)
            .requests(400)
            .slo_ns(SLO_NS)
            .seed(0x5EC2),
    ]
}

fn run(devices: usize, autoscale: Option<AutoscaleConfig>) -> serve::ServeReport {
    let mut dev = M2ndpConfig::default_device();
    dev.engine.units = 2;
    let mut backend = ServeBackend::Fleet(Box::new(Fleet::new(FleetConfig {
        devices,
        device: dev,
        switch: SwitchConfig::default(),
        hdm_bytes_per_device: 1 << 30,
    })));
    let mut wl = KvServeWorkload::replicated(&mut backend, serve::KV_ITEMS_PER_DEVICE, 0.99);
    let mut cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func)
        .scheduler(SchedulerKind::ShortestQueue)
        .device_slots(1);
    if let Some(a) = autoscale {
        cfg = cfg.autoscale(a);
    }
    serve::run(&mut backend, &mut wl, &cfg, &tenants())
}

fn main() {
    println!(
        "2800 requests at {RATE:.0e}/s, P95 SLO {SLO_NS:.0} ns, one kernel slot per device:\n"
    );
    println!(
        "{:<16} {:>10} {:>10} {:>16} {:>14}",
        "fleet", "P95 (ns)", "P95/SLO", "device-time", "scale events"
    );
    let autoscale = AutoscaleConfig::new(2, 8, SLO_NS)
        .interval_ns(20_000.0)
        .window(128)
        .scale_down_frac(0.2)
        .cooldown_ticks(1);
    let mut device_time = Vec::new();
    for (label, devices, policy) in [
        ("static 2-dev", 2, None),
        ("static 8-dev", 8, None),
        ("autoscale 2-8", 8, Some(autoscale)),
    ] {
        let mut report = run(devices, policy);
        let p95 = report.p95_ns();
        let ups = report
            .scale_events
            .iter()
            .filter(|e| e.dir == ScaleDir::Up)
            .count();
        let drains = report
            .scale_events
            .iter()
            .filter(|e| e.dir == ScaleDir::DrainStart)
            .count();
        device_time.push(report.device_time_ns);
        println!(
            "{label:<16} {p95:>10.0} {:>10.2} {:>13.2} ms {:>8}up/{drains}dn",
            p95 / SLO_NS,
            report.device_time_ns / 1e6,
            ups,
        );
    }
    println!(
        "\nThe autoscaler rides the burst phase up toward the ceiling, drains back to\n\
         the floor once the bursty tenant finishes, and lands under the SLO at\n\
         {:.0}% of the static 8-device fleet's device-time (the fig15 golden bands\n\
         gate exactly this at release scale).",
        100.0 * device_time[2] / device_time[1]
    );
}
