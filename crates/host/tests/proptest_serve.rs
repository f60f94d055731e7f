//! Property tests for the serving admission loop: replaying measured
//! service times on one device equals the textbook FIFO c-server,
//! latencies are never below the mechanism overhead, FIFO admission
//! preserves per-tenant order on every device, direct MMIO never exceeds
//! one outstanding kernel, and a standalone device matches a 1-device
//! fleet up to the switch hop.
//!
//! The serving cases drive real device simulators, so they use small
//! request budgets and few proptest cases; the replay cases are cheap and
//! run at the usual counts.

use std::collections::HashMap;

use m2ndp_core::fleet::{Fleet, FleetConfig};
use m2ndp_core::{CxlM2ndpDevice, M2ndpConfig};
use m2ndp_cxl::SwitchConfig;
use m2ndp_host::offload::{OffloadMechanism, OffloadModel};
use m2ndp_host::serve::{self, KvServeWorkload, ServeBackend, ServeConfig, TenantSpec};
use proptest::prelude::*;

/// Maps a drawn index onto a mechanism (the vendored proptest subset has
/// no `prop_oneof`).
fn mechanism(idx: u8) -> OffloadMechanism {
    match idx % 3 {
        0 => OffloadMechanism::M2Func,
        1 => OffloadMechanism::CxlIoRingBuffer,
        _ => OffloadMechanism::CxlIoDirect,
    }
}

/// The textbook FIFO c-server the admission loop must equal on one
/// device: request `i` takes the earliest-free of `min(max_concurrent,
/// slots)` slots, starts `pre` after the later of its arrival and that
/// slot's free time, runs `service[i % len]`, and is observed `post`
/// later; only direct MMIO holds its slot until then. Returns each
/// request's `(latency, completion)` and the steady window `[open, close,
/// throughput]` after a 10% warm-up (open: the later of the first
/// measured arrival and the last warm-up completion).
fn fifo_c_server(
    model: &OffloadModel,
    slots: u32,
    arrivals: &[f64],
    service: &[f64],
) -> (Vec<(f64, f64)>, [f64; 3]) {
    let mut free = vec![0.0f64; model.max_concurrent().min(slots).max(1) as usize];
    let direct = model.mechanism() == OffloadMechanism::CxlIoDirect;
    let mut done = Vec::with_capacity(arrivals.len());
    for (i, &arrival) in arrivals.iter().enumerate() {
        let s = (0..free.len())
            .min_by(|&a, &b| free[a].total_cmp(&free[b]))
            .expect("a slot");
        let kernel_done = free[s].max(arrival) + model.pre_ns() + service[i % service.len()];
        let observed = kernel_done + model.post_ns();
        free[s] = if direct { observed } else { kernel_done };
        done.push((observed - arrival, observed));
    }
    let warm = ((done.len() as f64 * 0.1) as usize).min(done.len() - 1);
    let open = done[..warm]
        .iter()
        .map(|d| d.1)
        .fold(arrivals[warm], f64::max);
    let close = done[warm..]
        .iter()
        .map(|d| d.1)
        .fold(f64::NEG_INFINITY, f64::max);
    let throughput = if close > open {
        (done.len() - warm) as f64 / ((close - open) * 1e-9)
    } else {
        0.0
    };
    (done, [open, close, throughput])
}

fn small_cfg() -> M2ndpConfig {
    let mut cfg = M2ndpConfig::default_device();
    cfg.engine.units = 2;
    cfg
}

fn backend(devices: usize) -> ServeBackend {
    if devices == 1 {
        ServeBackend::Device(Box::new(CxlM2ndpDevice::new(small_cfg())))
    } else {
        ServeBackend::Fleet(Box::new(Fleet::new(FleetConfig {
            devices,
            device: small_cfg(),
            switch: SwitchConfig::default(),
            hdm_bytes_per_device: 64 << 20,
        })))
    }
}

fn tenants(requests: usize, rate: f64, seed: u64) -> Vec<TenantSpec> {
    vec![
        TenantSpec::poisson("poisson", rate * 0.6)
            .requests(requests)
            .slo_ns(10_000.0)
            .seed(seed),
        TenantSpec::trace("trace", vec![0.5e9 / rate, 2.0e9 / rate])
            .requests(requests / 2)
            .slo_ns(10_000.0)
            .seed(seed ^ 0xF00D),
    ]
}

fn serve_all(
    devices: usize,
    mech: OffloadMechanism,
    requests: usize,
    rate: f64,
    seed: u64,
) -> serve::ServeReport {
    let mut be = backend(devices);
    let mut wl = KvServeWorkload::build(&mut be, 512, 0.9);
    let cfg = ServeConfig::with_defaults(mech);
    serve::run(&mut be, &mut wl, &cfg, &tenants(requests, rate, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replayed latencies are at least the mechanism overhead plus the
    /// smallest service time, all finite, one per request.
    #[test]
    fn replay_latencies_never_below_overhead(
        mech_idx in 0u8..3,
        rate in 1e4f64..1e9,
        n in 20usize..400,
        seed in any::<u64>(),
        service in proptest::collection::vec(50.0f64..5_000.0, 1..4),
    ) {
        let cfg = ServeConfig::with_defaults(mechanism(mech_idx)).drain_frac(0.0);
        let overhead = cfg.model.overhead_ns();
        let min_service = service.iter().copied().fold(f64::INFINITY, f64::min);
        let tenant = TenantSpec::poisson("replay", rate).requests(n).seed(seed);
        let report = serve::replay(&service, &cfg, &[tenant]);
        prop_assert_eq!(report.records.len(), n);
        for r in &report.records {
            let l = r.latency_ns();
            prop_assert!(l.is_finite());
            prop_assert!(
                l >= overhead + min_service - 1e-9,
                "latency {l} below floor {}",
                overhead + min_service
            );
        }
    }

    /// The replayed steady-window throughput never exceeds the slot
    /// pool's service capacity (with a small windowing tolerance) and is
    /// positive.
    #[test]
    fn replay_throughput_is_bounded_by_capacity(
        mech_idx in 0u8..3,
        rate in 1e5f64..1e9,
        seed in any::<u64>(),
        service in 100.0f64..2_000.0,
    ) {
        let mech = mechanism(mech_idx);
        let cfg = ServeConfig::with_defaults(mech).drain_frac(0.0);
        let model = &cfg.model;
        let slots = f64::from(model.max_concurrent());
        // A slot is busy for pre+service (M2func/RB) or the full
        // round trip (direct MMIO).
        let occupancy = if mech == OffloadMechanism::CxlIoDirect {
            model.overhead_ns() + service
        } else {
            model.pre_ns() + service
        };
        let capacity = slots / (occupancy * 1e-9);
        let tenant = TenantSpec::poisson("replay", rate).requests(600).seed(seed);
        let report = serve::replay(&[service], &cfg, &[tenant]);
        prop_assert!(report.throughput > 0.0);
        prop_assert!(
            report.throughput <= capacity * 1.05,
            "throughput {:.3e} exceeds capacity {:.3e}",
            report.throughput,
            capacity
        );
    }

    /// Burst arrivals are monotone non-decreasing and their long-run mean
    /// rate converges to the configured rate — the property that keeps
    /// bursty cells comparable to Poisson cells at the same offered load.
    #[test]
    fn burst_mean_rate_converges_to_configured_rate(
        rate in 1e5f64..2e7,
        burst_factor in 1.0f64..16.0,
        period_us in 10.0f64..200.0,
        seed in any::<u64>(),
    ) {
        // Size the sample to span ~20 burst periods: a window shorter than
        // a period sees mostly the burst (or mostly the lull) phase and
        // its empirical rate says nothing about the configured mean.
        let per_period = rate * period_us * 1_000.0 * 1e-9;
        let n = (per_period * 20.0).max(2_000.0).ceil() as usize;
        let spec = TenantSpec::burst("bursty", rate, burst_factor, period_us * 1_000.0)
            .requests(n)
            .seed(seed);
        let times = serve::arrival_times(&spec);
        prop_assert_eq!(times.len(), n);
        for w in times.windows(2) {
            prop_assert!(w[1] >= w[0], "arrivals must be monotone");
        }
        let span_s = times.last().unwrap() * 1e-9;
        prop_assert!(span_s > 0.0);
        let empirical = times.len() as f64 / span_s;
        let err = (empirical - rate).abs() / rate;
        // >= 2000 Poisson arrivals have a <= ~2.2% relative std-dev; allow
        // a generous band plus edge effects from the partial last period
        // (bounded by per_period / n <= 1/20).
        prop_assert!(
            err < 0.15,
            "empirical rate {empirical:.3e} vs configured {rate:.3e} (err {err:.3})"
        );
    }
}

proptest! {
    /// `serve::replay` is `fifo_c_server`: over every mechanism, slot
    /// count, rate and request budget, its per-request latencies and
    /// completions, steady window and throughput equal the closed form's
    /// bit for bit, from the same seed's Poisson arrivals.
    #[test]
    fn replay_equals_the_closed_form_slot_pool(
        mech_idx in 0u8..3,
        slots_idx in 0usize..3,
        rate in 1e4f64..1e9,
        n in 1usize..=400,
        seed in any::<u64>(),
        service in proptest::collection::vec(50.0f64..5_000.0, 1..4),
    ) {
        let slots = [1, 2, 48][slots_idx];
        let cfg = ServeConfig::with_defaults(mechanism(mech_idx))
            .device_slots(slots)
            .drain_frac(0.0);
        let tenant = TenantSpec::poisson("replay", rate).requests(n).seed(seed);
        let arrivals = serve::arrival_times(&tenant);
        let (done, window) = fifo_c_server(&cfg.model, slots, &arrivals, &service);
        let r = serve::replay(&service, &cfg, &[tenant]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let got: Vec<f64> = r.records.iter().flat_map(|r| [r.latency_ns(), r.observed_ns]).collect();
        let want: Vec<f64> = done.iter().flat_map(|&(l, c)| [l, c]).collect();
        prop_assert_eq!(bits(&got), bits(&want));
        prop_assert_eq!(
            bits(&[r.steady_window.0, r.steady_window.1, r.throughput]),
            bits(&window)
        );
    }
}

proptest! {
    // Serving cases simulate real kernels: keep the budgets small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Serving latencies are never below the mechanism overhead, every
    /// request completes, and per-(tenant, device) admission stays FIFO.
    #[test]
    fn serving_latency_floor_and_fifo_order(
        mech_idx in 0u8..3,
        devices in 1usize..=2,
        rate in 1e5f64..1e7,
        seed in any::<u64>(),
    ) {
        let mech = mechanism(mech_idx);
        let report = serve_all(devices, mech, 40, rate, seed);
        prop_assert_eq!(report.records.len(), 60);
        let floor = OffloadModel::with_defaults(mech).overhead_ns();
        let mut last: HashMap<(u16, usize), (u64, f64)> = HashMap::new();
        for r in &report.records {
            prop_assert!(
                r.latency_ns() >= floor,
                "latency {} below overhead {floor}",
                r.latency_ns()
            );
            prop_assert!(r.admitted_ns >= r.arrival_ns);
            if let Some(&(seq, adm)) = last.get(&(r.tenant, r.device)) {
                prop_assert!(r.seq > seq, "per-tenant order violated");
                prop_assert!(r.admitted_ns >= adm, "admission time went backwards");
            }
            last.insert((r.tenant, r.device), (r.seq, r.admitted_ns));
        }
    }

    /// Direct MMIO never has more than one kernel outstanding per device,
    /// even under saturating load.
    #[test]
    fn serving_direct_mmio_single_outstanding(
        devices in 1usize..=2,
        rate in 1e6f64..1e8,
        seed in any::<u64>(),
    ) {
        let report = serve_all(devices, OffloadMechanism::CxlIoDirect, 40, rate, seed);
        for (d, &m) in report.max_outstanding.iter().enumerate() {
            prop_assert!(m <= 1, "device {d} had {m} kernels outstanding");
        }
    }

    /// A standalone device and a 1-device fleet serve the identical
    /// request stream with identical kernel service times; the only
    /// divergence allowed is the switch's per-launch delivery skew.
    #[test]
    fn serving_single_device_matches_one_device_fleet(
        rate in 1e5f64..2e6,
        seed in any::<u64>(),
    ) {
        let single = serve_all(1, OffloadMechanism::M2Func, 40, rate, seed);

        let mut be = ServeBackend::Fleet(Box::new(Fleet::new(FleetConfig {
            devices: 1,
            device: small_cfg(),
            switch: SwitchConfig::default(),
            hdm_bytes_per_device: 64 << 20,
        })));
        let mut wl = KvServeWorkload::build(&mut be, 512, 0.9);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func);
        let fleet1 = serve::run(&mut be, &mut wl, &cfg, &tenants(40, rate, seed));

        prop_assert_eq!(single.records.len(), fleet1.records.len());
        for (s, f) in single.records.iter().zip(&fleet1.records) {
            prop_assert_eq!(s.tenant, f.tenant);
            prop_assert_eq!(s.seq, f.seq);
            prop_assert!(
                (s.service_ns - f.service_ns).abs() < 1e-9,
                "service times must be identical: {} vs {}",
                s.service_ns,
                f.service_ns
            );
            let skew = f.latency_ns() - s.latency_ns();
            prop_assert!(
                (0.0..=1_000.0).contains(&skew),
                "fleet latency may exceed the standalone path only by the \
                 switch hop: skew {skew} ns"
            );
        }
    }
}
