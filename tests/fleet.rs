//! Integration tests for the simulated multi-device fleet (§III-I/§III-J):
//! sharded workloads stay functionally correct on every device, the
//! combining step shows up as real switch traffic, a 1-device fleet is
//! cycle-exact with the standalone device path, and the NDP-in-switch
//! variant scales with populated ports.
//!
//! Workload sizes are kept small so the suite stays fast in debug builds;
//! the full-size fleet runs are exercised by the `figures` sweep cells
//! (`fig14a`/`fig14b`) at release speed in CI.

use m2ndp::core::fleet::{Fleet, FleetConfig, SwitchNdp};
use m2ndp::core::M2ndpConfig;
use m2ndp::cxl::SwitchConfig;
use m2ndp::host::offload::OffloadMechanism;
use m2ndp::host::serve::{self, KvServeWorkload, ServeBackend, ServeConfig, TenantSpec};
use m2ndp::workloads::{dlrm, opt};

fn device_cfg() -> M2ndpConfig {
    let mut cfg = M2ndpConfig::default_device();
    cfg.engine.units = 4;
    cfg
}

fn fleet(devices: usize) -> Fleet {
    Fleet::new(FleetConfig {
        devices,
        device: device_cfg(),
        switch: SwitchConfig::default(),
        hdm_bytes_per_device: 16 << 20,
    })
}

fn small_dlrm() -> dlrm::DlrmConfig {
    dlrm::DlrmConfig {
        table_rows: 4 << 10,
        dim: 16,
        lookups: 16,
        batch: 16,
        zipf_theta: 0.9,
        seed: 0xD12A,
    }
}

/// Runs the sharded SLS batch and returns fleet completion cycles.
fn run_sharded_dlrm(devices: usize) -> u64 {
    let mut fleet = fleet(devices);
    let mut datas = Vec::new();
    for (d, cfg) in dlrm::shard(small_dlrm(), devices as u32).iter().enumerate() {
        let data = dlrm::generate(*cfg, fleet.device_mut(d).memory_mut());
        let kid = fleet.device_mut(d).register_kernel(dlrm::kernel());
        let pool = fleet.shard_base(d);
        fleet
            .launch_routed(0, pool, dlrm::launch(&data, kid))
            .expect("offload routes");
        datas.push(data);
    }
    let run = fleet.run_launched();
    // Every device's (disjoint) output slice matches its host reference.
    for (d, data) in datas.iter().enumerate() {
        dlrm::verify(data, fleet.device(d).memory()).unwrap_or_else(|e| panic!("shard {d}: {e}"));
    }
    assert_eq!(
        fleet.switch().host_transfers.get(),
        devices as u64,
        "one offload store per shard must cross the switch"
    );
    run.compute_done
}

#[test]
fn sharded_dlrm_verifies_on_every_device_and_scales() {
    let one = run_sharded_dlrm(1);
    let four = run_sharded_dlrm(4);
    let speedup = one as f64 / four as f64;
    assert!(speedup > 2.0, "4-device SLS speedup only {speedup:.2}x");
}

#[test]
fn fleet_of_one_is_cycle_exact_with_standalone_device() {
    // Standalone path.
    let mut dev = m2ndp::core::CxlM2ndpDevice::new(device_cfg());
    let data = dlrm::generate(small_dlrm(), dev.memory_mut());
    let kid = dev.register_kernel(dlrm::kernel());
    let inst = dev.launch(dlrm::launch(&data, kid)).expect("launch");
    let single = dev.run_until_finished(inst);

    // Fleet path: same shard (1-way sharding is the identity).
    let mut f = fleet(1);
    let data = dlrm::generate(small_dlrm(), f.device_mut(0).memory_mut());
    let kid = f.device_mut(0).register_kernel(dlrm::kernel());
    let pool = f.shard_base(0);
    f.launch_routed(0, pool, dlrm::launch(&data, kid))
        .expect("offload routes");
    let run = f.run_launched();

    assert_eq!(
        run.kernel_cycles[0], single,
        "the fleet device simulation must be bit-exact"
    );
    // End to end, only the constant offload delivery skew (store
    // serialization + one switch traversal, ~150 cycles) is added. On the
    // evaluation-size workloads that is under the 1% acceptance bound,
    // which the `fig14a/parity/*` golden bands gate at release scale.
    let skew = run.compute_done - single;
    assert!(
        (1..=400).contains(&skew),
        "offload skew {skew} cycles out of range"
    );
}

#[test]
fn tensor_parallel_opt_verifies_and_allreduce_is_switch_traffic() {
    let base = opt::OptConfig {
        hidden: 64,
        heads: 4,
        ffn: 128,
        layers: 1,
        context: 16,
        seed: 11,
    };
    let n = 2usize;
    let mut fleet = fleet(n);
    for (d, cfg) in opt::tensor_parallel(base, n as u32).iter().enumerate() {
        let data = opt::generate(*cfg, fleet.device_mut(d).memory_mut());
        let dev = fleet.device_mut(d);
        let kernels = opt::OptKernels::register(dev);
        let units = dev.config().engine.units;
        let pool = fleet.shard_base(d);
        for (_k, launch) in opt::decode_step_launches(&data, &kernels, units) {
            fleet
                .launch_routed_and_run(pool, launch)
                .expect("offload routes");
        }
        opt::verify(&data, fleet.device(d).memory()).unwrap_or_else(|e| panic!("shard {d}: {e}"));
    }
    let compute = fleet.completion();
    let bytes = opt::tensor_parallel_allreduce_bytes(&base);
    let done = fleet.ring_allreduce(compute, bytes);
    assert!(done > compute, "the all-reduce must cost switch time");
    // 2(n-1) rounds moving bytes/n per device per round.
    assert_eq!(
        fleet.switch().p2p_bytes.get(),
        2 * (n as u64 - 1) * n as u64 * (bytes / n as u64)
    );
    assert!(fleet.switch().p2p_transfers.get() > 0);
}

/// Runs the sharded SLS batch on a 4-device fleet and returns everything
/// the determinism contract covers: the `FleetRun`, the aggregate device
/// stats, and the switch's host-transfer count.
fn dlrm_fleet_run() -> (m2ndp::core::fleet::FleetRun, Vec<String>, u64) {
    let mut fleet = fleet(4);
    let mut datas = Vec::new();
    for (d, cfg) in dlrm::shard(small_dlrm(), 4).iter().enumerate() {
        let data = dlrm::generate(*cfg, fleet.device_mut(d).memory_mut());
        let kid = fleet.device_mut(d).register_kernel(dlrm::kernel());
        let pool = fleet.shard_base(d);
        fleet
            .launch_routed(0, pool, dlrm::launch(&data, kid))
            .expect("offload routes");
        datas.push(data);
    }
    let run = fleet.run_launched();
    for (d, data) in datas.iter().enumerate() {
        dlrm::verify(data, fleet.device(d).memory()).unwrap_or_else(|e| panic!("shard {d}: {e}"));
    }
    let stats = fleet
        .stats()
        .metrics()
        .into_iter()
        .map(|(name, v)| format!("{name}={v:?}"))
        .collect();
    (run, stats, fleet.switch().host_transfers.get())
}

/// Every device of a 4-device DLRM fleet is cycle-exact with the same
/// shard on a standalone device, as `FleetRun::kernel_cycles` promises,
/// and repeated runs agree on the `FleetRun`, the aggregate device
/// statistics and the switch's host-transfer count.
#[test]
fn fleet_parallelism_is_bit_identical_to_serial() {
    let (first, first_stats, first_transfers) = dlrm_fleet_run();
    let standalone: Vec<u64> = dlrm::shard(small_dlrm(), 4)
        .iter()
        .map(|cfg| {
            let mut dev = m2ndp::core::CxlM2ndpDevice::new(device_cfg());
            let data = dlrm::generate(*cfg, dev.memory_mut());
            let kid = dev.register_kernel(dlrm::kernel());
            let start = dev.now();
            let inst = dev.launch(dlrm::launch(&data, kid)).expect("launch");
            dev.run_until_finished(inst) - start
        })
        .collect();
    assert_eq!(first.kernel_cycles, standalone);

    let (again, stats, transfers) = dlrm_fleet_run();
    assert_eq!(first.kernel_cycles, again.kernel_cycles);
    assert_eq!(first.per_device, again.per_device);
    assert_eq!(first.compute_done, again.compute_done);
    assert_eq!(first_stats, stats);
    assert_eq!(first_transfers, transfers);
}

/// A fig11c-style serving run (two open-loop tenants over a 4-device
/// fleet, every request a real M²func launch through the switch) must be
/// bit-identical whatever value `Fleet::set_parallelism` is given: same
/// per-request records, same histograms, same throughput, same switch
/// traffic. The host-speed benchmark still makes that call, and it must
/// change nothing.
#[test]
fn serve_run_is_bit_identical_at_any_fleet_parallelism() {
    let run_at = |jobs: usize| {
        let mut fleet = Fleet::new(FleetConfig {
            devices: 4,
            device: device_cfg(),
            switch: SwitchConfig::default(),
            hdm_bytes_per_device: 64 << 20,
        });
        fleet.set_parallelism(jobs);
        let mut backend = ServeBackend::Fleet(Box::new(fleet));
        let mut wl = KvServeWorkload::build(&mut backend, 1 << 10, 0.99);
        let cfg = ServeConfig::with_defaults(OffloadMechanism::M2Func);
        let rate = 2e6;
        let tenants = vec![
            TenantSpec::poisson("interactive", rate * 0.7)
                .requests(150)
                .slo_ns(5_000.0)
                .seed(0x5EA1),
            TenantSpec::trace("batch", vec![0.6e9 / (rate * 0.3), 1.4e9 / (rate * 0.3)])
                .requests(75)
                .slo_ns(5_000.0)
                .seed(0x5EB2),
        ];
        let mut report = serve::run(&mut backend, &mut wl, &cfg, &tenants);
        let fleet = backend.fleet().expect("fleet backend");
        let records: Vec<(u16, u64, usize, u64, u64)> = report
            .records
            .iter()
            .map(|r| {
                (
                    r.tenant,
                    r.seq,
                    r.device,
                    r.latency_ns().to_bits(),
                    r.service_ns.to_bits(),
                )
            })
            .collect();
        (
            records,
            report.p95_ns().to_bits(),
            report.throughput.to_bits(),
            report.launches,
            report.max_outstanding.clone(),
            fleet.switch().host_transfers.get(),
        )
    };
    let serial = run_at(1);
    for jobs in [2usize, 4] {
        assert_eq!(serial, run_at(jobs), "jobs={jobs}");
    }
}

#[test]
fn switch_ndp_scales_with_populated_ports() {
    let run = |memories: u32| {
        let mut sw = SwitchNdp::new(&device_cfg(), SwitchConfig::default(), memories);
        let dev = sw.device_mut();
        let data = dlrm::generate(small_dlrm(), dev.memory_mut());
        let kid = dev.register_kernel(dlrm::kernel());
        let start = dev.now();
        let inst = dev.launch(dlrm::launch(&data, kid)).expect("launch");
        let done = dev.run_until_finished(inst);
        dlrm::verify(&data, dev.memory()).expect("switch-NDP SLS verifies");
        done - start
    };
    let one = run(1);
    let eight = run(8);
    assert!(
        eight < one,
        "8 populated ports must beat 1: {eight} vs {one}"
    );
}
