//! Multi-device fleet scaling (§III-I) and NDP-in-switch (§III-J), fully
//! simulated: N real CXL-M²NDP devices behind a CXL switch run a sharded
//! DLRM SLS batch (disjoint outputs, no combine) and a tensor-parallel OPT
//! decode step (ring all-reduce as actual switch P2P traffic), then the
//! same SLS batch runs on an in-switch NDP complex pulling from passive
//! CXL memories.
//!
//! ```text
//! cargo run --release --example fleet_scaling
//! ```

use m2ndp::core::fleet::{Fleet, FleetConfig, SwitchNdp};
use m2ndp::core::M2ndpConfig;
use m2ndp::cxl::SwitchConfig;
use m2ndp::workloads::{dlrm, opt};

fn device_cfg() -> M2ndpConfig {
    let mut cfg = M2ndpConfig::default_device();
    cfg.engine.units = 8; // bench scale, keeps the example in seconds
    cfg
}

fn fleet(devices: usize) -> Fleet {
    Fleet::new(FleetConfig {
        devices,
        device: device_cfg(),
        switch: SwitchConfig::default(),
        hdm_bytes_per_device: 1 << 30,
    })
}

fn dlrm_cfg() -> dlrm::DlrmConfig {
    dlrm::DlrmConfig {
        table_rows: 32 << 10,
        dim: 64,
        lookups: 80,
        batch: 64,
        zipf_theta: 0.9,
        seed: 0xD12A,
    }
}

/// Shards one SLS batch over the fleet; returns total cycles.
fn run_dlrm(devices: usize) -> Result<u64, Box<dyn std::error::Error>> {
    let mut fleet = fleet(devices);
    let mut datas = Vec::new();
    for (d, cfg) in dlrm::shard(dlrm_cfg(), devices as u32).iter().enumerate() {
        let data = dlrm::generate(*cfg, fleet.device_mut(d).memory_mut());
        let kid = fleet.device_mut(d).register_kernel(dlrm::kernel());
        let pool = fleet.shard_base(d);
        fleet.launch_routed(0, pool, dlrm::launch(&data, kid))?;
        datas.push(data);
    }
    let run = fleet.run_launched();
    for (d, data) in datas.iter().enumerate() {
        dlrm::verify(data, fleet.device(d).memory()).map_err(|e| format!("shard {d}: {e}"))?;
    }
    Ok(run.compute_done)
}

/// Tensor-parallel decode step over the fleet; returns (total, all-reduce)
/// cycles.
fn run_opt(devices: usize) -> Result<(u64, u64), Box<dyn std::error::Error>> {
    let base = opt::OptConfig {
        hidden: 256,
        heads: 8,
        ffn: 1024,
        layers: 1,
        context: 64,
        seed: 7,
    };
    let mut fleet = fleet(devices);
    for (d, cfg) in opt::tensor_parallel(base, devices as u32)
        .iter()
        .enumerate()
    {
        let data = opt::generate(*cfg, fleet.device_mut(d).memory_mut());
        let dev = fleet.device_mut(d);
        let kernels = opt::OptKernels::register(dev);
        let units = dev.config().engine.units;
        let pool = fleet.shard_base(d);
        for (_k, launch) in opt::decode_step_launches(&data, &kernels, units) {
            fleet.launch_routed_and_run(pool, launch)?;
        }
        opt::verify(&data, fleet.device(d).memory()).map_err(|e| format!("shard {d}: {e}"))?;
    }
    let compute = fleet.completion();
    let bytes = if devices > 1 {
        opt::tensor_parallel_allreduce_bytes(&base)
    } else {
        0
    };
    let done = fleet.ring_allreduce(compute, bytes);
    Ok((done, done - compute))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("fleet scaling over the switch (8 units/device, DLRM batch 64):\n");
    println!("devices  DLRM cycles  speedup   OPT cycles  speedup  all-reduce");
    let d1 = run_dlrm(1)?;
    let (o1, _) = run_opt(1)?;
    for n in [1usize, 2, 4, 8] {
        let d = run_dlrm(n)?;
        let (o, ar) = run_opt(n)?;
        println!(
            "{n:>7}  {d:>11}  {:>6.2}x  {o:>10}  {:>6.2}x  {ar:>9} cy",
            d1 as f64 / d as f64,
            o1 as f64 / o as f64,
        );
    }

    println!("\nNDP-in-switch: one NDP complex pulling from passive memories:\n");
    println!("memories  cycles   speedup");
    let mut first = None;
    for memories in [1u32, 2, 4, 8] {
        let mut sw = SwitchNdp::new(&device_cfg(), SwitchConfig::default(), memories);
        let dev = sw.device_mut();
        let data = dlrm::generate(dlrm_cfg(), dev.memory_mut());
        let kid = dev.register_kernel(dlrm::kernel());
        let start = dev.now();
        let inst = dev.launch(dlrm::launch(&data, kid))?;
        let cycles = dev.run_until_finished(inst) - start;
        dlrm::verify(&data, dev.memory())?;
        let base = *first.get_or_insert(cycles);
        println!(
            "{memories:>8}  {cycles:>6}  {:>6.2}x",
            base as f64 / cycles as f64
        );
    }
    println!("\nports scale the pull bandwidth until the in-switch NDP saturates (§III-J)");
    Ok(())
}
