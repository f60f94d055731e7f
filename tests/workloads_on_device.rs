//! End-to-end integration: every Table V workload family executes its NDP
//! kernels on the full CXL-M²NDP device model and is verified against a
//! host-computed reference.
//!
//! These are the cross-crate contracts the benchmark harness relies on:
//! generator → functional memory → M²func launch → M²µthread execution
//! through the L1D/NoC/L2/DRAM timing path → verification.

use m2ndp::core::{CxlM2ndpDevice, KernelInstanceId};
use m2ndp::workloads::{dlrm, graph, histo, kvstore, olap, opt, spmv};
use m2ndp::SystemBuilder;

fn small_m2ndp(units: u32) -> CxlM2ndpDevice {
    SystemBuilder::m2ndp().units(units).build()
}

#[test]
fn histo_256_on_device_matches_reference() {
    let mut dev = small_m2ndp(4);
    let cfg = histo::HistoConfig {
        elements: 64 << 10,
        bins: 256,
        seed: 42,
    };
    let data = histo::generate(cfg, dev.memory_mut());
    let kid = dev.register_kernel(histo::kernel(cfg));
    let units = dev.config().engine.units;
    let inst = dev.launch(histo::launch(&data, kid, units)).unwrap();
    dev.run_until_finished(inst);
    histo::verify(&data, dev.memory()).unwrap();
    let stats = dev.stats();
    assert!(stats.dram_bytes >= histo::bytes_touched(&cfg));
}

#[test]
fn histo_4096_on_gpu_mode_engine_matches_reference() {
    // The same kernel, TB-granularity spawning and TB-scoped scratchpad.
    let mut dev = SystemBuilder::gpu_ndp(4, 4).build();
    let cfg = histo::HistoConfig {
        elements: 32 << 10,
        bins: 4096,
        seed: 43,
    };
    let data = histo::generate(cfg, dev.memory_mut());
    let kid = dev.register_kernel(histo::kernel(cfg));
    let inst = dev.launch(histo::launch(&data, kid, 1)).unwrap();
    dev.run_until_finished(inst);
    histo::verify(&data, dev.memory()).unwrap();
}

#[test]
fn spmv_on_device_matches_reference() {
    let mut dev = small_m2ndp(4);
    let cfg = spmv::SpmvConfig {
        rows: 2048,
        nnz_per_row: 12,
        seed: 7,
    };
    let data = spmv::generate(cfg, dev.memory_mut());
    let kid = dev.register_kernel(spmv::kernel());
    let inst = dev.launch(spmv::launch(&data, kid)).unwrap();
    dev.run_until_finished(inst);
    spmv::verify(&data, dev.memory()).unwrap();
}

#[test]
fn pgrank_iteration_on_device_matches_reference() {
    let mut dev = small_m2ndp(4);
    let cfg = graph::GraphConfig {
        nodes: 2048,
        edges: 12_000,
        seed: 9,
    };
    let data = graph::generate(cfg, dev.memory_mut());
    let k1 = dev.register_kernel(graph::pgrank_contrib_kernel());
    let k2 = dev.register_kernel(graph::pgrank_gather_kernel());
    let (l1, l2) = graph::pgrank_launches(&data, k1, k2);
    let i1 = dev.launch(l1).unwrap();
    dev.run_until_finished(i1);
    let i2 = dev.launch(l2).unwrap();
    dev.run_until_finished(i2);
    graph::pgrank_verify(&data, dev.memory()).unwrap();
}

#[test]
fn sssp_multi_body_iterations_converge_to_dijkstra() {
    let mut dev = small_m2ndp(4);
    let cfg = graph::GraphConfig {
        nodes: 1024,
        edges: 8192,
        seed: 13,
    };
    let data = graph::generate(cfg, dev.memory_mut());
    let sweeps = graph::bellman_ford_sweeps_needed(&data, dev.memory());
    let kid = dev.register_kernel(graph::sssp_kernel());
    // One body iteration per Bellman-Ford sweep; the multi-body kernel
    // feature (§III-G) provides the inter-sweep barrier.
    let inst = dev
        .launch(graph::sssp_launch(&data, kid, sweeps + 1))
        .unwrap();
    dev.run_until_finished(inst);
    graph::sssp_verify(&data, dev.memory()).unwrap();
}

#[test]
fn dlrm_sls_on_device_matches_reference() {
    let mut dev = small_m2ndp(4);
    let cfg = dlrm::DlrmConfig {
        table_rows: 4096,
        dim: 64,
        lookups: 80,
        batch: 8,
        zipf_theta: 0.9,
        seed: 5,
    };
    let data = dlrm::generate(cfg, dev.memory_mut());
    let kid = dev.register_kernel(dlrm::kernel());
    let inst = dev.launch(dlrm::launch(&data, kid)).unwrap();
    dev.run_until_finished(inst);
    dlrm::verify(&data, dev.memory()).unwrap();
}

#[test]
fn olap_queries_on_device_match_reference_masks() {
    let mut dev = small_m2ndp(4);
    let cfg = olap::OlapConfig {
        rows: 32 << 10,
        seed: 3,
    };
    let data = olap::generate(cfg, dev.memory_mut());
    let kid = dev.register_kernel(olap::evaluate_kernel());
    for query in &olap::queries() {
        for launch in olap::evaluate_launches(&data, query, kid) {
            let inst = dev.launch(launch).unwrap();
            dev.run_until_finished(inst);
        }
        olap::verify(&data, query, dev.memory()).unwrap();
    }
}

#[test]
fn kvstore_gets_and_sets_on_device() {
    let mut dev = small_m2ndp(2);
    let cfg = kvstore::KvConfig {
        items: 4096,
        buckets: 2048,
        get_ratio: 0.5,
        requests: 24,
        zipf_theta: 0.9,
        seed: 17,
    };
    let data = kvstore::generate(cfg, dev.memory_mut());
    let kid = dev.register_kernel(kvstore::kernel());
    for (slot, &req) in data.requests.clone().iter().enumerate() {
        let inst = dev
            .launch(kvstore::launch(&data, kid, req, slot as u32 % 64, 0xFACE))
            .unwrap();
        dev.run_until_finished(inst);
        if req.get {
            kvstore::verify_get(&data, dev.memory(), req, slot as u32 % 64).unwrap();
        } else {
            // SET overwrote the value in place.
            let entry = data.entries_base + req.item * kvstore::ENTRY_STRIDE;
            assert_eq!(dev.memory().read_u64(entry + kvstore::VALUE_OFF), 0xFACE);
        }
    }
}

#[test]
fn kvstore_concurrent_kernels_all_complete() {
    // Fine-grained NDP: many GET kernels resident simultaneously (§III-C).
    let mut dev = small_m2ndp(2);
    let cfg = kvstore::KvConfig {
        items: 4096,
        buckets: 2048,
        get_ratio: 1.0,
        requests: 32,
        zipf_theta: 0.9,
        seed: 19,
    };
    let data = kvstore::generate(cfg, dev.memory_mut());
    let kid = dev.register_kernel(kvstore::kernel());
    let mut insts: Vec<(KernelInstanceId, kvstore::KvRequest, u32)> = Vec::new();
    for (slot, &req) in data.requests.clone().iter().enumerate() {
        let inst = dev
            .launch(kvstore::launch(&data, kid, req, slot as u32, 0))
            .unwrap();
        insts.push((inst, req, slot as u32));
    }
    dev.run_until_idle();
    for (inst, req, slot) in insts {
        assert_eq!(
            dev.poll(inst),
            Some(m2ndp::core::m2func::InstanceStatus::Finished)
        );
        kvstore::verify_get(&data, dev.memory(), req, slot).unwrap();
    }
}

#[test]
fn opt_decode_step_on_device_matches_reference() {
    let mut dev = small_m2ndp(4);
    let cfg = opt::OptConfig {
        hidden: 128,
        heads: 4,
        ffn: 256,
        layers: 1,
        context: 32,
        seed: 21,
    };
    let data = opt::generate(cfg, dev.memory_mut());
    let kernels = opt::OptKernels::register(&mut dev);
    let units = dev.config().engine.units;
    for (_kid, launch) in opt::decode_step_launches(&data, &kernels, units) {
        let inst = dev.launch(launch).unwrap();
        dev.run_until_finished(inst);
    }
    opt::verify(&data, dev.memory()).unwrap();
}

#[test]
fn determinism_same_seed_same_cycles() {
    let run = || {
        let mut dev = small_m2ndp(2);
        let cfg = histo::HistoConfig {
            elements: 16 << 10,
            bins: 256,
            seed: 1,
        };
        let data = histo::generate(cfg, dev.memory_mut());
        let kid = dev.register_kernel(histo::kernel(cfg));
        let units = dev.config().engine.units;
        let inst = dev.launch(histo::launch(&data, kid, units)).unwrap();
        dev.run_until_finished(inst)
    };
    assert_eq!(run(), run(), "same seed must give identical cycle counts");
}
