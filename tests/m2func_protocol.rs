//! Integration test of the full M²func protocol (Table II, Fig. 4):
//! region registration in the packet filter, launch-call encoding on the
//! host side, packet-timing through the CXL link, decode + dispatch at the
//! NDP controller, and return-value readback.

use m2ndp::core::m2func::{decode_launch, encode_launch, InstanceStatus, M2Func, M2FuncCall};
use m2ndp::core::{KernelSpec, LaunchArgs};
use m2ndp::cxl::filter::Asid;
use m2ndp::cxl::FilterEntry;
use m2ndp::riscv::assemble;
use m2ndp::SystemBuilder;

const M2FUNC_BASE: u64 = 0x0001_0000;
const ASID: u16 = 0x07;

#[test]
fn full_m2func_launch_poll_flow() {
    let mut dev = SystemBuilder::m2ndp().units(2).build();

    // Driver installs the process's M²func region into the packet filter
    // (one-time CXL.io operation, §III-B).
    dev.packet_filter_mut()
        .insert(FilterEntry {
            base: M2FUNC_BASE,
            bound: M2FUNC_BASE + 0x1_0000,
            asid: Asid(ASID),
        })
        .unwrap();

    // Host runtime registers the kernel (code pre-placed in device memory).
    let body = assemble(
        "vsetvli x0, x0, e32, m1
         vle32.v v1, (x1)
         vadd.vv v1, v1, v1
         vse32.v v1, (x1)
         halt",
    )
    .unwrap();
    let kid = dev.register_kernel(KernelSpec::body_only("double", body));

    // Data.
    let base = 0x40_0000u64;
    for i in 0..1024u64 {
        dev.memory_mut().write_u32(base + i * 4, 7);
    }

    // Host encodes the launch exactly as the CXL.mem write payload carries
    // it (Fig. 4) ...
    let args = LaunchArgs::new(kid, base, base + 1024 * 4);
    let words = encode_launch(&args);
    // ... the packet crosses the link and is filtered as an M²func call ...
    let launch_addr = M2FUNC_BASE + M2Func::LaunchKernel.offset();
    dev.host_submit(0, launch_addr, 64, true);
    let mut acked = false;
    for _ in 0..100_000 {
        dev.tick();
        if dev.pop_host_completion(dev.now()).is_some() {
            acked = true;
            break;
        }
    }
    assert!(acked, "launch write must be acked over CXL.mem");

    // ... and the controller decodes + dispatches it.
    let decoded = decode_launch(&words).unwrap();
    assert_eq!(decoded, args);
    let ret = dev.handle_m2func_call(ASID, M2FuncCall::LaunchKernel(decoded), false);
    assert!(ret >= 0, "launch returns the instance id");
    let inst = m2ndp::core::KernelInstanceId(ret as u32);

    // The host polls until completion (read at the poll offset).
    dev.run_until_finished(inst);
    let status = dev.handle_m2func_call(ASID, M2FuncCall::PollKernelStatus(inst), false);
    assert_eq!(status, InstanceStatus::Finished.code());
    assert_eq!(
        dev.m2func_return(ASID, M2Func::PollKernelStatus.offset()),
        Some(0)
    );

    // Result is in place.
    assert_eq!(dev.memory().read_u32(base), 14);

    // Unregister flushes the kernel; a second unregister fails.
    assert_eq!(
        dev.handle_m2func_call(ASID, M2FuncCall::UnregisterKernel(kid), false),
        0
    );
    assert!(dev.handle_m2func_call(ASID, M2FuncCall::UnregisterKernel(kid), false) < 0);
}

#[test]
fn shootdown_requires_privilege() {
    let mut dev = SystemBuilder::m2ndp().units(2).build();
    let call = M2FuncCall::ShootdownTlbEntry { asid: 1, vpn: 42 };
    assert!(dev.handle_m2func_call(ASID, call.clone(), false) < 0);
    assert_eq!(dev.handle_m2func_call(ASID, call, true), 0);
}

#[test]
fn launch_buffer_overflow_surfaces_err() {
    // §III-C: "If the buffer is full, the kernel launch will return an
    // error code."
    let mut builder = SystemBuilder::m2ndp().units(2);
    builder.config_mut().engine.max_concurrent_kernels = 2;
    let mut dev = builder.build();
    let body = assemble("halt").unwrap();
    let kid = dev.register_kernel(KernelSpec::body_only("nop", body));
    let mk = || LaunchArgs::new(kid, 0x1000, 0x2000);
    let a = dev.handle_m2func_call(ASID, M2FuncCall::LaunchKernel(mk()), false);
    let b = dev.handle_m2func_call(ASID, M2FuncCall::LaunchKernel(mk()), false);
    assert!(a >= 0 && b >= 0);
    let c = dev.handle_m2func_call(ASID, M2FuncCall::LaunchKernel(mk()), false);
    assert!(c < 0, "third concurrent launch must be rejected: {c}");
}

#[test]
fn poll_answers_finished_for_long_retired_instances() {
    // Finished instances leave the engine's live store; the poll must
    // still report them Finished on the wire, however many launches ago.
    let mut dev = SystemBuilder::m2ndp().units(2).build();
    let kid = dev.register_kernel(KernelSpec::body_only("nop", assemble("halt").unwrap()));
    let mut first = None;
    for _ in 0..200 {
        let inst = dev
            .m2func_launch(ASID, LaunchArgs::new(kid, 0x1000, 0x1020))
            .unwrap();
        dev.run_until_idle();
        first.get_or_insert(inst);
    }
    let status = dev.handle_m2func_call(
        ASID,
        M2FuncCall::PollKernelStatus(first.expect("launched")),
        false,
    );
    assert_eq!(status, InstanceStatus::Finished.code());
}
