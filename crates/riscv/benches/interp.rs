//! Group-dispatch interpreter microbenchmarks.
//!
//! Four kernels bracket the interpreter's regimes — a converged scalar
//! ALU loop (pure decode overhead), a strided vector load loop (memory
//! effect reporting), a lane-divergent branch loop (partial groups), and
//! HISTO's vector scatter-add (functional AMOs on written pages) — each run
//! through [`step_group`] over an 8-lane SIMT group: decode once, tight
//! lane loop, memory operations written into a reused [`EffectBuf`].
//! `M2NDP_BENCH_MS` shortens the measurement window.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use m2ndp_mem::MainMemory;
use m2ndp_riscv::exec::{step_group, EffectBuf, MainMemoryIface, ThreadCtx};
use m2ndp_riscv::{assemble, Program};

const LANES: usize = 8;

/// Converged scalar loop: every issue is a full-width ALU or branch group.
const ALU_LOOP: &str = "
    li x4, 1000
    loop: addi x4, x4, -1
    bnez x4, loop
    halt";

/// Strided vector loads: every iteration reports `vl` memory operations
/// per lane through the effect channel.
const STRIDED_VECTOR_LOAD: &str = "
    vsetvli x0, x0, e32, m1
    li x5, 64
    li x4, 100
    loop: vlse32.v v1, (x1), x5
    add x1, x1, x5
    addi x4, x4, -1
    bnez x4, loop
    halt";

/// Lane-divergent branches: `x2` differs per lane, so the group splits and
/// re-converges, exercising partial-group issues.
const DIVERGENT_BRANCH: &str = "
    li x4, 200
    loop: andi x6, x2, 0x40
    beqz x6, even
    addi x5, x5, 3
    j next
    even: addi x5, x5, 1
    next: addi x4, x4, -1
    bnez x4, loop
    halt";

/// HISTO's body as a loop: load 8 bin indices, scale them to byte
/// offsets, and scatter-add ones into the bin array with `vamoaddei32.v`.
/// `x1` walks this lane's input; `x3` is the bin array.
const VECTOR_AMO: &str = "
    vsetvli x0, x0, e32, m1
    vmv.v.i v2, 1
    li x5, 32
    li x4, 100
    loop: vle32.v v1, (x1)
    vsll.vi v1, v1, 2
    vamoaddei32.v v2, (x3), v1
    add x1, x1, x5
    addi x4, x4, -1
    bnez x4, loop
    halt";

/// `VECTOR_AMO`'s bins: 4,096 u32 counters, 16 KiB.
const BINS: u64 = 4096;
const BIN_BASE: u64 = 0x10_0000;
/// `VECTOR_AMO`'s inputs: one 4 KiB page of bin indices per lane.
const AMO_INPUT_BASE: u64 = 0x20_0000;

fn spawn_lanes() -> Vec<ThreadCtx> {
    (0..LANES)
        .map(|i| {
            let mut ctx = ThreadCtx::new();
            ctx.x[1] = 0x1_0000 + i as u64 * 0x40;
            ctx.x[2] = i as u64 * 0x40;
            ctx
        })
        .collect()
}

fn reset_lanes(ctxs: &mut [ThreadCtx]) {
    for (i, ctx) in ctxs.iter_mut().enumerate() {
        ctx.reset();
        ctx.x[1] = 0x1_0000 + i as u64 * 0x40;
        ctx.x[2] = i as u64 * 0x40;
    }
}

/// Runs the program to completion through `step_group`.
fn run_group(
    ctxs: &mut [ThreadCtx],
    prog: &Program,
    mem: &mut MainMemory,
    buf: &mut EffectBuf,
) -> u64 {
    let mut iface = MainMemoryIface::new(mem);
    let mut total = 0u64;
    while let Some(min_pc) = ctxs.iter().filter(|c| !c.done).map(|c| c.pc).min() {
        if prog.fetch(min_pc).is_none() {
            break;
        }
        let group = step_group(ctxs, min_pc, prog, &mut iface, buf);
        total += u64::from(group.lanes);
        black_box((group.effect, buf.memops()));
    }
    total
}

fn bench_kernel(c: &mut Criterion, name: &str, source: &str) {
    bench_kernel_on(c, name, source, MainMemory::new(), reset_lanes);
}

fn bench_kernel_on(
    c: &mut Criterion,
    name: &str,
    source: &str,
    mut mem: MainMemory,
    reset: fn(&mut [ThreadCtx]),
) {
    let prog = assemble(source).expect(name);
    let mut ctxs = spawn_lanes();
    let mut buf = EffectBuf::new();

    c.bench_function(&format!("interp/{name}/group"), |b| {
        b.iter(|| {
            reset(&mut ctxs);
            run_group(&mut ctxs, &prog, &mut mem, &mut buf)
        })
    });
}

/// Memory for `VECTOR_AMO` with every page it touches already written:
/// zeroed bins and deterministic pseudo-random bin indices.
fn vector_amo_memory() -> MainMemory {
    let mut mem = MainMemory::new();
    mem.write_bytes(BIN_BASE, &[0; BINS as usize * 4]);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..LANES as u64 * 1024 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        mem.write_u32(AMO_INPUT_BASE + i * 4, (x % BINS) as u32);
    }
    mem
}

fn reset_amo_lanes(ctxs: &mut [ThreadCtx]) {
    for (i, ctx) in ctxs.iter_mut().enumerate() {
        ctx.reset();
        ctx.x[1] = AMO_INPUT_BASE + i as u64 * 4096;
        ctx.x[3] = BIN_BASE;
    }
}

fn interp_benches(c: &mut Criterion) {
    bench_kernel(c, "alu-loop", ALU_LOOP);
    bench_kernel(c, "strided-vector-load", STRIDED_VECTOR_LOAD);
    bench_kernel(c, "divergent-branch", DIVERGENT_BRANCH);
    bench_kernel_on(
        c,
        "vector-amo",
        VECTOR_AMO,
        vector_amo_memory(),
        reset_amo_lanes,
    );
}

criterion_group!(benches, interp_benches);
criterion_main!(benches);
