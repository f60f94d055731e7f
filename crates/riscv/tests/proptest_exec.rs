//! Property tests: the vector executor agrees with scalar reference loops,
//! the assembler is total over generated programs, and functional AMOs
//! agree with a read → compute → write reference.

use m2ndp_mem::MainMemory;
use m2ndp_riscv::assemble;
use m2ndp_riscv::exec::{amo_on_memory, step, EffectBuf, MainMemoryIface, ThreadCtx};
use m2ndp_riscv::instr::{AmoOp, Width};
use proptest::prelude::*;

fn run_to_halt(
    src: &str,
    setup: impl FnOnce(&mut ThreadCtx, &mut MainMemory),
) -> (ThreadCtx, MainMemory) {
    let prog = assemble(src).expect("assembles");
    let mut mem = MainMemory::new();
    let mut ctx = ThreadCtx::new();
    setup(&mut ctx, &mut mem);
    let mut iface = MainMemoryIface::new(&mut mem);
    let mut buf = EffectBuf::new();
    let mut steps = 0;
    while !ctx.done {
        step(&mut ctx, &prog, &mut iface, &mut buf).expect("executes");
        steps += 1;
        assert!(steps < 100_000, "runaway");
    }
    (ctx, mem)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// vadd.vv over 8 e32 lanes equals elementwise wrapping addition.
    #[test]
    fn vector_add_matches_scalar(a in prop::collection::vec(any::<u32>(), 8),
                                 b in prop::collection::vec(any::<u32>(), 8)) {
        let (_, mem) = run_to_halt(
            "vsetvli x0, x0, e32, m1
             vle32.v v1, (x1)
             li x3, 0xB000
             vle32.v v2, (x3)
             vadd.vv v3, v1, v2
             li x4, 0xC000
             vse32.v v3, (x4)
             halt",
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                for i in 0..8 {
                    mem.write_u32(0xA000 + i as u64 * 4, a[i]);
                    mem.write_u32(0xB000 + i as u64 * 4, b[i]);
                }
            },
        );
        for i in 0..8 {
            prop_assert_eq!(mem.read_u32(0xC000 + i as u64 * 4), a[i].wrapping_add(b[i]));
        }
    }

    /// vredsum over e64 lanes equals the wrapping sum.
    #[test]
    fn vector_reduction_matches_sum(vals in prop::collection::vec(any::<u64>(), 4)) {
        let (ctx, _) = run_to_halt(
            "vsetvli x0, x0, e64, m1
             vle64.v v2, (x1)
             vmv.v.i v1, 0
             vredsum.vs v3, v2, v1
             vmv.x.s x4, v3
             halt",
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                for (i, v) in vals.iter().enumerate() {
                    mem.write_u64(0xA000 + i as u64 * 8, *v);
                }
            },
        );
        let expect = vals.iter().fold(0u64, |s, v| s.wrapping_add(*v));
        prop_assert_eq!(ctx.x[4], expect);
    }

    /// Gathers read exactly the indexed elements, regardless of permutation.
    #[test]
    fn gather_matches_indexing(perm in prop::sample::subsequence((0u64..8).collect::<Vec<_>>(), 4)) {
        prop_assume!(perm.len() == 4);
        let (_, mem) = run_to_halt(
            "vsetvli x0, x0, e64, m1
             vle64.v v2, (x1)
             li x3, 0xB000
             vluxei64.v v3, (x3), v2
             vse64.v v3, (x1)
             halt",
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                for (i, p) in perm.iter().enumerate() {
                    mem.write_u64(0xA000 + i as u64 * 8, p * 8);
                }
                for i in 0..8u64 {
                    mem.write_u64(0xB000 + i * 8, 1000 + i * 7);
                }
            },
        );
        for (i, p) in perm.iter().enumerate() {
            prop_assert_eq!(mem.read_u64(0xA000 + i as u64 * 8), 1000 + p * 7, "element {}", i);
        }
    }

    /// Masked compare + merge equals the scalar select.
    #[test]
    fn compare_and_merge_matches_select(vals in prop::collection::vec(any::<i32>(), 8),
                                        threshold in any::<i32>()) {
        let (_, mem) = run_to_halt(
            &format!(
                "vsetvli x0, x0, e32, m1
                 vle32.v v1, (x1)
                 li x4, {threshold}
                 vmslt.vx v0, v1, x4
                 vmv.v.i v2, 0
                 vmerge.vim v3, v2, 1, v0
                 li x5, 0xB000
                 vse32.v v3, (x5)
                 halt"
            ),
            |ctx, mem| {
                ctx.x[1] = 0xA000;
                for (i, v) in vals.iter().enumerate() {
                    mem.write_u32(0xA000 + i as u64 * 4, *v as u32);
                }
            },
        );
        for (i, v) in vals.iter().enumerate() {
            let expect = u32::from(*v < threshold);
            prop_assert_eq!(mem.read_u32(0xB000 + i as u64 * 4), expect, "lane {}", i);
        }
    }

    /// Loop-sum program equals the closed form for any n in 1..=500.
    #[test]
    fn loop_sum_closed_form(n in 1u32..=500) {
        let (ctx, _) = run_to_halt(
            &format!(
                "li x3, {n}
                 li x4, 0
                 loop: add x4, x4, x3
                 addi x3, x3, -1
                 bnez x3, loop
                 halt"
            ),
            |_, _| {},
        );
        prop_assert_eq!(ctx.x[4], (n as u64) * (n as u64 + 1) / 2);
    }

    /// Stores then loads round-trip through memory for all widths.
    #[test]
    fn store_load_round_trip(v in any::<u64>(), off in 0u64..64) {
        let addr = 0x9000 + off * 8;
        let (ctx, _) = run_to_halt(
            &format!(
                "li x3, {addr}
                 li x4, {v}
                 sd x4, (x3)
                 ld x5, (x3)
                 halt",
                v = v as i64
            ),
            |_, _| {},
        );
        prop_assert_eq!(ctx.x[5], v);
    }
}

const AMO_OPS: [AmoOp; 7] = [
    AmoOp::Add,
    AmoOp::Swap,
    AmoOp::Min,
    AmoOp::Max,
    AmoOp::And,
    AmoOp::Or,
    AmoOp::Xor,
];

/// The AMO reference: separate read, compute and write, computed on the
/// sign-extended value so W's returned old value is sign-extended too.
fn read_compute_write(
    mem: &mut MainMemory,
    op: AmoOp,
    width: Width,
    addr: u64,
    operand: u64,
) -> u64 {
    let (old, rhs) = match width {
        Width::W => (
            mem.read_u32(addr) as i32 as i64,
            operand as u32 as i32 as i64,
        ),
        _ => (mem.read_u64(addr) as i64, operand as i64),
    };
    let new = match op {
        AmoOp::Add => old.wrapping_add(rhs),
        AmoOp::Swap => rhs,
        AmoOp::Min => old.min(rhs),
        AmoOp::Max => old.max(rhs),
        AmoOp::And => old & rhs,
        AmoOp::Or => old | rhs,
        AmoOp::Xor => old ^ rhs,
    };
    match width {
        Width::W => mem.write_u32(addr, new as u32),
        _ => mem.write_u64(addr, new as u64),
    }
    old as u64
}

proptest! {
    /// Every AMO op at W and D width, at an in-page address and at one
    /// whose bytes straddle a page edge, returns the reference's old value
    /// and leaves the same bytes and the same pages behind, whether or not
    /// the target was written before.
    #[test]
    fn amo_on_memory_matches_read_compute_write(
        old in any::<u64>(),
        operand in any::<u64>(),
        in_page_off in 0u64..4088,
        straddle_back in 1u64..8,
        written in any::<bool>(),
    ) {
        const PAGE_EDGE: u64 = 0x1_0000_1000;
        for width in [Width::W, Width::D] {
            let bytes = if width == Width::W { 4 } else { 8 };
            let straddling = PAGE_EDGE - (1 + (straddle_back - 1) % (bytes - 1));
            for addr in [PAGE_EDGE + in_page_off, straddling] {
                for op in AMO_OPS {
                    let mut mem = MainMemory::new();
                    let mut reference = MainMemory::new();
                    if written {
                        mem.write_u64(addr, old);
                        reference.write_u64(addr, old);
                    }
                    let got = amo_on_memory(&mut mem, op, width, addr, operand);
                    let want = read_compute_write(&mut reference, op, width, addr, operand);
                    prop_assert_eq!(got, want, "{:?}.{:?} old value at {:#x}", op, width, addr);
                    for a in (addr - 8)..(addr + 16) {
                        prop_assert_eq!(mem.read_u8(a), reference.read_u8(a), "{:?}.{:?} byte {:#x}", op, width, a);
                    }
                    prop_assert_eq!(mem.resident_pages(), reference.resident_pages());
                }
            }
        }
    }
}
