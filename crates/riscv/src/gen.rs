//! Seeded random instruction and program generators.
//!
//! These drive the toolchain property tests (`tests/asm_roundtrip.rs`): the
//! round-trip law `assemble(disassemble(p)) == p` and the differential
//! decode-vs-execute check. Generation is plain seeded [`rand`] — each seed
//! yields one deterministic program, so a failing case reproduces from its
//! printed seed alone.
//!
//! Generated instructions stay inside the *assembler image*: every state a
//! generator emits can be spelled in the dialect (`OpImm` only uses the
//! nine immediate-form ops, unary float ops carry `rs2 = 0`, `vfexp` uses
//! operand `Imm(0)`, AMO widths are W/D). Register indices are always valid
//! (`< 32`). Branch/jump targets land in `0..=len` and every target gets a
//! named label, so the label map round-trips exactly.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instr::{
    AmoOp, BranchCond, FCmpOp, FpOp, Instr, IntOp, Precision, Sew, Spelled, VAddrMode, VCmpOp,
    VFpOp, VIntOp, VOperand, VRedOp, Width,
};
use crate::program::Program;

fn xr(rng: &mut StdRng) -> u8 {
    rng.gen_range(0..32u8)
}

fn imm(rng: &mut StdRng) -> i64 {
    // Mix small immediates (common in real kernels) with full-range values
    // (exercise the `i64::MIN`/hex parsing edge cases).
    match rng.gen_range(0..4u8) {
        0 => rng.gen::<i64>(),
        1 => rng.gen_range(-16i64..=16),
        2 => i64::MIN,
        _ => rng.gen_range(-4096i64..=4096),
    }
}

/// One variant of an op enum, drawn uniformly over its table.
///
/// The index comes from a `u8` range, the type each seed's stream was
/// recorded with: the vendored `rand` draws every integer range alike, but
/// upstream `rand` samples `u8` and `usize` ranges differently.
fn pick<T: Spelled>(rng: &mut StdRng) -> T {
    let n = u8::try_from(T::ALL.len()).expect("op tables have under 256 entries");
    T::ALL[usize::from(rng.gen_range(0..n))]
}

fn precision(rng: &mut StdRng) -> Precision {
    if rng.gen_bool(0.5) {
        Precision::S
    } else {
        Precision::D
    }
}

/// One of the nine ops that have an immediate-form mnemonic.
fn int_imm_op(rng: &mut StdRng) -> IntOp {
    let i = rng.gen_range(0..9u8);
    let mut imm_ops = IntOp::ALL.iter().filter(|op| op.imm_spelling().is_some());
    *imm_ops
        .nth(usize::from(i))
        .expect("nine ops have an immediate form")
}

fn voperand(rng: &mut StdRng) -> VOperand {
    match rng.gen_range(0..4u8) {
        0 => VOperand::Vector(xr(rng)),
        1 => VOperand::Scalar(xr(rng)),
        2 => VOperand::Imm(imm(rng)),
        _ => VOperand::Float(xr(rng)),
    }
}

fn vaddr_mode(rng: &mut StdRng) -> VAddrMode {
    match rng.gen_range(0..3u8) {
        0 => VAddrMode::Unit,
        1 => VAddrMode::Strided(xr(rng)),
        _ => VAddrMode::Indexed(xr(rng)),
    }
}

/// Generates one random assembler-image instruction.
///
/// `len` is the instruction count of the program under construction;
/// branch/jump targets are drawn from `0..=len` (one past the end is a
/// legal fall-through target).
#[allow(clippy::too_many_lines)]
pub fn gen_instr(rng: &mut StdRng, len: usize) -> Instr {
    let target = |rng: &mut StdRng| rng.gen_range(0..=len);
    match rng.gen_range(0..33u8) {
        0 => Instr::Li {
            rd: xr(rng),
            imm: imm(rng),
        },
        1 => Instr::Lui {
            rd: xr(rng),
            imm: imm(rng),
        },
        2 => Instr::Op {
            op: pick(rng),
            rd: xr(rng),
            rs1: xr(rng),
            rs2: xr(rng),
        },
        3 => Instr::OpImm {
            op: int_imm_op(rng),
            rd: xr(rng),
            rs1: xr(rng),
            imm: imm(rng),
        },
        4 => Instr::Load {
            width: pick(rng),
            signed: rng.gen_bool(0.5),
            rd: xr(rng),
            rs1: xr(rng),
            offset: imm(rng),
        },
        5 => Instr::Store {
            width: pick(rng),
            rs2: xr(rng),
            rs1: xr(rng),
            offset: imm(rng),
        },
        6 => Instr::Branch {
            cond: pick(rng),
            rs1: xr(rng),
            rs2: xr(rng),
            target: target(rng),
        },
        7 => Instr::Jal {
            rd: xr(rng),
            target: target(rng),
        },
        8 => Instr::Jalr {
            rd: xr(rng),
            rs1: xr(rng),
            offset: imm(rng),
        },
        9 => Instr::Amo {
            op: pick(rng),
            width: if rng.gen_bool(0.5) {
                Width::W
            } else {
                Width::D
            },
            rd: xr(rng),
            rs2: xr(rng),
            rs1: xr(rng),
        },
        10 => Instr::Fence,
        11 => Instr::Halt,
        12 => Instr::FLoad {
            precision: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
            offset: imm(rng),
        },
        13 => Instr::FStore {
            precision: precision(rng),
            rs2: xr(rng),
            rs1: xr(rng),
            offset: imm(rng),
        },
        14 => {
            let op = pick::<FpOp>(rng);
            // Unary SFU ops carry rs2 = 0 in assembler-image form.
            let rs2 = if op.is_unary() { 0 } else { xr(rng) };
            Instr::FOp {
                op,
                precision: precision(rng),
                rd: xr(rng),
                rs1: xr(rng),
                rs2,
            }
        }
        15 => Instr::FMadd {
            precision: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
            rs2: xr(rng),
            rs3: xr(rng),
        },
        16 => Instr::FCmp {
            op: pick(rng),
            precision: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
            rs2: xr(rng),
        },
        17 => Instr::FCvtFromInt {
            precision: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
            signed: rng.gen_bool(0.5),
        },
        18 => Instr::FCvtToInt {
            precision: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
            signed: rng.gen_bool(0.5),
        },
        19 => Instr::FMvToInt {
            precision: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
        },
        20 => Instr::FMvFromInt {
            precision: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
        },
        21 => Instr::FCvtPrec {
            to: precision(rng),
            rd: xr(rng),
            rs1: xr(rng),
        },
        22 => Instr::Vsetvli {
            rd: xr(rng),
            rs1: xr(rng),
            sew: pick(rng),
        },
        23 => Instr::VLoad {
            eew: pick(rng),
            vd: xr(rng),
            rs1: xr(rng),
            mode: vaddr_mode(rng),
            masked: rng.gen_bool(0.25),
        },
        24 => Instr::VStore {
            eew: pick(rng),
            vs3: xr(rng),
            rs1: xr(rng),
            mode: vaddr_mode(rng),
            masked: rng.gen_bool(0.25),
        },
        25 => Instr::VIntOp {
            op: pick(rng),
            vd: xr(rng),
            vs2: xr(rng),
            operand: voperand(rng),
            masked: rng.gen_bool(0.25),
        },
        26 => {
            let op = pick::<VFpOp>(rng);
            // vfexp.v's operand slot is fixed at Imm(0) by the assembler.
            let operand = if op == VFpOp::Exp {
                VOperand::Imm(0)
            } else {
                voperand(rng)
            };
            Instr::VFpOp {
                op,
                vd: xr(rng),
                vs2: xr(rng),
                operand,
                masked: rng.gen_bool(0.25),
            }
        }
        27 => Instr::VRed {
            op: pick(rng),
            vd: xr(rng),
            vs2: xr(rng),
            vs1: xr(rng),
        },
        28 => Instr::VCmp {
            op: pick(rng),
            vd: xr(rng),
            vs2: xr(rng),
            operand: voperand(rng),
        },
        29 => match rng.gen_range(0..4u8) {
            0 => Instr::VMv {
                vd: xr(rng),
                operand: voperand(rng),
            },
            1 => Instr::VMvToScalar {
                rd: xr(rng),
                vs2: xr(rng),
            },
            2 => Instr::VMvFromScalar {
                vd: xr(rng),
                rs1: xr(rng),
            },
            _ => Instr::VFMvToScalar {
                rd: xr(rng),
                vs2: xr(rng),
            },
        },
        30 => Instr::Vid {
            vd: xr(rng),
            masked: rng.gen_bool(0.25),
        },
        31 => {
            if rng.gen_bool(0.5) {
                Instr::VMerge {
                    vd: xr(rng),
                    vs2: xr(rng),
                    operand: voperand(rng),
                }
            } else {
                Instr::VSlidedown {
                    vd: xr(rng),
                    vs2: xr(rng),
                    operand: voperand(rng),
                }
            }
        }
        _ => Instr::VAmo {
            op: pick(rng),
            eew: pick(rng),
            vd: xr(rng),
            rs1: xr(rng),
            vs2: xr(rng),
            masked: rng.gen_bool(0.25),
        },
    }
}

/// Generates a random well-labeled program from a seed.
///
/// Every branch/jump target is covered by a label named `L{index}`, and a
/// few unreferenced `U{index}` labels are sprinkled in (including past the
/// last instruction), so [`crate::disasm::disassemble`] reproduces the map
/// exactly and `assemble(disassemble(p)) == p` is a meaningful equality on
/// the whole [`Program`], label map included.
pub fn gen_program(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(1..=48usize);
    let instrs: Vec<Instr> = (0..len).map(|_| gen_instr(&mut rng, len)).collect();

    let mut labels: HashMap<String, usize> = HashMap::new();
    for instr in &instrs {
        if let Instr::Branch { target, .. } | Instr::Jal { target, .. } = instr {
            labels.insert(format!("L{target}"), *target);
        }
    }
    // Unreferenced labels exercise the "emit every label" path.
    for _ in 0..rng.gen_range(0..3usize) {
        let index = rng.gen_range(0..=len);
        labels.insert(format!("U{index}"), index);
    }
    Program::new(instrs, labels)
}

/// One instance of every `Instr` variant (assembler-image states), for
/// exhaustiveness smoke tests that don't want randomness.
pub fn all_variants() -> Vec<Instr> {
    vec![
        Instr::Li { rd: 1, imm: -1 },
        Instr::Lui { rd: 2, imm: 4096 },
        Instr::Op {
            op: IntOp::Sub,
            rd: 3,
            rs1: 4,
            rs2: 5,
        },
        Instr::OpImm {
            op: IntOp::Add,
            rd: 6,
            rs1: 7,
            imm: 8,
        },
        Instr::Load {
            width: Width::D,
            signed: false,
            rd: 8,
            rs1: 9,
            offset: -16,
        },
        Instr::Store {
            width: Width::W,
            rs2: 10,
            rs1: 11,
            offset: 4,
        },
        Instr::Branch {
            cond: BranchCond::Ltu,
            rs1: 12,
            rs2: 13,
            target: 0,
        },
        Instr::Jal { rd: 1, target: 0 },
        Instr::Jalr {
            rd: 0,
            rs1: 1,
            offset: 0,
        },
        Instr::Amo {
            op: AmoOp::Max,
            width: Width::W,
            rd: 14,
            rs2: 15,
            rs1: 16,
        },
        Instr::Fence,
        Instr::Halt,
        Instr::FLoad {
            precision: Precision::S,
            rd: 1,
            rs1: 2,
            offset: 8,
        },
        Instr::FStore {
            precision: Precision::D,
            rs2: 3,
            rs1: 4,
            offset: -8,
        },
        Instr::FOp {
            op: FpOp::Exp,
            precision: Precision::D,
            rd: 5,
            rs1: 6,
            rs2: 0,
        },
        Instr::FMadd {
            precision: Precision::S,
            rd: 7,
            rs1: 8,
            rs2: 9,
            rs3: 10,
        },
        Instr::FCmp {
            op: FCmpOp::Le,
            precision: Precision::D,
            rd: 17,
            rs1: 11,
            rs2: 12,
        },
        Instr::FCvtFromInt {
            precision: Precision::D,
            rd: 13,
            rs1: 18,
            signed: false,
        },
        Instr::FCvtToInt {
            precision: Precision::S,
            rd: 19,
            rs1: 14,
            signed: true,
        },
        Instr::FMvToInt {
            precision: Precision::D,
            rd: 20,
            rs1: 15,
        },
        Instr::FMvFromInt {
            precision: Precision::S,
            rd: 16,
            rs1: 21,
        },
        Instr::FCvtPrec {
            to: Precision::S,
            rd: 17,
            rs1: 18,
        },
        Instr::Vsetvli {
            rd: 22,
            rs1: 0,
            sew: Sew::E16,
        },
        Instr::VLoad {
            eew: Sew::E32,
            vd: 1,
            rs1: 23,
            mode: VAddrMode::Indexed(2),
            masked: true,
        },
        Instr::VStore {
            eew: Sew::E64,
            vs3: 3,
            rs1: 24,
            mode: VAddrMode::Strided(25),
            masked: false,
        },
        Instr::VIntOp {
            op: VIntOp::Min,
            vd: 4,
            vs2: 5,
            operand: VOperand::Imm(-3),
            masked: true,
        },
        Instr::VFpOp {
            op: VFpOp::Macc,
            vd: 6,
            vs2: 7,
            operand: VOperand::Float(19),
            masked: false,
        },
        Instr::VRed {
            op: VRedOp::FMin,
            vd: 8,
            vs2: 9,
            vs1: 10,
        },
        Instr::VCmp {
            op: VCmpOp::FGe,
            vd: 0,
            vs2: 11,
            operand: VOperand::Scalar(26),
        },
        Instr::VMv {
            vd: 12,
            operand: VOperand::Imm(7),
        },
        Instr::VMvToScalar { rd: 27, vs2: 13 },
        Instr::VMvFromScalar { vd: 14, rs1: 28 },
        Instr::VFMvToScalar { rd: 20, vs2: 15 },
        Instr::Vid {
            vd: 16,
            masked: true,
        },
        Instr::VMerge {
            vd: 17,
            vs2: 18,
            operand: VOperand::Vector(19),
        },
        Instr::VSlidedown {
            vd: 20,
            vs2: 21,
            operand: VOperand::Imm(2),
        },
        Instr::VAmo {
            op: AmoOp::Xor,
            eew: Sew::E64,
            vd: 22,
            rs1: 29,
            vs2: 23,
            masked: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(gen_program(42), gen_program(42));
        // Different seeds should (overwhelmingly) differ.
        assert_ne!(gen_program(1), gen_program(2));
    }

    #[test]
    fn generated_targets_are_labeled() {
        for seed in 0..64 {
            let p = gen_program(seed);
            for instr in p.instrs() {
                if let Instr::Branch { target, .. } | Instr::Jal { target, .. } = instr {
                    assert_eq!(p.label(&format!("L{target}")), Some(*target));
                }
            }
        }
    }

    #[test]
    fn all_variants_is_exhaustive_by_count() {
        // One entry per Instr variant (37 total). The match-exhaustive
        // classification test in crates/riscv/tests/ keeps this honest when
        // a variant is added.
        let vs = all_variants();
        assert_eq!(vs.len(), 37);
    }
}
