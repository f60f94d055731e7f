//! Exhaustive classification test for [`Instr::is_vector`].
//!
//! The match below lists **every** variant explicitly — no `_` arm — so
//! adding an `Instr` variant without deciding its vector classification
//! fails to compile here, and [`gen::all_variants`] (one
//! instance per variant) drives the runtime check over each one.

use m2ndp_riscv::gen::all_variants;
use m2ndp_riscv::Instr;

/// The expected classification, spelled out per variant. Compilation of
/// this match is the real test: extend it (and `gen::all_variants`) when
/// adding a variant.
fn expected(instr: &Instr) -> bool {
    // is_vector
    match instr {
        Instr::Li { .. } | Instr::Lui { .. } | Instr::Op { .. } | Instr::OpImm { .. } => false,
        Instr::Load { .. } | Instr::Store { .. } | Instr::Amo { .. } => false,
        Instr::Branch { .. } | Instr::Jal { .. } | Instr::Jalr { .. } => false,
        Instr::Fence | Instr::Halt => false,
        Instr::FLoad { .. } | Instr::FStore { .. } => false,
        Instr::FOp { .. }
        | Instr::FMadd { .. }
        | Instr::FCmp { .. }
        | Instr::FCvtFromInt { .. }
        | Instr::FCvtToInt { .. }
        | Instr::FMvToInt { .. }
        | Instr::FMvFromInt { .. }
        | Instr::FCvtPrec { .. } => false,
        Instr::Vsetvli { .. } => true,
        Instr::VLoad { .. } | Instr::VStore { .. } | Instr::VAmo { .. } => true,
        Instr::VIntOp { .. }
        | Instr::VFpOp { .. }
        | Instr::VCmp { .. }
        | Instr::VMerge { .. }
        | Instr::VSlidedown { .. }
        | Instr::VRed { .. }
        | Instr::VMv { .. }
        | Instr::VMvToScalar { .. }
        | Instr::VMvFromScalar { .. }
        | Instr::VFMvToScalar { .. }
        | Instr::Vid { .. } => true,
    }
}

#[test]
fn classification_covers_every_variant() {
    let variants = all_variants();
    assert_eq!(variants.len(), 37, "one instance per Instr variant");
    for instr in &variants {
        assert_eq!(
            instr.is_vector(),
            expected(instr),
            "is_vector for {instr:?}"
        );
    }
}

#[test]
fn vector_set_has_the_expected_size() {
    let vector = all_variants().iter().filter(|i| i.is_vector()).count();
    // 15 vector forms (Table IV's 256-bit unit plus the vector-AMO ext).
    assert_eq!(vector, 15);
}
