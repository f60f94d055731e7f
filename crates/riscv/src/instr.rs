//! Instruction forms for the NDP unit's RISC-V subset.
//!
//! Operands follow hardware register numbering: `x0`–`x31` (x0 hardwired to
//! zero), `f0`–`f31`, `v0`–`v31`. The assembler accepts ABI names too.
//!
//! Each op enum carries its one canonical spelling (the crate-private
//! `Spelled` tables): the disassembler renders it, the assembler looks it
//! up, and the generators draw from the same variant list.

/// An op enum's variants and the canonical spelling of each.
pub(crate) trait Spelled: Copy + 'static {
    /// Every variant, in declaration order (the generators draw by index).
    const ALL: &'static [Self];

    /// The canonical spelling, as the disassembler writes it.
    fn spelling(self) -> &'static str;

    /// The variant spelled `s`.
    fn from_spelling(s: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|op| op.spelling() == s)
    }
}

/// Implements `Spelled` from one list of `Variant => "spelling"` pairs in
/// declaration order. The list is `ALL`, and the `match` it expands to has
/// no catch-all arm, so a variant missing from the list does not compile.
macro_rules! spelled {
    ($ty:ident { $($variant:ident => $spelling:literal,)+ }) => {
        impl Spelled for $ty {
            const ALL: &'static [Self] = &[$(Self::$variant),+];

            fn spelling(self) -> &'static str {
                match self {
                    $(Self::$variant => $spelling,)+
                }
            }
        }
    };
}

/// Integer ALU operations (register-register and register-immediate forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntOp {
    /// Addition.
    Add,
    /// Subtraction (register form only).
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left.
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Set if less than (signed).
    Slt,
    /// Set if less than (unsigned).
    Sltu,
    /// Multiply (low 64 bits) — M extension.
    Mul,
    /// Multiply high (signed) — M extension.
    Mulh,
    /// Divide (signed) — M extension.
    Div,
    /// Divide (unsigned) — M extension.
    Divu,
    /// Remainder (signed) — M extension.
    Rem,
    /// Remainder (unsigned) — M extension.
    Remu,
}

impl IntOp {
    /// Whether this op executes on the (longer-latency) multiplier/divider.
    pub fn is_muldiv(&self) -> bool {
        matches!(
            self,
            IntOp::Mul | IntOp::Mulh | IntOp::Div | IntOp::Divu | IntOp::Rem | IntOp::Remu
        )
    }

    /// Immediate-form mnemonic, or `None` for ops with no `i` spelling.
    pub(crate) fn imm_spelling(self) -> Option<&'static str> {
        Some(match self {
            IntOp::Add => "addi",
            IntOp::And => "andi",
            IntOp::Or => "ori",
            IntOp::Xor => "xori",
            IntOp::Sll => "slli",
            IntOp::Srl => "srli",
            IntOp::Sra => "srai",
            IntOp::Slt => "slti",
            IntOp::Sltu => "sltiu",
            IntOp::Sub
            | IntOp::Mul
            | IntOp::Mulh
            | IntOp::Div
            | IntOp::Divu
            | IntOp::Rem
            | IntOp::Remu => return None,
        })
    }
}

// Register-form mnemonics.
spelled!(IntOp {
    Add => "add",
    Sub => "sub",
    And => "and",
    Or => "or",
    Xor => "xor",
    Sll => "sll",
    Srl => "srl",
    Sra => "sra",
    Slt => "slt",
    Sltu => "sltu",
    Mul => "mul",
    Mulh => "mulh",
    Div => "div",
    Divu => "divu",
    Rem => "rem",
    Remu => "remu",
});

/// Branch conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than (signed).
    Lt,
    /// Greater or equal (signed).
    Ge,
    /// Less than (unsigned).
    Ltu,
    /// Greater or equal (unsigned).
    Geu,
}

// Branch mnemonics.
spelled!(BranchCond {
    Eq => "beq",
    Ne => "bne",
    Lt => "blt",
    Ge => "bge",
    Ltu => "bltu",
    Geu => "bgeu",
});

/// Memory access widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    D,
}

impl Width {
    /// Size in bytes.
    pub fn bytes(&self) -> u32 {
        match self {
            Width::B => 1,
            Width::H => 2,
            Width::W => 4,
            Width::D => 8,
        }
    }
}

// The width letter of loads (`l{w}`, `l{w}u`), stores (`s{w}`) and AMOs
// (`.{w}`).
spelled!(Width {
    B => "b",
    H => "h",
    W => "w",
    D => "d",
});

/// Atomic memory operations (A extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmoOp {
    /// Fetch-and-add.
    Add,
    /// Swap.
    Swap,
    /// Fetch-and-min (signed).
    Min,
    /// Fetch-and-max (signed).
    Max,
    /// Fetch-and-and.
    And,
    /// Fetch-and-or.
    Or,
    /// Fetch-and-xor.
    Xor,
}

// The op part of `amo{op}.{w}` and `vamo{op}ei{eew}.v`.
spelled!(AmoOp {
    Add => "add",
    Swap => "swap",
    Min => "min",
    Max => "max",
    And => "and",
    Or => "or",
    Xor => "xor",
});

/// Floating-point precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// f32 (".s").
    S,
    /// f64 (".d").
    D,
}

impl Precision {
    /// Element bytes.
    pub fn bytes(&self) -> u32 {
        match self {
            Precision::S => 4,
            Precision::D => 8,
        }
    }
}

// The precision suffix of float mnemonics (`fadd.{p}`).
spelled!(Precision {
    S => "s",
    D => "d",
});

/// Scalar floating-point computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (SFU-class latency).
    Div,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Square root (SFU).
    Sqrt,
    /// e^x (NDP SFU extension; used by softmax kernels).
    Exp,
    /// Sign-injection (fsgnj; fmv.s/fneg.s/fabs.s pseudos build on it).
    Sgnj,
    /// Sign-injection negated.
    Sgnjn,
    /// Sign-injection xor.
    Sgnjx,
}

impl FpOp {
    /// Whether the op reads one source (its `rs2` is 0 in assembler images).
    pub(crate) fn is_unary(self) -> bool {
        matches!(self, FpOp::Sqrt | FpOp::Exp)
    }
}

// Float mnemonics before the precision suffix.
spelled!(FpOp {
    Add => "fadd",
    Sub => "fsub",
    Mul => "fmul",
    Div => "fdiv",
    Min => "fmin",
    Max => "fmax",
    Sqrt => "fsqrt",
    Exp => "fexp",
    Sgnj => "fsgnj",
    Sgnjn => "fsgnjn",
    Sgnjx => "fsgnjx",
});

/// Scalar float comparisons (write 0/1 to an integer register).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FCmpOp {
    /// Equal.
    Eq,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
}

// Float compare mnemonics before the precision suffix.
spelled!(FCmpOp {
    Eq => "feq",
    Lt => "flt",
    Le => "fle",
});

/// Selected element width for vector operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sew {
    /// 8-bit elements.
    E8,
    /// 16-bit elements.
    E16,
    /// 32-bit elements.
    E32,
    /// 64-bit elements.
    E64,
}

impl Sew {
    /// Element size in bytes.
    pub fn bytes(&self) -> u32 {
        match self {
            Sew::E8 => 1,
            Sew::E16 => 2,
            Sew::E32 => 4,
            Sew::E64 => 8,
        }
    }
}

// Element width in bits, as in `e{sew}`, `vle{eew}.v` and `vamo…ei{eew}.v`.
spelled!(Sew {
    E8 => "8",
    E16 => "16",
    E32 => "32",
    E64 => "64",
});

/// Vector integer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VIntOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (low).
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Shift left logical.
    Sll,
    /// Shift right logical.
    Srl,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
}

// Vector integer mnemonics before the operand-kind suffix.
spelled!(VIntOp {
    Add => "vadd",
    Sub => "vsub",
    Mul => "vmul",
    And => "vand",
    Or => "vor",
    Xor => "vxor",
    Sll => "vsll",
    Srl => "vsrl",
    Min => "vmin",
    Max => "vmax",
});

/// Vector floating-point operations (SEW selects f32/f64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VFpOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Fused multiply-accumulate: vd += vs2 * operand.
    Macc,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// e^x per element (vector SFU extension).
    Exp,
}

// Vector float mnemonics before the operand-kind suffix.
spelled!(VFpOp {
    Add => "vfadd",
    Sub => "vfsub",
    Mul => "vfmul",
    Div => "vfdiv",
    Macc => "vfmacc",
    Min => "vfmin",
    Max => "vfmax",
    Exp => "vfexp",
});

/// Vector reductions (scalar result in element 0 of vd).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VRedOp {
    /// Integer sum: `vd[0] = vs1[0] + sum(vs2)`.
    Sum,
    /// Integer max.
    Max,
    /// Integer min.
    Min,
    /// Float ordered sum (vfredusum/vfredosum).
    FSum,
    /// Float max.
    FMax,
    /// Float min.
    FMin,
}

// Reduction mnemonics before the `.vs` suffix.
spelled!(VRedOp {
    Sum => "vredsum",
    Max => "vredmax",
    Min => "vredmin",
    FSum => "vfredusum",
    FMax => "vfredmax",
    FMin => "vfredmin",
});

/// Vector compares, writing a mask (bit per element) into vd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VCmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than (signed).
    Lt,
    /// Less or equal (signed).
    Le,
    /// Greater than (signed).
    Gt,
    /// Greater or equal (signed).
    Ge,
    /// Float less than.
    FLt,
    /// Float less or equal.
    FLe,
    /// Float equal.
    FEq,
    /// Float greater or equal.
    FGe,
}

// Vector compare mnemonics before the operand-kind suffix.
spelled!(VCmpOp {
    Eq => "vmseq",
    Ne => "vmsne",
    Lt => "vmslt",
    Le => "vmsle",
    Gt => "vmsgt",
    Ge => "vmsge",
    FLt => "vmflt",
    FLe => "vmfle",
    FEq => "vmfeq",
    FGe => "vmfge",
});

/// Second source operand of a vector instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VOperand {
    /// `.vv` — another vector register.
    Vector(u8),
    /// `.vx` — a scalar integer register.
    Scalar(u8),
    /// `.vi` — an immediate.
    Imm(i64),
    /// `.vf` — a scalar float register.
    Float(u8),
}

/// Vector memory addressing modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VAddrMode {
    /// Unit-stride (`vle*/vse*`).
    Unit,
    /// Constant stride from an x register (`vlse*/vsse*`).
    Strided(u8),
    /// Indexed by a vector of offsets (`vluxei*/vsuxei*`): the index
    /// register.
    Indexed(u8),
}

/// One decoded instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    // ----- scalar integer -----
    /// Load immediate (pseudo; materializes any 64-bit constant).
    Li {
        /// Destination.
        rd: u8,
        /// The constant.
        imm: i64,
    },
    /// Load upper immediate.
    Lui {
        /// Destination.
        rd: u8,
        /// The 20-bit immediate (shifted left 12).
        imm: i64,
    },
    /// Register-register ALU op.
    Op {
        /// Operation.
        op: IntOp,
        /// Destination.
        rd: u8,
        /// First source.
        rs1: u8,
        /// Second source.
        rs2: u8,
    },
    /// Register-immediate ALU op.
    OpImm {
        /// Operation (Sub not allowed; use negative Add immediate).
        op: IntOp,
        /// Destination.
        rd: u8,
        /// Source.
        rs1: u8,
        /// Immediate.
        imm: i64,
    },
    /// Scalar load.
    Load {
        /// Access width.
        width: Width,
        /// Sign-extend (false = zero-extend, the `u` forms).
        signed: bool,
        /// Destination.
        rd: u8,
        /// Base register.
        rs1: u8,
        /// Byte offset.
        offset: i64,
    },
    /// Scalar store.
    Store {
        /// Access width.
        width: Width,
        /// Source data register.
        rs2: u8,
        /// Base register.
        rs1: u8,
        /// Byte offset.
        offset: i64,
    },
    /// Conditional branch to a resolved instruction index.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First compare source.
        rs1: u8,
        /// Second compare source.
        rs2: u8,
        /// Target instruction index.
        target: usize,
    },
    /// Jump-and-link to a resolved instruction index.
    Jal {
        /// Link register (x0 for plain `j`).
        rd: u8,
        /// Target instruction index.
        target: usize,
    },
    /// Indirect jump (used by `ret`).
    Jalr {
        /// Link register.
        rd: u8,
        /// Target base register.
        rs1: u8,
        /// Byte offset added to the register (must be instruction-aligned).
        offset: i64,
    },
    /// Atomic memory operation: `rd = M[rs1]; M[rs1] = op(M[rs1], rs2)`.
    Amo {
        /// Operation.
        op: AmoOp,
        /// W or D.
        width: Width,
        /// Destination (old value).
        rd: u8,
        /// Operand register.
        rs2: u8,
        /// Address register.
        rs1: u8,
    },
    /// Memory fence (ordering only; no timing cost modeled beyond issue).
    Fence,
    /// Terminates the µthread (NDP pseudo; GPUs use `exit` similarly).
    Halt,

    // ----- scalar float -----
    /// Float load.
    FLoad {
        /// S or D.
        precision: Precision,
        /// Destination float register.
        rd: u8,
        /// Base register.
        rs1: u8,
        /// Byte offset.
        offset: i64,
    },
    /// Float store.
    FStore {
        /// S or D.
        precision: Precision,
        /// Source float register.
        rs2: u8,
        /// Base register.
        rs1: u8,
        /// Byte offset.
        offset: i64,
    },
    /// Float compute op (rs2 ignored for unary Sqrt/Exp).
    FOp {
        /// Operation.
        op: FpOp,
        /// S or D.
        precision: Precision,
        /// Destination float register.
        rd: u8,
        /// First source.
        rs1: u8,
        /// Second source.
        rs2: u8,
    },
    /// Fused multiply-add: rd = rs1 * rs2 + rs3.
    FMadd {
        /// S or D.
        precision: Precision,
        /// Destination.
        rd: u8,
        /// Multiplicand.
        rs1: u8,
        /// Multiplier.
        rs2: u8,
        /// Addend.
        rs3: u8,
    },
    /// Float comparison into an integer register.
    FCmp {
        /// Comparison.
        op: FCmpOp,
        /// S or D.
        precision: Precision,
        /// Integer destination (0/1).
        rd: u8,
        /// First source.
        rs1: u8,
        /// Second source.
        rs2: u8,
    },
    /// Integer-to-float conversion (fcvt.s.w / fcvt.d.l etc.).
    FCvtFromInt {
        /// Target precision.
        precision: Precision,
        /// Float destination.
        rd: u8,
        /// Integer source.
        rs1: u8,
        /// Treat source as signed.
        signed: bool,
    },
    /// Float-to-integer conversion (truncating).
    FCvtToInt {
        /// Source precision.
        precision: Precision,
        /// Integer destination.
        rd: u8,
        /// Float source.
        rs1: u8,
        /// Produce signed result.
        signed: bool,
    },
    /// Bit-pattern move between float and int registers (fmv.x.w etc.).
    FMvToInt {
        /// Precision (selects 32/64-bit pattern).
        precision: Precision,
        /// Integer destination.
        rd: u8,
        /// Float source.
        rs1: u8,
    },
    /// Bit-pattern move from int to float register.
    FMvFromInt {
        /// Precision.
        precision: Precision,
        /// Float destination.
        rd: u8,
        /// Integer source.
        rs1: u8,
    },
    /// Precision conversion (fcvt.d.s / fcvt.s.d).
    FCvtPrec {
        /// Destination precision.
        to: Precision,
        /// Float destination.
        rd: u8,
        /// Float source.
        rs1: u8,
    },

    // ----- vector -----
    /// vsetvli: sets vl and SEW. rd receives the granted vl.
    Vsetvli {
        /// Destination for granted vl.
        rd: u8,
        /// Requested element count (x0 = maximum).
        rs1: u8,
        /// Element width.
        sew: Sew,
    },
    /// Vector load.
    VLoad {
        /// Element width moved per element (EEW).
        eew: Sew,
        /// Destination vector register.
        vd: u8,
        /// Base address register.
        rs1: u8,
        /// Addressing mode.
        mode: VAddrMode,
        /// Execute under mask v0 (", v0.t").
        masked: bool,
    },
    /// Vector store.
    VStore {
        /// Element width.
        eew: Sew,
        /// Source vector register.
        vs3: u8,
        /// Base address register.
        rs1: u8,
        /// Addressing mode.
        mode: VAddrMode,
        /// Execute under mask v0.
        masked: bool,
    },
    /// Vector integer arithmetic.
    VIntOp {
        /// Operation.
        op: VIntOp,
        /// Destination.
        vd: u8,
        /// vs2 (first vector source).
        vs2: u8,
        /// Second operand (.vv/.vx/.vi).
        operand: VOperand,
        /// Execute under mask v0.
        masked: bool,
    },
    /// Vector float arithmetic.
    VFpOp {
        /// Operation.
        op: VFpOp,
        /// Destination (also accumulator for Macc).
        vd: u8,
        /// vs2.
        vs2: u8,
        /// Second operand (.vv/.vf).
        operand: VOperand,
        /// Execute under mask v0.
        masked: bool,
    },
    /// Vector reduction: `vd[0] = op(vs1[0], elements of vs2)`.
    VRed {
        /// Reduction.
        op: VRedOp,
        /// Destination.
        vd: u8,
        /// Reduced vector.
        vs2: u8,
        /// Scalar seed vector (element 0).
        vs1: u8,
    },
    /// Vector compare writing a mask into vd (bit per element).
    VCmp {
        /// Comparison.
        op: VCmpOp,
        /// Mask destination.
        vd: u8,
        /// vs2.
        vs2: u8,
        /// Second operand.
        operand: VOperand,
    },
    /// vmv.v.v / vmv.v.x / vmv.v.i / vfmv.v.f — splat or copy.
    VMv {
        /// Destination.
        vd: u8,
        /// Source operand.
        operand: VOperand,
    },
    /// vmv.x.s — element 0 of vs2 to integer register.
    VMvToScalar {
        /// Integer destination.
        rd: u8,
        /// Vector source.
        vs2: u8,
    },
    /// vmv.s.x — integer register to element 0 (rest unchanged).
    VMvFromScalar {
        /// Vector destination.
        vd: u8,
        /// Integer source.
        rs1: u8,
    },
    /// vfmv.f.s — element 0 of vs2 to float register.
    VFMvToScalar {
        /// Float destination.
        rd: u8,
        /// Vector source.
        vs2: u8,
    },
    /// vid.v — `vd[i] = i`.
    Vid {
        /// Destination.
        vd: u8,
        /// Execute under mask v0.
        masked: bool,
    },
    /// vmerge.vvm/vxm/vim: `vd[i] = mask[i] ? operand[i] : vs2[i]`.
    VMerge {
        /// Destination.
        vd: u8,
        /// "false" source.
        vs2: u8,
        /// "true" operand.
        operand: VOperand,
    },
    /// vslidedown.vx/vi — `vd[i] = vs2[i + offset]`.
    VSlidedown {
        /// Destination.
        vd: u8,
        /// Source.
        vs2: u8,
        /// Slide amount.
        operand: VOperand,
    },
    /// Vector AMO (\[12\]): per-element atomic op at base + index.
    VAmo {
        /// The atomic operation.
        op: AmoOp,
        /// Element width of the memory values.
        eew: Sew,
        /// Source/old-value register (written back with old values).
        vd: u8,
        /// Base address register.
        rs1: u8,
        /// Index vector (byte offsets).
        vs2: u8,
        /// Execute under mask v0.
        masked: bool,
    },
}

impl Instr {
    /// Whether the instruction is a vector operation.
    pub fn is_vector(&self) -> bool {
        matches!(
            self,
            Instr::Vsetvli { .. }
                | Instr::VLoad { .. }
                | Instr::VStore { .. }
                | Instr::VIntOp { .. }
                | Instr::VFpOp { .. }
                | Instr::VRed { .. }
                | Instr::VCmp { .. }
                | Instr::VMv { .. }
                | Instr::VMvToScalar { .. }
                | Instr::VMvFromScalar { .. }
                | Instr::VFMvToScalar { .. }
                | Instr::Vid { .. }
                | Instr::VMerge { .. }
                | Instr::VSlidedown { .. }
                | Instr::VAmo { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_bytes() {
        assert_eq!(Width::B.bytes(), 1);
        assert_eq!(Width::D.bytes(), 8);
        assert_eq!(Sew::E32.bytes(), 4);
    }

    #[test]
    fn op_tables_list_each_variant_once_in_declaration_order() {
        fn check<T: Spelled + PartialEq + std::fmt::Debug>(discriminant: fn(T) -> usize) {
            for (i, &op) in T::ALL.iter().enumerate() {
                assert_eq!(discriminant(op), i, "{op:?} out of declaration order");
                assert_eq!(T::from_spelling(op.spelling()), Some(op), "{op:?}");
            }
        }
        check::<IntOp>(|op| op as usize);
        check::<BranchCond>(|op| op as usize);
        check::<Width>(|op| op as usize);
        check::<AmoOp>(|op| op as usize);
        check::<Precision>(|op| op as usize);
        check::<FpOp>(|op| op as usize);
        check::<FCmpOp>(|op| op as usize);
        check::<Sew>(|op| op as usize);
        check::<VIntOp>(|op| op as usize);
        check::<VFpOp>(|op| op as usize);
        check::<VRedOp>(|op| op as usize);
        check::<VCmpOp>(|op| op as usize);
    }

    #[test]
    fn muldiv_classification() {
        assert!(IntOp::Mul.is_muldiv());
        assert!(IntOp::Rem.is_muldiv());
        assert!(!IntOp::Add.is_muldiv());
    }

    #[test]
    fn classification_helpers() {
        let ld = Instr::Load {
            width: Width::D,
            signed: true,
            rd: 1,
            rs1: 2,
            offset: 0,
        };
        assert!(!ld.is_vector());
        let v = Instr::Vid {
            vd: 1,
            masked: false,
        };
        assert!(v.is_vector());
    }
}
