//! Instruction definitions for RV64IM plus the RoCC custom opcodes.
//!
//! Each operation family's `TABLE` is the one place its ops' mnemonics and
//! funct bits are written: one row per variant, in declaration order, so
//! `TABLE[op as usize]` is `op`'s row. The encoder, decoder, `Display` and
//! the assembler all read the rows.

use std::fmt;

use crate::alu::MulDiv;
use crate::rocc::RoccInstruction;
use crate::Reg;

/// Conditional branch comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// Branch if equal.
    Beq,
    /// Branch if not equal.
    Bne,
    /// Branch if less than (signed).
    Blt,
    /// Branch if greater or equal (signed).
    Bge,
    /// Branch if less than (unsigned).
    Bltu,
    /// Branch if greater or equal (unsigned).
    Bgeu,
}

impl BranchOp {
    /// `(op, mnemonic, funct3)` per op, in declaration order.
    pub const TABLE: [(BranchOp, &'static str, u32); 6] = [
        (BranchOp::Beq, "beq", 0b000),
        (BranchOp::Bne, "bne", 0b001),
        (BranchOp::Blt, "blt", 0b100),
        (BranchOp::Bge, "bge", 0b101),
        (BranchOp::Bltu, "bltu", 0b110),
        (BranchOp::Bgeu, "bgeu", 0b111),
    ];

    pub(crate) fn mnemonic(self) -> &'static str {
        Self::TABLE[self as usize].1
    }
}

/// Load widths and signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// Load byte, sign-extended.
    Lb,
    /// Load halfword, sign-extended.
    Lh,
    /// Load word, sign-extended.
    Lw,
    /// Load doubleword.
    Ld,
    /// Load byte, zero-extended.
    Lbu,
    /// Load halfword, zero-extended.
    Lhu,
    /// Load word, zero-extended.
    Lwu,
}

impl LoadOp {
    /// `(op, mnemonic, funct3)` per op, in declaration order.
    pub const TABLE: [(LoadOp, &'static str, u32); 7] = [
        (LoadOp::Lb, "lb", 0b000),
        (LoadOp::Lh, "lh", 0b001),
        (LoadOp::Lw, "lw", 0b010),
        (LoadOp::Ld, "ld", 0b011),
        (LoadOp::Lbu, "lbu", 0b100),
        (LoadOp::Lhu, "lhu", 0b101),
        (LoadOp::Lwu, "lwu", 0b110),
    ];

    /// Access size in bytes.
    #[must_use]
    pub fn size(self) -> u64 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw | LoadOp::Lwu => 4,
            LoadOp::Ld => 8,
        }
    }

    pub(crate) fn mnemonic(self) -> &'static str {
        Self::TABLE[self as usize].1
    }
}

/// Store widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// Store byte.
    Sb,
    /// Store halfword.
    Sh,
    /// Store word.
    Sw,
    /// Store doubleword.
    Sd,
}

impl StoreOp {
    /// `(op, mnemonic, funct3)` per op, in declaration order.
    pub const TABLE: [(StoreOp, &'static str, u32); 4] = [
        (StoreOp::Sb, "sb", 0b000),
        (StoreOp::Sh, "sh", 0b001),
        (StoreOp::Sw, "sw", 0b010),
        (StoreOp::Sd, "sd", 0b011),
    ];

    /// Access size in bytes.
    #[must_use]
    pub fn size(self) -> u64 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
            StoreOp::Sd => 8,
        }
    }

    pub(crate) fn mnemonic(self) -> &'static str {
        Self::TABLE[self as usize].1
    }
}

/// Register-immediate ALU operations (OP-IMM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpImmOp {
    /// Add immediate.
    Addi,
    /// Set if less than immediate (signed).
    Slti,
    /// Set if less than immediate (unsigned).
    Sltiu,
    /// XOR immediate.
    Xori,
    /// OR immediate.
    Ori,
    /// AND immediate.
    Andi,
    /// Shift left logical immediate (6-bit shamt).
    Slli,
    /// Shift right logical immediate.
    Srli,
    /// Shift right arithmetic immediate.
    Srai,
}

impl OpImmOp {
    /// `(op, mnemonic, funct3, bits 31:26)` per op, in declaration order.
    /// The shifts fix bits 31:26 and take a 6-bit shamt below them; the
    /// other ops (`None`) take a 12-bit immediate there.
    pub const TABLE: [(OpImmOp, &'static str, u32, Option<u32>); 9] = [
        (OpImmOp::Addi, "addi", 0b000, None),
        (OpImmOp::Slti, "slti", 0b010, None),
        (OpImmOp::Sltiu, "sltiu", 0b011, None),
        (OpImmOp::Xori, "xori", 0b100, None),
        (OpImmOp::Ori, "ori", 0b110, None),
        (OpImmOp::Andi, "andi", 0b111, None),
        (OpImmOp::Slli, "slli", 0b001, Some(0b000000)),
        (OpImmOp::Srli, "srli", 0b101, Some(0b000000)),
        (OpImmOp::Srai, "srai", 0b101, Some(0b010000)),
    ];

    pub(crate) fn mnemonic(self) -> &'static str {
        Self::TABLE[self as usize].1
    }
}

/// 32-bit register-immediate ALU operations (OP-IMM-32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpImm32Op {
    /// Add word immediate.
    Addiw,
    /// Shift left logical word immediate (5-bit shamt).
    Slliw,
    /// Shift right logical word immediate.
    Srliw,
    /// Shift right arithmetic word immediate.
    Sraiw,
}

impl OpImm32Op {
    /// `(op, mnemonic, funct3, funct7)` per op, in declaration order. The
    /// shifts fix funct7 and take a 5-bit shamt below it; `addiw` (`None`)
    /// takes a 12-bit immediate there.
    pub const TABLE: [(OpImm32Op, &'static str, u32, Option<u32>); 4] = [
        (OpImm32Op::Addiw, "addiw", 0b000, None),
        (OpImm32Op::Slliw, "slliw", 0b001, Some(0b0000000)),
        (OpImm32Op::Srliw, "srliw", 0b101, Some(0b0000000)),
        (OpImm32Op::Sraiw, "sraiw", 0b101, Some(0b0100000)),
    ];

    pub(crate) fn mnemonic(self) -> &'static str {
        Self::TABLE[self as usize].1
    }
}

/// Register-register ALU operations (OP), including the M extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Shift left logical.
    Sll,
    /// Set if less than (signed).
    Slt,
    /// Set if less than (unsigned).
    Sltu,
    /// Exclusive or.
    Xor,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Inclusive or.
    Or,
    /// Bitwise and.
    And,
    /// Multiply (low 64 bits).
    Mul,
    /// Multiply high, signed × signed.
    Mulh,
    /// Multiply high, signed × unsigned.
    Mulhsu,
    /// Multiply high, unsigned × unsigned.
    Mulhu,
    /// Divide, signed.
    Div,
    /// Divide, unsigned.
    Divu,
    /// Remainder, signed.
    Rem,
    /// Remainder, unsigned.
    Remu,
}

impl OpOp {
    /// `(op, mnemonic, funct3, funct7)` per op, in declaration order.
    pub const TABLE: [(OpOp, &'static str, u32, u32); 18] = [
        (OpOp::Add, "add", 0b000, 0b0000000),
        (OpOp::Sub, "sub", 0b000, 0b0100000),
        (OpOp::Sll, "sll", 0b001, 0b0000000),
        (OpOp::Slt, "slt", 0b010, 0b0000000),
        (OpOp::Sltu, "sltu", 0b011, 0b0000000),
        (OpOp::Xor, "xor", 0b100, 0b0000000),
        (OpOp::Srl, "srl", 0b101, 0b0000000),
        (OpOp::Sra, "sra", 0b101, 0b0100000),
        (OpOp::Or, "or", 0b110, 0b0000000),
        (OpOp::And, "and", 0b111, 0b0000000),
        (OpOp::Mul, "mul", 0b000, 0b0000001),
        (OpOp::Mulh, "mulh", 0b001, 0b0000001),
        (OpOp::Mulhsu, "mulhsu", 0b010, 0b0000001),
        (OpOp::Mulhu, "mulhu", 0b011, 0b0000001),
        (OpOp::Div, "div", 0b100, 0b0000001),
        (OpOp::Divu, "divu", 0b101, 0b0000001),
        (OpOp::Rem, "rem", 0b110, 0b0000001),
        (OpOp::Remu, "remu", 0b111, 0b0000001),
    ];

    pub(crate) fn mnemonic(self) -> &'static str {
        Self::TABLE[self as usize].1
    }
}

/// 32-bit register-register ALU operations (OP-32), including M.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op32Op {
    /// Add word.
    Addw,
    /// Subtract word.
    Subw,
    /// Shift left logical word.
    Sllw,
    /// Shift right logical word.
    Srlw,
    /// Shift right arithmetic word.
    Sraw,
    /// Multiply word.
    Mulw,
    /// Divide word, signed.
    Divw,
    /// Divide word, unsigned.
    Divuw,
    /// Remainder word, signed.
    Remw,
    /// Remainder word, unsigned.
    Remuw,
}

impl Op32Op {
    /// `(op, mnemonic, funct3, funct7)` per op, in declaration order.
    pub const TABLE: [(Op32Op, &'static str, u32, u32); 10] = [
        (Op32Op::Addw, "addw", 0b000, 0b0000000),
        (Op32Op::Subw, "subw", 0b000, 0b0100000),
        (Op32Op::Sllw, "sllw", 0b001, 0b0000000),
        (Op32Op::Srlw, "srlw", 0b101, 0b0000000),
        (Op32Op::Sraw, "sraw", 0b101, 0b0100000),
        (Op32Op::Mulw, "mulw", 0b000, 0b0000001),
        (Op32Op::Divw, "divw", 0b100, 0b0000001),
        (Op32Op::Divuw, "divuw", 0b101, 0b0000001),
        (Op32Op::Remw, "remw", 0b110, 0b0000001),
        (Op32Op::Remuw, "remuw", 0b111, 0b0000001),
    ];

    pub(crate) fn mnemonic(self) -> &'static str {
        Self::TABLE[self as usize].1
    }
}

/// Zicsr operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsrOp {
    /// Atomic read/write.
    Csrrw,
    /// Atomic read and set bits.
    Csrrs,
    /// Atomic read and clear bits.
    Csrrc,
}

impl CsrOp {
    /// `(op, [register-form, immediate-form mnemonic], funct3)` per op, in
    /// declaration order. The immediate form sets funct3 bit 2.
    pub const TABLE: [(CsrOp, [&'static str; 2], u32); 3] = [
        (CsrOp::Csrrw, ["csrrw", "csrrwi"], 0b001),
        (CsrOp::Csrrs, ["csrrs", "csrrsi"], 0b010),
        (CsrOp::Csrrc, ["csrrc", "csrrci"], 0b011),
    ];

    pub(crate) fn mnemonic(self, imm_form: bool) -> &'static str {
        Self::TABLE[self as usize].1[usize::from(imm_form)]
    }
}

/// A decoded RV64IM (plus RoCC custom) instruction.
///
/// Immediates hold their semantic, sign-extended values: branch and jump
/// offsets are byte offsets from the instruction's own address, and `Lui`
/// holds the raw 20-bit immediate (the value placed in bits 31:12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field meanings are standard RISC-V
pub enum Instr {
    /// Load upper immediate: `rd = sign_extend(imm20 << 12)`.
    Lui { rd: Reg, imm20: i32 },
    /// Add upper immediate to PC.
    Auipc { rd: Reg, imm20: i32 },
    /// Jump and link.
    Jal { rd: Reg, offset: i32 },
    /// Jump and link register.
    Jalr { rd: Reg, rs1: Reg, offset: i32 },
    /// Conditional branch.
    Branch { op: BranchOp, rs1: Reg, rs2: Reg, offset: i32 },
    /// Memory load.
    Load { op: LoadOp, rd: Reg, rs1: Reg, offset: i32 },
    /// Memory store.
    Store { op: StoreOp, rs2: Reg, rs1: Reg, offset: i32 },
    /// Register-immediate ALU operation.
    OpImm { op: OpImmOp, rd: Reg, rs1: Reg, imm: i32 },
    /// 32-bit register-immediate ALU operation.
    OpImm32 { op: OpImm32Op, rd: Reg, rs1: Reg, imm: i32 },
    /// Register-register ALU operation.
    Op { op: OpOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// 32-bit register-register ALU operation.
    Op32 { op: Op32Op, rd: Reg, rs1: Reg, rs2: Reg },
    /// Memory ordering fence (a no-op in the in-order models).
    Fence,
    /// Environment call.
    Ecall,
    /// Breakpoint.
    Ebreak,
    /// Machine trap return (`mret`): jumps to `mepc`.
    Mret,
    /// CSR access, register form.
    Csr { op: CsrOp, rd: Reg, csr: u16, rs1: Reg },
    /// CSR access, immediate form (5-bit zero-extended immediate).
    CsrImm { op: CsrOp, rd: Reg, csr: u16, imm: u8 },
    /// A RoCC custom instruction (custom-0..custom-3).
    Custom(RoccInstruction),
}

impl Instr {
    /// A canonical no-op (`addi x0, x0, 0`).
    pub const NOP: Instr = Instr::OpImm {
        op: OpImmOp::Addi,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        imm: 0,
    };

    /// True if this instruction can change control flow.
    #[must_use]
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Branch { .. }
        )
    }

    /// True for the conventional return: `jalr zero, 0(ra)`.
    #[must_use]
    pub fn is_return(&self) -> bool {
        matches!(
            *self,
            Instr::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                offset: 0,
            }
        )
    }

    /// The destination register, if the instruction writes one.
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        let rd = match *self {
            Instr::Lui { rd, .. }
            | Instr::Auipc { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::OpImm { rd, .. }
            | Instr::OpImm32 { rd, .. }
            | Instr::Op { rd, .. }
            | Instr::Op32 { rd, .. }
            | Instr::Csr { rd, .. }
            | Instr::CsrImm { rd, .. } => rd,
            Instr::Custom(rocc) if rocc.xd => rocc.rd,
            _ => return None,
        };
        (rd != Reg::ZERO).then_some(rd)
    }

    /// Source registers read by this instruction (up to two).
    #[must_use]
    pub fn sources(&self) -> [Option<Reg>; 2] {
        match *self {
            Instr::Jalr { rs1, .. }
            | Instr::Load { rs1, .. }
            | Instr::OpImm { rs1, .. }
            | Instr::OpImm32 { rs1, .. }
            | Instr::Csr { rs1, .. } => [Some(rs1), None],
            Instr::Branch { rs1, rs2, .. }
            | Instr::Store { rs2, rs1, .. }
            | Instr::Op { rs1, rs2, .. }
            | Instr::Op32 { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
            Instr::Custom(rocc) => [
                rocc.xs1.then_some(rocc.rs1),
                rocc.xs2.then_some(rocc.rs2),
            ],
            _ => [None, None],
        }
    }

    /// The operand and latency facts a timing model charges by, derived
    /// from [`Instr::sources`], [`Instr::dest`] and [`Instr::muldiv`] so a
    /// core can compute them once per decoded instruction.
    #[must_use]
    pub fn operand_facts(&self) -> OperandFacts {
        OperandFacts {
            sources: self.sources().map(|src| src.map_or(0, Reg::number)),
            dest: self.dest().map_or(0, Reg::number),
            muldiv: self.muldiv(),
        }
    }
}

/// What a timing model needs to know about one instruction, fixed at
/// decode: see [`Instr::operand_facts`]. Four bytes, so a decoded
/// instruction and its facts fill 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperandFacts {
    sources: [u8; 2],
    /// The destination's number, 0 for none: no instruction writes `x0`.
    dest: u8,
    muldiv: Option<MulDiv>,
}

impl OperandFacts {
    /// The register numbers read, with 0 for an absent operand: `x0` is
    /// never a hazard, so 0 stands for both.
    #[inline]
    #[must_use]
    pub fn sources(self) -> [u8; 2] {
        self.sources
    }

    /// The destination register, if the instruction writes one (never
    /// `x0`).
    #[inline]
    #[must_use]
    pub fn dest(self) -> Option<Reg> {
        (self.dest != 0).then_some(Reg::from_number(self.dest))
    }

    /// The M-extension unit the instruction occupies, if any.
    #[inline]
    #[must_use]
    pub fn muldiv(self) -> Option<MulDiv> {
        self.muldiv
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Lui { rd, imm20 } => write!(f, "lui {rd}, {:#x}", imm20 & 0xFFFFF),
            Instr::Auipc { rd, imm20 } => write!(f, "auipc {rd}, {:#x}", imm20 & 0xFFFFF),
            Instr::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Instr::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Instr::Branch { op, rs1, rs2, offset } => {
                write!(f, "{} {rs1}, {rs2}, {offset}", op.mnemonic())
            }
            Instr::Load { op, rd, rs1, offset } => {
                write!(f, "{} {rd}, {offset}({rs1})", op.mnemonic())
            }
            Instr::Store { op, rs2, rs1, offset } => {
                write!(f, "{} {rs2}, {offset}({rs1})", op.mnemonic())
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                write!(f, "{} {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Instr::OpImm32 { op, rd, rs1, imm } => {
                write!(f, "{} {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instr::Op32 { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Instr::Fence => write!(f, "fence"),
            Instr::Ecall => write!(f, "ecall"),
            Instr::Ebreak => write!(f, "ebreak"),
            Instr::Mret => write!(f, "mret"),
            Instr::Csr { op, rd, csr, rs1 } => {
                write!(f, "{} {rd}, {:#x}, {rs1}", op.mnemonic(false), csr)
            }
            Instr::CsrImm { op, rd, csr, imm } => {
                write!(f, "{} {rd}, {:#x}, {imm}", op.mnemonic(true), csr)
            }
            Instr::Custom(rocc) => write!(f, "{rocc}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_shape() {
        assert_eq!(Instr::NOP.dest(), None);
        assert_eq!(Instr::NOP.sources(), [Some(Reg::ZERO), None]);
        assert!(!Instr::NOP.is_control_flow());
    }

    #[test]
    fn operand_facts_follow_sources_dest_and_muldiv() {
        let facts = |instr: Instr| {
            let facts = instr.operand_facts();
            (facts.sources(), facts.dest(), facts.muldiv())
        };
        let mul = Instr::Op { op: OpOp::Mulhu, rd: Reg::T6, rs1: Reg::A1, rs2: Reg::ZERO };
        assert_eq!(facts(mul), ([11, 0], Some(Reg::T6), Some(MulDiv::Mul)));
        let store = Instr::Store { op: StoreOp::Sd, rs2: Reg::T1, rs1: Reg::SP, offset: 8 };
        assert_eq!(facts(store), ([2, 6], None, None));
        let rem = Instr::Op32 { op: Op32Op::Remuw, rd: Reg::ZERO, rs1: Reg::T0, rs2: Reg::T1 };
        assert_eq!(facts(rem), ([5, 6], None, Some(MulDiv::Div)));
        assert_eq!(facts(Instr::Ecall), ([0, 0], None, None));
        assert_eq!(std::mem::size_of::<OperandFacts>(), 4);
    }

    #[test]
    fn dest_hides_x0() {
        let i = Instr::Op {
            op: OpOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::A0,
            rs2: Reg::A1,
        };
        assert_eq!(i.dest(), None);
        let j = Instr::Op {
            op: OpOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(j.dest(), Some(Reg::A0));
    }

    #[test]
    fn display_forms() {
        let i = Instr::Load {
            op: LoadOp::Ld,
            rd: Reg::A0,
            rs1: Reg::SP,
            offset: 16,
        };
        assert_eq!(i.to_string(), "ld a0, 16(sp)");
        let b = Instr::Branch {
            op: BranchOp::Bne,
            rs1: Reg::A0,
            rs2: Reg::ZERO,
            offset: -8,
        };
        assert_eq!(b.to_string(), "bne a0, zero, -8");
    }

    #[test]
    fn control_flow_detection() {
        assert!(Instr::Jal { rd: Reg::RA, offset: 0 }.is_control_flow());
        assert!(!Instr::Ecall.is_control_flow());
    }

    #[test]
    fn return_detection() {
        assert!(Instr::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 }.is_return());
        assert!(!Instr::Jalr { rd: Reg::ZERO, rs1: Reg::T0, offset: 0 }.is_return());
        assert!(!Instr::Jal { rd: Reg::RA, offset: 16 }.is_return());
    }

    /// `mnemonic()`, the encoder and the assembler index a family's table
    /// by `op as usize`, so it needs one row per variant in declaration
    /// order; each row spells its op as the variant's name in lower case.
    #[test]
    fn tables_have_one_row_per_variant_in_declaration_order() {
        use crate::rocc::CustomOpcode;
        macro_rules! check {
            ($family:ident, $last:ident, |$op:ident| $mnemonic:expr) => {
                assert_eq!($family::TABLE.len(), $family::$last as usize + 1);
                for (i, row) in $family::TABLE.iter().enumerate() {
                    let $op = row.0;
                    assert_eq!($op as usize, i, "{:?} is out of declaration order", $op);
                    assert_eq!($mnemonic, format!("{:?}", $op).to_lowercase());
                }
            };
        }
        check!(BranchOp, Bgeu, |op| op.mnemonic());
        check!(LoadOp, Lwu, |op| op.mnemonic());
        check!(StoreOp, Sd, |op| op.mnemonic());
        check!(OpImmOp, Srai, |op| op.mnemonic());
        check!(OpImm32Op, Sraiw, |op| op.mnemonic());
        check!(OpOp, Remu, |op| op.mnemonic());
        check!(Op32Op, Remuw, |op| op.mnemonic());
        check!(CsrOp, Csrrc, |op| op.mnemonic(false));
        check!(CustomOpcode, Custom3, |op| op.to_string());
        for (op, _, _) in CsrOp::TABLE {
            assert_eq!(op.mnemonic(true), format!("{}i", op.mnemonic(false)));
        }
    }

    #[test]
    fn load_store_sizes() {
        assert_eq!(LoadOp::Lb.size(), 1);
        assert_eq!(LoadOp::Lwu.size(), 4);
        assert_eq!(StoreOp::Sd.size(), 8);
    }
}
