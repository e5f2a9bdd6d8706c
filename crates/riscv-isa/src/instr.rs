//! Instruction definitions for RV64IM plus the RoCC custom opcodes.

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
    pub(crate) fn funct3(self) -> u32 {
        match self {
            BranchOp::Beq => 0b000,
            BranchOp::Bne => 0b001,
            BranchOp::Blt => 0b100,
            BranchOp::Bge => 0b101,
            BranchOp::Bltu => 0b110,
            BranchOp::Bgeu => 0b111,
        }
    }

    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            BranchOp::Beq => "beq",
            BranchOp::Bne => "bne",
            BranchOp::Blt => "blt",
            BranchOp::Bge => "bge",
            BranchOp::Bltu => "bltu",
            BranchOp::Bgeu => "bgeu",
        }
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
    pub(crate) fn funct3(self) -> u32 {
        match self {
            LoadOp::Lb => 0b000,
            LoadOp::Lh => 0b001,
            LoadOp::Lw => 0b010,
            LoadOp::Ld => 0b011,
            LoadOp::Lbu => 0b100,
            LoadOp::Lhu => 0b101,
            LoadOp::Lwu => 0b110,
        }
    }

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
        match self {
            LoadOp::Lb => "lb",
            LoadOp::Lh => "lh",
            LoadOp::Lw => "lw",
            LoadOp::Ld => "ld",
            LoadOp::Lbu => "lbu",
            LoadOp::Lhu => "lhu",
            LoadOp::Lwu => "lwu",
        }
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
    pub(crate) fn funct3(self) -> u32 {
        match self {
            StoreOp::Sb => 0b000,
            StoreOp::Sh => 0b001,
            StoreOp::Sw => 0b010,
            StoreOp::Sd => 0b011,
        }
    }

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
        match self {
            StoreOp::Sb => "sb",
            StoreOp::Sh => "sh",
            StoreOp::Sw => "sw",
            StoreOp::Sd => "sd",
        }
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
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            OpImmOp::Addi => "addi",
            OpImmOp::Slti => "slti",
            OpImmOp::Sltiu => "sltiu",
            OpImmOp::Xori => "xori",
            OpImmOp::Ori => "ori",
            OpImmOp::Andi => "andi",
            OpImmOp::Slli => "slli",
            OpImmOp::Srli => "srli",
            OpImmOp::Srai => "srai",
        }
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
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            OpImm32Op::Addiw => "addiw",
            OpImm32Op::Slliw => "slliw",
            OpImm32Op::Srliw => "srliw",
            OpImm32Op::Sraiw => "sraiw",
        }
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
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            OpOp::Add => "add",
            OpOp::Sub => "sub",
            OpOp::Sll => "sll",
            OpOp::Slt => "slt",
            OpOp::Sltu => "sltu",
            OpOp::Xor => "xor",
            OpOp::Srl => "srl",
            OpOp::Sra => "sra",
            OpOp::Or => "or",
            OpOp::And => "and",
            OpOp::Mul => "mul",
            OpOp::Mulh => "mulh",
            OpOp::Mulhsu => "mulhsu",
            OpOp::Mulhu => "mulhu",
            OpOp::Div => "div",
            OpOp::Divu => "divu",
            OpOp::Rem => "rem",
            OpOp::Remu => "remu",
        }
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
    pub(crate) fn mnemonic(self) -> &'static str {
        match self {
            Op32Op::Addw => "addw",
            Op32Op::Subw => "subw",
            Op32Op::Sllw => "sllw",
            Op32Op::Srlw => "srlw",
            Op32Op::Sraw => "sraw",
            Op32Op::Mulw => "mulw",
            Op32Op::Divw => "divw",
            Op32Op::Divuw => "divuw",
            Op32Op::Remw => "remw",
            Op32Op::Remuw => "remuw",
        }
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
    pub(crate) fn funct3(self, imm_form: bool) -> u32 {
        let base = match self {
            CsrOp::Csrrw => 0b001,
            CsrOp::Csrrs => 0b010,
            CsrOp::Csrrc => 0b011,
        };
        if imm_form {
            base | 0b100
        } else {
            base
        }
    }

    pub(crate) fn mnemonic(self, imm_form: bool) -> &'static str {
        match (self, imm_form) {
            (CsrOp::Csrrw, false) => "csrrw",
            (CsrOp::Csrrs, false) => "csrrs",
            (CsrOp::Csrrc, false) => "csrrc",
            (CsrOp::Csrrw, true) => "csrrwi",
            (CsrOp::Csrrs, true) => "csrrsi",
            (CsrOp::Csrrc, true) => "csrrci",
        }
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

    #[test]
    fn load_store_sizes() {
        assert_eq!(LoadOp::Lb.size(), 1);
        assert_eq!(LoadOp::Lwu.size(), 4);
        assert_eq!(StoreOp::Sd.size(), 8);
    }
}
