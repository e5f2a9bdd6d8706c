//! RV64IM integer semantics: the one definition of what each ALU, branch
//! and M-extension operation computes, shared by the functional core, the
//! timing models' latency classes and rvlint's constant folder.
//!
//! Every function is `#[inline(always)]`: the core calls them once per
//! retired instruction from another crate, the release build has no LTO,
//! and with plain `#[inline]` the compiler kept `eval` out of line.

use crate::instr::{BranchOp, Instr, Op32Op, OpImm32Op, OpImmOp, OpOp};

/// The M-extension unit an instruction occupies, which is what the timing
/// models charge for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulDiv {
    /// The multiplier: `mul`, `mulh`, `mulhsu`, `mulhu`, `mulw`.
    Mul,
    /// The divider: `div`, `divu`, `rem`, `remu` and their word forms.
    Div,
}

impl Instr {
    /// The M-extension unit this instruction occupies, if any.
    #[inline(always)]
    #[must_use]
    pub fn muldiv(&self) -> Option<MulDiv> {
        match *self {
            Instr::Op {
                op: OpOp::Mul | OpOp::Mulh | OpOp::Mulhsu | OpOp::Mulhu,
                ..
            }
            | Instr::Op32 {
                op: Op32Op::Mulw, ..
            } => Some(MulDiv::Mul),
            Instr::Op {
                op: OpOp::Div | OpOp::Divu | OpOp::Rem | OpOp::Remu,
                ..
            }
            | Instr::Op32 {
                op: Op32Op::Divw | Op32Op::Divuw | Op32Op::Remw | Op32Op::Remuw,
                ..
            } => Some(MulDiv::Div),
            _ => None,
        }
    }
}

impl BranchOp {
    /// True if the branch is taken for operands `a` (`rs1`) and `b` (`rs2`).
    #[inline(always)]
    #[must_use]
    pub fn taken(self, a: u64, b: u64) -> bool {
        match self {
            BranchOp::Beq => a == b,
            BranchOp::Bne => a != b,
            BranchOp::Blt => (a as i64) < (b as i64),
            BranchOp::Bge => (a as i64) >= (b as i64),
            BranchOp::Bltu => a < b,
            BranchOp::Bgeu => a >= b,
        }
    }
}

impl OpImmOp {
    /// The register-register operation this one computes, with the
    /// sign-extended immediate as its second operand.
    #[inline(always)]
    #[must_use]
    pub fn alu_op(self) -> OpOp {
        match self {
            OpImmOp::Addi => OpOp::Add,
            OpImmOp::Slti => OpOp::Slt,
            OpImmOp::Sltiu => OpOp::Sltu,
            OpImmOp::Xori => OpOp::Xor,
            OpImmOp::Ori => OpOp::Or,
            OpImmOp::Andi => OpOp::And,
            OpImmOp::Slli => OpOp::Sll,
            OpImmOp::Srli => OpOp::Srl,
            OpImmOp::Srai => OpOp::Sra,
        }
    }
}

impl OpImm32Op {
    /// The word operation this one computes, with the sign-extended
    /// immediate as its second operand.
    #[inline(always)]
    #[must_use]
    pub fn alu_op(self) -> Op32Op {
        match self {
            OpImm32Op::Addiw => Op32Op::Addw,
            OpImm32Op::Slliw => Op32Op::Sllw,
            OpImm32Op::Srliw => Op32Op::Srlw,
            OpImm32Op::Sraiw => Op32Op::Sraw,
        }
    }
}

impl OpOp {
    /// The result for operands `a` (`rs1`) and `b` (`rs2`). Shift amounts
    /// are the low 6 bits of `b`; division by zero and `MIN / -1` give the
    /// RISC-V results, never a fault.
    #[inline(always)]
    #[must_use]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            OpOp::Add => a.wrapping_add(b),
            OpOp::Sub => a.wrapping_sub(b),
            OpOp::Sll => a << (b & 0x3F),
            OpOp::Slt => u64::from((a as i64) < (b as i64)),
            OpOp::Sltu => u64::from(a < b),
            OpOp::Xor => a ^ b,
            OpOp::Srl => a >> (b & 0x3F),
            OpOp::Sra => ((a as i64) >> (b & 0x3F)) as u64,
            OpOp::Or => a | b,
            OpOp::And => a & b,
            OpOp::Mul => a.wrapping_mul(b),
            OpOp::Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
            OpOp::Mulhsu => (((a as i64 as i128) * (b as u128 as i128)) >> 64) as u64,
            OpOp::Mulhu => (((a as u128) * (b as u128)) >> 64) as u64,
            OpOp::Div => {
                if b == 0 {
                    u64::MAX
                } else {
                    (a as i64).wrapping_div(b as i64) as u64
                }
            }
            OpOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            OpOp::Rem => {
                if b == 0 {
                    a
                } else {
                    (a as i64).wrapping_rem(b as i64) as u64
                }
            }
            OpOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }
}

impl Op32Op {
    /// The result for the low words of `a` (`rs1`) and `b` (`rs2`),
    /// sign-extended from 32 bits. Shift amounts are the low 5 bits of `b`;
    /// division by zero and `MIN / -1` give the RISC-V results.
    #[inline(always)]
    #[must_use]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        let (a, b) = (a as u32, b as u32);
        let word: i32 = match self {
            Op32Op::Addw => a.wrapping_add(b) as i32,
            Op32Op::Subw => a.wrapping_sub(b) as i32,
            Op32Op::Sllw => (a << (b & 0x1F)) as i32,
            Op32Op::Srlw => (a >> (b & 0x1F)) as i32,
            Op32Op::Sraw => (a as i32) >> (b & 0x1F),
            Op32Op::Mulw => a.wrapping_mul(b) as i32,
            Op32Op::Divw => {
                if b == 0 {
                    -1
                } else {
                    (a as i32).wrapping_div(b as i32)
                }
            }
            Op32Op::Divuw => a.checked_div(b).map_or(-1, |q| q as i32),
            Op32Op::Remw => {
                if b == 0 {
                    a as i32
                } else {
                    (a as i32).wrapping_rem(b as i32)
                }
            }
            Op32Op::Remuw => {
                if b == 0 {
                    a as i32
                } else {
                    (a % b) as i32
                }
            }
        };
        word as i64 as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    const MIN: u64 = i64::MIN as u64;
    const NEG1: u64 = u64::MAX;
    const WMIN: u64 = i32::MIN as i64 as u64;

    #[test]
    fn division_by_zero_follows_the_spec() {
        let x = 0x1234_5678_9ABC_DEF0;
        assert_eq!(OpOp::Div.eval(x, 0), NEG1);
        assert_eq!(OpOp::Divu.eval(x, 0), u64::MAX);
        assert_eq!(OpOp::Rem.eval(x, 0), x);
        assert_eq!(OpOp::Remu.eval(x, 0), x);
        // The W forms see the low word and sign-extend it.
        let expected_rem = 0x9ABC_DEF0u32 as i32 as i64 as u64;
        assert_eq!(Op32Op::Divw.eval(x, 0), NEG1);
        assert_eq!(Op32Op::Divuw.eval(x, 0), NEG1);
        assert_eq!(Op32Op::Remw.eval(x, 0), expected_rem);
        assert_eq!(Op32Op::Remuw.eval(x, 0), expected_rem);
        // Only the low word of the divisor counts as zero.
        assert_eq!(Op32Op::Divuw.eval(6, 1 << 32), NEG1);
    }

    #[test]
    fn signed_overflow_follows_the_spec() {
        assert_eq!(OpOp::Div.eval(MIN, NEG1), MIN);
        assert_eq!(OpOp::Rem.eval(MIN, NEG1), 0);
        assert_eq!(OpOp::Divu.eval(MIN, NEG1), 0);
        assert_eq!(OpOp::Remu.eval(MIN, NEG1), MIN);
        assert_eq!(Op32Op::Divw.eval(WMIN, NEG1), WMIN);
        assert_eq!(Op32Op::Remw.eval(WMIN, NEG1), 0);
        assert_eq!(Op32Op::Divuw.eval(WMIN, NEG1), 0);
        assert_eq!(Op32Op::Remuw.eval(WMIN, NEG1), WMIN);
    }

    #[test]
    fn shift_amounts_are_masked() {
        // OP uses the low 6 bits of rs2, OP-32 the low 5.
        assert_eq!(OpOp::Sll.eval(1, 64 + 3), 8);
        assert_eq!(OpOp::Srl.eval(MIN, 64 + 63), 1);
        assert_eq!(OpOp::Sra.eval(MIN, 64 + 63), NEG1);
        assert_eq!(Op32Op::Sllw.eval(1, 32 + 3), 8);
        assert_eq!(Op32Op::Srlw.eval(WMIN, 32 + 31), 1);
        assert_eq!(Op32Op::Sraw.eval(WMIN, 32 + 31), NEG1);
        // Through the immediate forms: `slli x, 63` and `srliw x, 31`.
        assert_eq!(OpImmOp::Slli.alu_op().eval(1, 63), MIN);
        assert_eq!(OpImm32Op::Srliw.alu_op().eval(WMIN, 31), 1);
    }

    #[test]
    fn word_results_are_sign_extended() {
        assert_eq!(Op32Op::Addw.eval(0x7FFF_FFFF, 1), WMIN);
        assert_eq!(Op32Op::Subw.eval(0, 1), NEG1);
        assert_eq!(Op32Op::Sllw.eval(1, 31), WMIN);
        assert_eq!(Op32Op::Mulw.eval(0x1_0000, 0x8000), WMIN);
        assert_eq!(Op32Op::Divuw.eval(0xFFFF_FFFE, 1), 0xFFFF_FFFF_FFFF_FFFE);
        // The upper halves of the operands are ignored.
        assert_eq!(
            Op32Op::Addw.eval(0xFFFF_FFFF_0000_0001, 0xAAAA_AAAA_0000_0002),
            3
        );
        assert_eq!(OpImm32Op::Addiw.alu_op().eval(0x7FFF_FFFF, 1), WMIN);
    }

    #[test]
    fn high_multiplies_take_the_operands_signedness() {
        assert_eq!(OpOp::Mulh.eval(NEG1, NEG1), 0);
        assert_eq!(OpOp::Mulhsu.eval(NEG1, NEG1), NEG1);
        assert_eq!(OpOp::Mulhu.eval(NEG1, NEG1), NEG1 - 1);
        assert_eq!(OpOp::Mul.eval(NEG1, NEG1), 1);
    }

    #[test]
    fn branches_compare_with_the_right_signedness() {
        assert!(BranchOp::Blt.taken(NEG1, 0));
        assert!(!BranchOp::Bltu.taken(NEG1, 0));
        assert!(BranchOp::Bgeu.taken(NEG1, 0));
        assert!(!BranchOp::Bge.taken(NEG1, 0));
        assert!(BranchOp::Beq.taken(5, 5) && BranchOp::Bne.taken(5, 6));
    }

    #[test]
    fn muldiv_classifies_every_m_extension_op() {
        let op = |op| Instr::Op {
            op,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        let op32 = |op| Instr::Op32 {
            op,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        for m in [OpOp::Mul, OpOp::Mulh, OpOp::Mulhsu, OpOp::Mulhu] {
            assert_eq!(op(m).muldiv(), Some(MulDiv::Mul));
        }
        for d in [OpOp::Div, OpOp::Divu, OpOp::Rem, OpOp::Remu] {
            assert_eq!(op(d).muldiv(), Some(MulDiv::Div));
        }
        assert_eq!(op32(Op32Op::Mulw).muldiv(), Some(MulDiv::Mul));
        for d in [Op32Op::Divw, Op32Op::Divuw, Op32Op::Remw, Op32Op::Remuw] {
            assert_eq!(op32(d).muldiv(), Some(MulDiv::Div));
        }
        assert_eq!(op(OpOp::Add).muldiv(), None);
        assert_eq!(op32(Op32Op::Addw).muldiv(), None);
        assert_eq!(Instr::NOP.muldiv(), None);
    }
}
