//! Instruction encoding to 32-bit words.

use std::fmt;

use crate::instr::{BranchOp, CsrOp, Instr, LoadOp, Op32Op, OpImm32Op, OpImmOp, OpOp, StoreOp};
use crate::Reg;

/// Errors produced when an instruction's fields do not fit its encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EncodeError {
    /// An immediate does not fit the field width or alignment.
    ImmediateOutOfRange {
        /// Which instruction field.
        what: &'static str,
        /// The offending value.
        value: i64,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EncodeError::ImmediateOutOfRange { what, value } => {
                write!(f, "{what} immediate {value} out of range")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Returns `bits` if `ok`, else the out-of-range error for `what`.
fn fits(ok: bool, what: &'static str, v: impl Into<i64>, bits: u32) -> Result<u32, EncodeError> {
    if ok {
        Ok(bits)
    } else {
        Err(EncodeError::ImmediateOutOfRange { what, value: v.into() })
    }
}

fn check_i12(what: &'static str, v: i32) -> Result<u32, EncodeError> {
    fits((-2048..=2047).contains(&v), what, v, (v as u32) & 0xFFF)
}

/// A `lui`/`auipc` immediate: 20 bits, signed or unsigned.
fn check_u20(what: &'static str, v: i32) -> Result<u32, EncodeError> {
    let ok = (-(1 << 19)..(1 << 19)).contains(&v) || v as u32 <= 0xFFFFF;
    fits(ok, what, v, ((v as u32) & 0xFFFFF) << 12)
}

/// An immediate-form shift's low 12 bits: `top` (bits 31:26 or 31:25) over
/// a shift amount below `limit`.
fn shift_imm(top: u32, limit: i32, shamt: i32) -> Result<u32, EncodeError> {
    let width = limit.trailing_zeros();
    fits((0..limit).contains(&shamt), "shift amount", shamt, (top << width) | shamt as u32)
}

fn r_type(funct7: u32, rs2: Reg, rs1: Reg, funct3: u32, rd: Reg, opcode: u32) -> u32 {
    (funct7 << 25)
        | (u32::from(rs2) << 20)
        | (u32::from(rs1) << 15)
        | (funct3 << 12)
        | (u32::from(rd) << 7)
        | opcode
}

fn i_type(imm12: u32, rs1: Reg, funct3: u32, rd: Reg, opcode: u32) -> u32 {
    (imm12 << 20) | (u32::from(rs1) << 15) | (funct3 << 12) | (u32::from(rd) << 7) | opcode
}

impl Instr {
    /// Encodes into the 32-bit instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] when an immediate does not fit its field
    /// (e.g. a branch offset beyond ±4 KiB, a misaligned jump target, a
    /// CSR number above `0xFFF` or a RoCC funct7 above 127).
    pub fn encode(&self) -> Result<u32, EncodeError> {
        Ok(match *self {
            Instr::Lui { rd, imm20 } => check_u20("lui", imm20)? | (u32::from(rd) << 7) | 0b0110111,
            Instr::Auipc { rd, imm20 } => {
                check_u20("auipc", imm20)? | (u32::from(rd) << 7) | 0b0010111
            }
            Instr::Jal { rd, offset } => {
                let ok = offset % 2 == 0 && (-(1 << 20)..(1 << 20)).contains(&offset);
                let imm = fits(ok, "jal", offset, offset as u32)?;
                let bit20 = (imm >> 20) & 1;
                let bits10_1 = (imm >> 1) & 0x3FF;
                let bit11 = (imm >> 11) & 1;
                let bits19_12 = (imm >> 12) & 0xFF;
                (bit20 << 31)
                    | (bits10_1 << 21)
                    | (bit11 << 20)
                    | (bits19_12 << 12)
                    | (u32::from(rd) << 7)
                    | 0b1101111
            }
            Instr::Jalr { rd, rs1, offset } => {
                i_type(check_i12("jalr", offset)?, rs1, 0b000, rd, 0b1100111)
            }
            Instr::Branch { op, rs1, rs2, offset } => {
                let ok = offset % 2 == 0 && (-(1 << 12)..(1 << 12)).contains(&offset);
                let imm = fits(ok, "branch", offset, offset as u32)?;
                let bit12 = (imm >> 12) & 1;
                let bits10_5 = (imm >> 5) & 0x3F;
                let bits4_1 = (imm >> 1) & 0xF;
                let bit11 = (imm >> 11) & 1;
                (bit12 << 31)
                    | (bits10_5 << 25)
                    | (u32::from(rs2) << 20)
                    | (u32::from(rs1) << 15)
                    | (BranchOp::TABLE[op as usize].2 << 12)
                    | (bits4_1 << 8)
                    | (bit11 << 7)
                    | 0b1100011
            }
            Instr::Load { op, rd, rs1, offset } => {
                let funct3 = LoadOp::TABLE[op as usize].2;
                i_type(check_i12("load", offset)?, rs1, funct3, rd, 0b0000011)
            }
            Instr::Store { op, rs2, rs1, offset } => {
                let imm = check_i12("store", offset)?;
                ((imm >> 5) << 25)
                    | (u32::from(rs2) << 20)
                    | (u32::from(rs1) << 15)
                    | (StoreOp::TABLE[op as usize].2 << 12)
                    | ((imm & 0x1F) << 7)
                    | 0b0100011
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let (_, name, funct3, top) = OpImmOp::TABLE[op as usize];
                let imm12 = match top {
                    Some(top) => shift_imm(top, 64, imm)?,
                    None => check_i12(name, imm)?,
                };
                i_type(imm12, rs1, funct3, rd, 0b0010011)
            }
            Instr::OpImm32 { op, rd, rs1, imm } => {
                let (_, name, funct3, funct7) = OpImm32Op::TABLE[op as usize];
                let imm12 = match funct7 {
                    Some(funct7) => shift_imm(funct7, 32, imm)?,
                    None => check_i12(name, imm)?,
                };
                i_type(imm12, rs1, funct3, rd, 0b0011011)
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let (_, _, funct3, funct7) = OpOp::TABLE[op as usize];
                r_type(funct7, rs2, rs1, funct3, rd, 0b0110011)
            }
            Instr::Op32 { op, rd, rs1, rs2 } => {
                let (_, _, funct3, funct7) = Op32Op::TABLE[op as usize];
                r_type(funct7, rs2, rs1, funct3, rd, 0b0111011)
            }
            Instr::Fence => 0x0FF0_000F,
            Instr::Ecall => 0x0000_0073,
            Instr::Ebreak => 0x0010_0073,
            Instr::Mret => 0x3020_0073,
            Instr::Csr { op, rd, csr, rs1 } => {
                let csr = fits(csr <= 0xFFF, "csr number", csr, u32::from(csr))?;
                i_type(csr, rs1, CsrOp::TABLE[op as usize].2, rd, 0b1110011)
            }
            Instr::CsrImm { op, rd, csr, imm } => {
                let csr = fits(csr <= 0xFFF, "csr number", csr, u32::from(csr))?;
                let imm = fits(imm < 32, "csr immediate", imm, u32::from(imm))?;
                (csr << 20)
                    | (imm << 15)
                    | ((CsrOp::TABLE[op as usize].2 | 0b100) << 12)
                    | (u32::from(rd) << 7)
                    | 0b1110011
            }
            Instr::Custom(rocc) => {
                fits(rocc.funct7 < 0x80, "funct7", rocc.funct7, 0)?;
                rocc.encode()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_encodings() {
        // Cross-checked against the RISC-V spec / binutils output.
        let cases: Vec<(Instr, u32)> = vec![
            (Instr::NOP, 0x0000_0013),
            (
                Instr::OpImm {
                    op: OpImmOp::Addi,
                    rd: Reg::A0,
                    rs1: Reg::A0,
                    imm: 1,
                },
                0x0015_0513,
            ),
            (
                Instr::Op {
                    op: OpOp::Add,
                    rd: Reg::A0,
                    rs1: Reg::A1,
                    rs2: Reg::A2,
                },
                0x00C5_8533,
            ),
            (
                Instr::Lui {
                    rd: Reg::T0,
                    imm20: 0x12345,
                },
                0x1234_52B7,
            ),
            (
                Instr::Jal {
                    rd: Reg::RA,
                    offset: 8,
                },
                0x0080_00EF,
            ),
            (
                Instr::Load {
                    op: LoadOp::Ld,
                    rd: Reg::A0,
                    rs1: Reg::SP,
                    offset: 16,
                },
                0x0101_3503,
            ),
            (
                Instr::Store {
                    op: StoreOp::Sd,
                    rs2: Reg::A0,
                    rs1: Reg::SP,
                    offset: 16,
                },
                0x00A1_3823,
            ),
            (
                Instr::Branch {
                    op: BranchOp::Bne,
                    rs1: Reg::A0,
                    rs2: Reg::ZERO,
                    offset: -4,
                },
                0xFE05_1EE3,
            ),
            (Instr::Ecall, 0x0000_0073),
            (Instr::Ebreak, 0x0010_0073),
            (Instr::Mret, 0x3020_0073),
            (
                // rdcycle a0 == csrrs a0, cycle, x0
                Instr::Csr {
                    op: CsrOp::Csrrs,
                    rd: Reg::A0,
                    csr: 0xC00,
                    rs1: Reg::ZERO,
                },
                0xC000_2573,
            ),
            (
                Instr::Op {
                    op: OpOp::Mul,
                    rd: Reg::A3,
                    rs1: Reg::A4,
                    rs2: Reg::A5,
                },
                0x02F7_06B3,
            ),
        ];
        for (instr, expected) in cases {
            assert_eq!(instr.encode().unwrap(), expected, "{instr}");
        }
    }

    #[test]
    fn branch_range_checked() {
        let b = Instr::Branch {
            op: BranchOp::Beq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: 5000,
        };
        assert!(b.encode().is_err());
        let odd = Instr::Branch {
            op: BranchOp::Beq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: 3,
        };
        assert!(odd.encode().is_err());
    }

    #[test]
    fn addi_range_checked() {
        let i = Instr::OpImm {
            op: OpImmOp::Addi,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 2048,
        };
        assert!(i.encode().is_err());
        let j = Instr::OpImm {
            op: OpImmOp::Addi,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: -2048,
        };
        assert!(j.encode().is_ok());
    }

    #[test]
    fn auipc_immediate_is_range_checked_like_lui() {
        let edges = [(0x100000, false), (0xFFFFF, true), (-(1 << 19), true), (-(1 << 19) - 1, false)];
        for (imm20, ok) in edges {
            assert_eq!(Instr::Auipc { rd: Reg::A0, imm20 }.encode().is_ok(), ok, "{imm20:#x}");
            assert_eq!(Instr::Lui { rd: Reg::A0, imm20 }.encode().is_ok(), ok, "{imm20:#x}");
        }
        let err = Instr::Auipc { rd: Reg::A0, imm20: 0x100000 }.encode();
        assert_eq!(err, Err(EncodeError::ImmediateOutOfRange { what: "auipc", value: 0x100000 }));
    }

    #[test]
    fn csr_number_is_range_checked() {
        let err = Err(EncodeError::ImmediateOutOfRange { what: "csr number", value: 0x1305 });
        let (op, rd) = (CsrOp::Csrrw, Reg::ZERO);
        assert_eq!(Instr::Csr { op, rd, csr: 0x1305, rs1: Reg::T0 }.encode(), err);
        assert_eq!(Instr::CsrImm { op, rd, csr: 0x1305, imm: 1 }.encode(), err);
        assert!(Instr::Csr { op, rd, csr: 0xFFF, rs1: Reg::T0 }.encode().is_ok());
        assert!(Instr::CsrImm { op, rd, csr: 0xFFF, imm: 31 }.encode().is_ok());
    }

    #[test]
    fn oversized_rocc_funct7_is_an_error() {
        use crate::rocc::{CustomOpcode, RoccInstruction};
        let rocc = |funct7| {
            let a0 = Reg::A0;
            Instr::Custom(RoccInstruction::reg_reg(CustomOpcode::Custom0, funct7, a0, a0, a0)).encode()
        };
        for funct7 in [0x80, 200] {
            let err = EncodeError::ImmediateOutOfRange { what: "funct7", value: funct7.into() };
            assert_eq!(rocc(funct7), Err(err));
        }
        assert!(rocc(0x7F).is_ok());
    }

    #[test]
    fn shift_amount_checked() {
        let i = Instr::OpImm {
            op: OpImmOp::Slli,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 64,
        };
        assert!(i.encode().is_err());
        let w = Instr::OpImm32 {
            op: OpImm32Op::Slliw,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: 32,
        };
        assert!(w.encode().is_err());
    }
}
