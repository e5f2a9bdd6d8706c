//! Instruction decoding from 32-bit words.

use std::fmt;

use crate::instr::{BranchOp, CsrOp, Instr, LoadOp, Op32Op, OpImm32Op, OpImmOp, OpOp, StoreOp};
use crate::rocc::RoccInstruction;
use crate::Reg;

/// Errors produced when a word is not a recognized RV64IM instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bit pattern matches no implemented instruction.
    Unrecognized(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::Unrecognized(w) => write!(f, "unrecognized instruction {w:#010x}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn rd(word: u32) -> Reg {
    Reg::new(((word >> 7) & 0x1F) as u8)
}

fn rs1(word: u32) -> Reg {
    Reg::new(((word >> 15) & 0x1F) as u8)
}

fn rs2(word: u32) -> Reg {
    Reg::new(((word >> 20) & 0x1F) as u8)
}

fn funct3(word: u32) -> u32 {
    (word >> 12) & 0x7
}

fn funct7(word: u32) -> u32 {
    word >> 25
}

/// Sign-extends the low `bits` bits of `v`.
fn sext(v: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((v << shift) as i32) >> shift
}

fn imm_i(word: u32) -> i32 {
    sext(word >> 20, 12)
}

fn imm_s(word: u32) -> i32 {
    sext(((word >> 25) << 5) | ((word >> 7) & 0x1F), 12)
}

fn imm_b(word: u32) -> i32 {
    let imm = (((word >> 31) & 1) << 12)
        | (((word >> 7) & 1) << 11)
        | (((word >> 25) & 0x3F) << 5)
        | (((word >> 8) & 0xF) << 1);
    sext(imm, 13)
}

fn imm_j(word: u32) -> i32 {
    let imm = (((word >> 31) & 1) << 20)
        | (((word >> 12) & 0xFF) << 12)
        | (((word >> 20) & 1) << 11)
        | (((word >> 21) & 0x3FF) << 1);
    sext(imm, 21)
}

/// The op of the `(op, mnemonic, funct3)` row with funct3 `f3`.
fn find_op<T: Copy>(table: &[(T, &'static str, u32)], f3: u32) -> Option<T> {
    table.iter().find_map(|&(op, _, funct3)| (funct3 == f3).then_some(op))
}

/// The op of the `(op, mnemonic, funct3, funct7)` row with funct3 `f3` and
/// funct7 `f7`.
fn find_r_op<T: Copy>(table: &[(T, &'static str, u32, u32)], f3: u32, f7: u32) -> Option<T> {
    table.iter().find_map(|&(op, _, funct3, funct7)| (funct3 == f3 && funct7 == f7).then_some(op))
}

impl Instr {
    /// Decodes a 32-bit instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Unrecognized`] for bit patterns outside the
    /// implemented RV64IM + Zicsr + custom-opcode subset.
    pub fn decode(word: u32) -> Result<Instr, DecodeError> {
        let opcode = word & 0x7F;
        let f3 = funct3(word);
        let unrecognized = DecodeError::Unrecognized(word);
        Ok(match opcode {
            0b0110111 => Instr::Lui {
                rd: rd(word),
                imm20: sext(word >> 12, 20),
            },
            0b0010111 => Instr::Auipc {
                rd: rd(word),
                imm20: sext(word >> 12, 20),
            },
            0b1101111 => Instr::Jal {
                rd: rd(word),
                offset: imm_j(word),
            },
            0b1100111 => {
                if f3 != 0 {
                    return Err(unrecognized);
                }
                Instr::Jalr {
                    rd: rd(word),
                    rs1: rs1(word),
                    offset: imm_i(word),
                }
            }
            0b1100011 => Instr::Branch {
                op: find_op(&BranchOp::TABLE, f3).ok_or(unrecognized)?,
                rs1: rs1(word),
                rs2: rs2(word),
                offset: imm_b(word),
            },
            0b0000011 => Instr::Load {
                op: find_op(&LoadOp::TABLE, f3).ok_or(unrecognized)?,
                rd: rd(word),
                rs1: rs1(word),
                offset: imm_i(word),
            },
            0b0100011 => Instr::Store {
                op: find_op(&StoreOp::TABLE, f3).ok_or(unrecognized)?,
                rs2: rs2(word),
                rs1: rs1(word),
                offset: imm_s(word),
            },
            0b0010011 => {
                let (op, shift) = OpImmOp::TABLE
                    .iter()
                    .find_map(|&(op, _, funct3, top)| {
                        let hit = funct3 == f3 && top.is_none_or(|top| top == word >> 26);
                        hit.then_some((op, top.is_some()))
                    })
                    .ok_or(unrecognized)?;
                let imm = if shift { ((word >> 20) & 0x3F) as i32 } else { imm_i(word) };
                Instr::OpImm { op, rd: rd(word), rs1: rs1(word), imm }
            }
            0b0011011 => {
                let (op, shift) = OpImm32Op::TABLE
                    .iter()
                    .find_map(|&(op, _, funct3, f7)| {
                        let hit = funct3 == f3 && f7.is_none_or(|f7| f7 == funct7(word));
                        hit.then_some((op, f7.is_some()))
                    })
                    .ok_or(unrecognized)?;
                let imm = if shift { ((word >> 20) & 0x1F) as i32 } else { imm_i(word) };
                Instr::OpImm32 { op, rd: rd(word), rs1: rs1(word), imm }
            }
            0b0110011 => Instr::Op {
                op: find_r_op(&OpOp::TABLE, f3, funct7(word)).ok_or(unrecognized)?,
                rd: rd(word),
                rs1: rs1(word),
                rs2: rs2(word),
            },
            0b0111011 => Instr::Op32 {
                op: find_r_op(&Op32Op::TABLE, f3, funct7(word)).ok_or(unrecognized)?,
                rd: rd(word),
                rs1: rs1(word),
                rs2: rs2(word),
            },
            0b0001111 => Instr::Fence,
            0b1110011 if f3 == 0 => match word >> 20 {
                0 if rd(word) == Reg::ZERO && rs1(word) == Reg::ZERO => Instr::Ecall,
                1 if rd(word) == Reg::ZERO && rs1(word) == Reg::ZERO => Instr::Ebreak,
                0x302 if rd(word) == Reg::ZERO && rs1(word) == Reg::ZERO => Instr::Mret,
                _ => return Err(unrecognized),
            },
            0b1110011 => {
                // funct3 bit 2 selects the immediate form.
                let op = CsrOp::TABLE
                    .iter()
                    .find_map(|&(op, _, funct3)| (funct3 == f3 & 0b011).then_some(op))
                    .ok_or(unrecognized)?;
                let (rd, csr) = (rd(word), (word >> 20) as u16);
                if f3 & 0b100 == 0 {
                    Instr::Csr { op, rd, csr, rs1: rs1(word) }
                } else {
                    Instr::CsrImm { op, rd, csr, imm: ((word >> 15) & 0x1F) as u8 }
                }
            }
            _ => Instr::Custom(RoccInstruction::decode(word)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_golden() {
        assert_eq!(Instr::decode(0x0000_0013).unwrap(), Instr::NOP);
        assert_eq!(
            Instr::decode(0x00C5_8533).unwrap(),
            Instr::Op {
                op: OpOp::Add,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2
            }
        );
        assert_eq!(Instr::decode(0x0000_0073).unwrap(), Instr::Ecall);
        assert_eq!(Instr::decode(0x0010_0073).unwrap(), Instr::Ebreak);
    }

    #[test]
    fn decode_negative_immediates() {
        // addi a0, a0, -1 = 0xFFF50513
        match Instr::decode(0xFFF5_0513).unwrap() {
            Instr::OpImm {
                op: OpImmOp::Addi,
                imm,
                ..
            } => assert_eq!(imm, -1),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Instr::decode(0xFFFF_FFFF).is_err());
        assert!(Instr::decode(0x0000_0000).is_err());
    }

    #[test]
    fn rocc_words_decode_as_custom() {
        match Instr::decode(0x08A5_F60B).unwrap() {
            Instr::Custom(r) => {
                assert_eq!(r.funct7, 4);
                assert!(r.xd && r.xs1 && r.xs2);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }
}
