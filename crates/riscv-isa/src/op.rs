//! The flat, pre-decoded form of an instruction that the simulators
//! execute.
//!
//! An [`Instr`] is two-level: a format variant holding a family op
//! (`Instr::Op { op: OpOp::Add, .. }`). An [`Op`] has one variant per
//! operation, `u8` register numbers and immediates sign-extended from
//! their encoded width to `i32`, so an executor dispatches on it with one
//! `match` and extracts no bit fields. [`Op::from`] maps each
//! family op to the variant of the same name (`OpOp::Add` to `Op::Add`,
//! `LoadOp::Lwu` to `Op::Lwu`), so the variants are the families' `TABLE`
//! rows; what each op computes stays in [`crate::alu`], which an executor
//! calls with the family op fixed per arm.

use crate::instr::{BranchOp, CsrOp, Instr, LoadOp, Op32Op, OpImm32Op, OpImmOp, OpOp, StoreOp};
use crate::rocc::RoccInstruction;

/// Defines [`Op`] and its conversion from [`Instr`]. Each family line names
/// the `Instr` variant and its fields, the family enum, the flat variants'
/// fields and how they are built from the `Instr` fields, and the family's
/// ops; each op becomes a flat variant of the same name. The conversion
/// matches each family exhaustively, so a family op without a flat variant
/// does not compile.
macro_rules! flat_ops {
    ($(
        $instr:ident { $($bind:ident),* } as $family:ident
            $fields:tt = $build:tt [$($variant:ident),+ $(,)?];
    )*) => {
        /// One RV64IM (plus RoCC custom) operation, flat and pre-decoded.
        ///
        /// Register fields are register numbers (`x0` is 0). Immediates
        /// hold their semantic values, sign-extended: branch and jump
        /// offsets are byte offsets from the op's own address, and `Lui`
        /// and `Auipc` hold the shifted immediate (`imm20 << 12`). CSR
        /// ops are named by their mnemonic, the immediate forms ending
        /// in `i`.
        ///
        /// Twelve bytes, with the tag first and every variant's fields
        /// laid out in order behind it (`repr(C, u8)`): an executor copies
        /// an op from its decoded slot in one piece and reads each field
        /// from that copy. A wider op makes every decoded page larger, which
        /// short runs, such as lockstep's, pay for in allocation and
        /// decoding.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)] // each variant is the same-named operation
        #[repr(C, u8)]
        pub enum Op {
            Lui { rd: u8, imm: i32 },
            Auipc { rd: u8, imm: i32 },
            Jal { rd: u8, offset: i32 },
            Jalr { rd: u8, rs1: u8, offset: i32 },
            $($($variant $fields,)+)*
            Fence,
            Ecall,
            Ebreak,
            Mret,
            Csrrw { rd: u8, rs1: u8, csr: u16 },
            Csrrs { rd: u8, rs1: u8, csr: u16 },
            Csrrc { rd: u8, rs1: u8, csr: u16 },
            Csrrwi { rd: u8, imm: u8, csr: u16 },
            Csrrsi { rd: u8, imm: u8, csr: u16 },
            Csrrci { rd: u8, imm: u8, csr: u16 },
            Custom(RoccInstruction),
        }

        impl From<Instr> for Op {
            fn from(instr: Instr) -> Op {
                match instr {
                    Instr::Lui { rd, imm20 } => Op::Lui {
                        rd: rd.number(),
                        imm: imm20 << 12,
                    },
                    Instr::Auipc { rd, imm20 } => Op::Auipc {
                        rd: rd.number(),
                        imm: imm20 << 12,
                    },
                    Instr::Jal { rd, offset } => Op::Jal {
                        rd: rd.number(),
                        offset,
                    },
                    Instr::Jalr { rd, rs1, offset } => Op::Jalr {
                        rd: rd.number(),
                        rs1: rs1.number(),
                        offset,
                    },
                    $(Instr::$instr { op, $($bind),* } => match op {
                        $($family::$variant => Op::$variant $build,)+
                    },)*
                    Instr::Fence => Op::Fence,
                    Instr::Ecall => Op::Ecall,
                    Instr::Ebreak => Op::Ebreak,
                    Instr::Mret => Op::Mret,
                    Instr::Csr { op, rd, csr, rs1 } => {
                        let (rd, rs1) = (rd.number(), rs1.number());
                        match op {
                            CsrOp::Csrrw => Op::Csrrw { rd, rs1, csr },
                            CsrOp::Csrrs => Op::Csrrs { rd, rs1, csr },
                            CsrOp::Csrrc => Op::Csrrc { rd, rs1, csr },
                        }
                    }
                    Instr::CsrImm { op, rd, csr, imm } => {
                        let rd = rd.number();
                        match op {
                            CsrOp::Csrrw => Op::Csrrwi { rd, imm, csr },
                            CsrOp::Csrrs => Op::Csrrsi { rd, imm, csr },
                            CsrOp::Csrrc => Op::Csrrci { rd, imm, csr },
                        }
                    }
                    Instr::Custom(rocc) => Op::Custom(rocc),
                }
            }
        }
    };
}

flat_ops! {
    Branch { rs1, rs2, offset } as BranchOp
        { rs1: u8, rs2: u8, offset: i32 }
        = { rs1: rs1.number(), rs2: rs2.number(), offset }
        [Beq, Bne, Blt, Bge, Bltu, Bgeu];
    Load { rd, rs1, offset } as LoadOp
        { rd: u8, rs1: u8, offset: i32 }
        = { rd: rd.number(), rs1: rs1.number(), offset }
        [Lb, Lh, Lw, Ld, Lbu, Lhu, Lwu];
    Store { rs2, rs1, offset } as StoreOp
        { rs1: u8, rs2: u8, offset: i32 }
        = { rs1: rs1.number(), rs2: rs2.number(), offset }
        [Sb, Sh, Sw, Sd];
    OpImm { rd, rs1, imm } as OpImmOp
        { rd: u8, rs1: u8, imm: i32 }
        = { rd: rd.number(), rs1: rs1.number(), imm }
        [Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai];
    OpImm32 { rd, rs1, imm } as OpImm32Op
        { rd: u8, rs1: u8, imm: i32 }
        = { rd: rd.number(), rs1: rs1.number(), imm }
        [Addiw, Slliw, Srliw, Sraiw];
    Op { rd, rs1, rs2 } as OpOp
        { rd: u8, rs1: u8, rs2: u8 }
        = { rd: rd.number(), rs1: rs1.number(), rs2: rs2.number() }
        [Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And,
         Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu];
    Op32 { rd, rs1, rs2 } as Op32Op
        { rd: u8, rs1: u8, rs2: u8 }
        = { rd: rd.number(), rs1: rs1.number(), rs2: rs2.number() }
        [Addw, Subw, Sllw, Srlw, Sraw, Mulw, Divw, Divuw, Remw, Remuw];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rocc::CustomOpcode;
    use crate::Reg;

    /// The flat variant's name, lower-cased, as `Debug` prints it.
    fn name(op: Op) -> String {
        let debug = format!("{op:?}");
        let end = debug.find([' ', '(']).unwrap_or(debug.len());
        debug[..end].to_lowercase()
    }

    #[test]
    fn every_table_row_maps_to_the_variant_named_by_its_mnemonic() {
        let (rd, rs1, rs2) = (Reg::A0, Reg::A1, Reg::A2);
        let mut instrs = Vec::new();
        for (op, ..) in BranchOp::TABLE {
            instrs.push(Instr::Branch { op, rs1, rs2, offset: -8 });
        }
        for (op, ..) in LoadOp::TABLE {
            instrs.push(Instr::Load { op, rd, rs1, offset: -8 });
        }
        for (op, ..) in StoreOp::TABLE {
            instrs.push(Instr::Store { op, rs2, rs1, offset: -8 });
        }
        for (op, ..) in OpImmOp::TABLE {
            instrs.push(Instr::OpImm { op, rd, rs1, imm: 3 });
        }
        for (op, ..) in OpImm32Op::TABLE {
            instrs.push(Instr::OpImm32 { op, rd, rs1, imm: 3 });
        }
        for (op, ..) in OpOp::TABLE {
            instrs.push(Instr::Op { op, rd, rs1, rs2 });
        }
        for (op, ..) in Op32Op::TABLE {
            instrs.push(Instr::Op32 { op, rd, rs1, rs2 });
        }
        for (op, ..) in CsrOp::TABLE {
            instrs.push(Instr::Csr { op, rd, csr: 0x340, rs1 });
            instrs.push(Instr::CsrImm { op, rd, csr: 0x340, imm: 5 });
        }
        let mut names: Vec<String> = instrs.iter().map(|&i| name(Op::from(i))).collect();
        let mnemonics: Vec<String> = instrs
            .iter()
            .map(|i| i.to_string().split(' ').next().unwrap().to_string())
            .collect();
        assert_eq!(names, mnemonics);
        names.sort();
        names.dedup();
        assert_eq!(names.len(), instrs.len(), "one variant per row");
    }

    #[test]
    fn fields_are_register_numbers_and_extended_immediates() {
        let instr = Instr::Load { op: LoadOp::Lw, rd: Reg::T6, rs1: Reg::SP, offset: -2048 };
        assert_eq!(Op::from(instr), Op::Lw { rd: 31, rs1: 2, offset: -2048 });
        let store = Instr::Store { op: StoreOp::Sd, rs2: Reg::A1, rs1: Reg::SP, offset: 16 };
        assert_eq!(Op::from(store), Op::Sd { rs1: 2, rs2: 11, offset: 16 });
        // `lui` holds the shifted immediate, sign-extended from bit 31.
        let lui = Instr::Lui { rd: Reg::A0, imm20: -1 };
        assert_eq!(Op::from(lui), Op::Lui { rd: 10, imm: -4096 });
        let auipc = Instr::Auipc { rd: Reg::A0, imm20: 0x7FFFF };
        assert_eq!(Op::from(auipc), Op::Auipc { rd: 10, imm: 0x7FFF_F000 });
        let jal = Instr::Jal { rd: Reg::RA, offset: -0x10_0000 };
        assert_eq!(Op::from(jal), Op::Jal { rd: 1, offset: -0x10_0000 });
        let custom = crate::rocc::RoccInstruction::reg_reg(
            CustomOpcode::Custom0,
            4,
            Reg::A2,
            Reg::A1,
            Reg::A0,
        );
        assert_eq!(Op::from(Instr::Custom(custom)), Op::Custom(custom));
        for (instr, op) in [
            (Instr::Fence, Op::Fence),
            (Instr::Ecall, Op::Ecall),
            (Instr::Ebreak, Op::Ebreak),
            (Instr::Mret, Op::Mret),
        ] {
            assert_eq!(Op::from(instr), op);
        }
        assert_eq!(std::mem::size_of::<Op>(), 12);
    }
}
