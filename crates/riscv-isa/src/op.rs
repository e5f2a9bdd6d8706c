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
//! calls with the family op fixed per arm. The simulators carry only the
//! `Op`; [`Instr::from`] maps one back where it is printed.

use crate::instr::{BranchOp, CsrOp, Instr, LoadOp, Op32Op, OpImm32Op, OpImmOp, OpOp, StoreOp};
use crate::rocc::RoccInstruction;
use crate::Reg;

/// One operand field's conversion between its [`Instr`] type and its
/// [`Op`] type: a register to or from its number, anything else as it is.
trait Operand<T> {
    fn convert(self) -> T;
}

impl<T> Operand<T> for T {
    fn convert(self) -> T {
        self
    }
}

impl Operand<u8> for Reg {
    fn convert(self) -> u8 {
        self.number()
    }
}

impl Operand<Reg> for u8 {
    fn convert(self) -> Reg {
        Reg::new(self)
    }
}

/// `$path { $extra field: convert(field), .. }` over a row's fields.
macro_rules! converted {
    ($($path:ident)::+ { $($field:ident: $ty:ty),* } $($extra:tt)*) => {
        $($path)::+ { $($extra)* $($field: Operand::convert($field)),* }
    };
}

/// The pattern `$path { $extra field, .. }` over a row's fields.
macro_rules! bound {
    ($($path:ident)::+ { $($field:ident: $ty:ty),* } $($extra:tt)*) => {
        $($path)::+ { $($extra)* $($field),* }
    };
}

/// Defines [`Op`] and its conversions from and to [`Instr`], both
/// generated from the rows. A `same` row names an `Instr` variant whose
/// flat variant has its name. Each family row names the `Instr` variant,
/// the family enum and the family's ops, each of which becomes a flat
/// variant of the same name. A row's fields are the `Instr` variant's,
/// `u8` where it has a [`Reg`]. The conversions match each family
/// exhaustively, so a family op without a flat variant does not compile.
macro_rules! flat_ops {
    (
        same [$($same:ident $same_fields:tt),+];
        $($instr:ident as $family:ident $fields:tt [$($variant:ident),+ $(,)?];)*
    ) => {
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
        /// decoding. The ops that end a block (jumps and branches, then
        /// `Custom` last) and those that form one alone (CSR accesses,
        /// `ecall`, `ebreak`, `mret`) are declared in runs, so that telling
        /// them apart at decode is a few range compares: scattered, it was
        /// an indirect jump per decoded word.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(missing_docs)] // each variant is the same-named operation
        #[repr(C, u8)]
        pub enum Op {
            Lui { rd: u8, imm: i32 },
            Auipc { rd: u8, imm: i32 },
            Fence,
            $($same $same_fields,)+
            $($($variant $fields,)+)*
            Csrrwi { rd: u8, imm: u8, csr: u16 },
            Csrrsi { rd: u8, imm: u8, csr: u16 },
            Csrrci { rd: u8, imm: u8, csr: u16 },
            Ecall,
            Ebreak,
            Mret,
            Custom(RoccInstruction),
        }

        impl From<Instr> for Op {
            fn from(instr: Instr) -> Op {
                match instr {
                    Instr::Lui { rd, imm20 } => Op::Lui { rd: rd.number(), imm: imm20 << 12 },
                    Instr::Auipc { rd, imm20 } => Op::Auipc { rd: rd.number(), imm: imm20 << 12 },
                    $(bound!(Instr::$same $same_fields) => converted!(Op::$same $same_fields),)+
                    $(bound!(Instr::$instr $fields op,) => match op {
                        $($family::$variant => converted!(Op::$variant $fields),)+
                    },)*
                    Instr::Fence => Op::Fence,
                    Instr::Ecall => Op::Ecall,
                    Instr::Ebreak => Op::Ebreak,
                    Instr::Mret => Op::Mret,
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

        /// The two-level form of an op, for printing it.
        ///
        /// # Panics
        ///
        /// Panics if a register field is above 31, which no op built from
        /// an [`Instr`] has.
        impl From<Op> for Instr {
            fn from(op: Op) -> Instr {
                let reg = Reg::new;
                let csr_imm = |op, rd, csr, imm| Instr::CsrImm { op, rd: reg(rd), csr, imm };
                match op {
                    Op::Lui { rd, imm } => Instr::Lui { rd: reg(rd), imm20: imm >> 12 },
                    Op::Auipc { rd, imm } => Instr::Auipc { rd: reg(rd), imm20: imm >> 12 },
                    $(bound!(Op::$same $same_fields) => converted!(Instr::$same $same_fields),)+
                    $($(bound!(Op::$variant $fields) => {
                        converted!(Instr::$instr $fields op: $family::$variant,)
                    })+)*
                    Op::Fence => Instr::Fence,
                    Op::Ecall => Instr::Ecall,
                    Op::Ebreak => Instr::Ebreak,
                    Op::Mret => Instr::Mret,
                    Op::Csrrwi { rd, imm, csr } => csr_imm(CsrOp::Csrrw, rd, csr, imm),
                    Op::Csrrsi { rd, imm, csr } => csr_imm(CsrOp::Csrrs, rd, csr, imm),
                    Op::Csrrci { rd, imm, csr } => csr_imm(CsrOp::Csrrc, rd, csr, imm),
                    Op::Custom(rocc) => Instr::Custom(rocc),
                }
            }
        }
    };
}

flat_ops! {
    same [Jal { rd: u8, offset: i32 }, Jalr { rd: u8, rs1: u8, offset: i32 }];
    Branch as BranchOp { rs1: u8, rs2: u8, offset: i32 }
        [Beq, Bne, Blt, Bge, Bltu, Bgeu];
    Load as LoadOp { rd: u8, rs1: u8, offset: i32 }
        [Lb, Lh, Lw, Ld, Lbu, Lhu, Lwu];
    Store as StoreOp { rs1: u8, rs2: u8, offset: i32 }
        [Sb, Sh, Sw, Sd];
    OpImm as OpImmOp { rd: u8, rs1: u8, imm: i32 }
        [Addi, Slti, Sltiu, Xori, Ori, Andi, Slli, Srli, Srai];
    OpImm32 as OpImm32Op { rd: u8, rs1: u8, imm: i32 }
        [Addiw, Slliw, Srliw, Sraiw];
    Op as OpOp { rd: u8, rs1: u8, rs2: u8 }
        [Add, Sub, Sll, Slt, Sltu, Xor, Srl, Sra, Or, And,
         Mul, Mulh, Mulhsu, Mulhu, Div, Divu, Rem, Remu];
    Op32 as Op32Op { rd: u8, rs1: u8, rs2: u8 }
        [Addw, Subw, Sllw, Srlw, Sraw, Mulw, Divw, Divuw, Remw, Remuw];
    Csr as CsrOp { rd: u8, rs1: u8, csr: u16 }
        [Csrrw, Csrrs, Csrrc];
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
