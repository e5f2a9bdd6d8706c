//! Encode/decode roundtrip property tests.
//!
//! The `instr()` strategy covers every instruction form the crate can
//! encode — all ALU op variants (with shift shamt ranges respected), all
//! three CSR ops in both register and immediate form, all four custom
//! opcodes, and the opcode-less system instructions — so the proptest
//! suite exercises the full encoder/decoder surface. The deterministic
//! `exhaustive_variant_sweep` test below additionally pins every variant
//! at its operand boundaries so a regression cannot hide behind shrinking.

use proptest::prelude::*;
use riscv_isa::instr::{BranchOp, CsrOp, LoadOp, Op32Op, OpImm32Op, OpImmOp, OpOp, StoreOp};
use riscv_isa::rocc::{CustomOpcode, RoccInstruction};
use riscv_isa::{Instr, Reg};

/// OP-IMM variants taking a full 12-bit immediate (`full`), or else the
/// shift forms, which take a 6-bit shamt and are generated separately.
fn op_imm_ops(full: bool) -> Vec<OpImmOp> {
    OpImmOp::TABLE.iter().filter(|row| row.3.is_none() == full).map(|row| row.0).collect()
}

/// The OP-IMM-32 shifts (5-bit shamt).
fn op_imm32_shifts() -> Vec<OpImm32Op> {
    OpImm32Op::TABLE.iter().filter(|row| row.3.is_some()).map(|row| row.0).collect()
}

fn reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::new)
}

fn pick<T: Clone + core::fmt::Debug + 'static>(items: &[T]) -> impl Strategy<Value = T> {
    proptest::sample::select(items.to_vec())
}

fn instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (reg(), -(1i32 << 19)..(1 << 19)).prop_map(|(rd, imm20)| Instr::Lui { rd, imm20 }),
        (reg(), -(1i32 << 19)..(1 << 19)).prop_map(|(rd, imm20)| Instr::Auipc { rd, imm20 }),
        (reg(), (-(1i32 << 19)..(1 << 19)).prop_map(|o| o * 2))
            .prop_map(|(rd, offset)| Instr::Jal { rd, offset }),
        (reg(), reg(), -2048i32..=2047)
            .prop_map(|(rd, rs1, offset)| Instr::Jalr { rd, rs1, offset }),
        (pick(&BranchOp::TABLE.map(|row| row.0)), reg(), reg(), (-2048i32..2048).prop_map(|o| o * 2))
            .prop_map(|(op, rs1, rs2, offset)| Instr::Branch { op, rs1, rs2, offset }),
        (pick(&LoadOp::TABLE.map(|row| row.0)), reg(), reg(), -2048i32..=2047)
            .prop_map(|(op, rd, rs1, offset)| Instr::Load { op, rd, rs1, offset }),
        (pick(&StoreOp::TABLE.map(|row| row.0)), reg(), reg(), -2048i32..=2047)
            .prop_map(|(op, rs2, rs1, offset)| Instr::Store { op, rs2, rs1, offset }),
        (pick(&op_imm_ops(true)), reg(), reg(), -2048i32..=2047)
            .prop_map(|(op, rd, rs1, imm)| Instr::OpImm { op, rd, rs1, imm }),
        (pick(&op_imm_ops(false)), reg(), reg(), 0i32..64)
            .prop_map(|(op, rd, rs1, imm)| Instr::OpImm { op, rd, rs1, imm }),
        (reg(), reg(), -2048i32..=2047).prop_map(|(rd, rs1, imm)| Instr::OpImm32 {
            op: OpImm32Op::Addiw,
            rd,
            rs1,
            imm
        }),
        (pick(&op_imm32_shifts()), reg(), reg(), 0i32..32)
            .prop_map(|(op, rd, rs1, imm)| Instr::OpImm32 { op, rd, rs1, imm }),
        (pick(&OpOp::TABLE.map(|row| row.0)), reg(), reg(), reg())
            .prop_map(|(op, rd, rs1, rs2)| Instr::Op { op, rd, rs1, rs2 }),
        (pick(&Op32Op::TABLE.map(|row| row.0)), reg(), reg(), reg())
            .prop_map(|(op, rd, rs1, rs2)| Instr::Op32 { op, rd, rs1, rs2 }),
        Just(Instr::Fence),
        Just(Instr::Ecall),
        Just(Instr::Ebreak),
        Just(Instr::Mret),
        (pick(&CsrOp::TABLE.map(|row| row.0)), reg(), reg(), 0u16..4096)
            .prop_map(|(op, rd, rs1, csr)| Instr::Csr { op, rd, csr, rs1 }),
        (pick(&CsrOp::TABLE.map(|row| row.0)), reg(), 0u16..4096, 0u8..32)
            .prop_map(|(op, rd, csr, imm)| Instr::CsrImm { op, rd, csr, imm }),
        (
            pick(&CustomOpcode::TABLE.map(|row| row.0)),
            reg(),
            reg(),
            reg(),
            0u8..128,
            any::<bool>(),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(opcode, rd, rs1, rs2, funct7, xd, xs1, xs2)| {
                Instr::Custom(RoccInstruction { opcode, funct7, rd, rs1, rs2, xd, xs1, xs2 })
            }),
    ]
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(i in instr()) {
        let word = i.encode().unwrap();
        let back = Instr::decode(word).unwrap();
        prop_assert_eq!(back, i, "word {:#010x}", word);
    }

    #[test]
    fn decode_never_panics(word in any::<u32>()) {
        let _ = Instr::decode(word);
    }

    #[test]
    fn decoded_reencodes_identically(word in any::<u32>()) {
        if let Ok(i) = Instr::decode(word) {
            // Decoding is not necessarily injective (e.g. fence variants all
            // decode to Fence), but re-encoding must re-decode to the same
            // instruction.
            let word2 = i.encode().unwrap();
            prop_assert_eq!(Instr::decode(word2).unwrap(), i);
        }
    }

    #[test]
    fn display_never_panics(i in instr()) {
        let _ = i.to_string();
    }
}

/// Asserts `encode(i)` decodes back to `i` and that the decoded value
/// re-encodes to the identical word.
fn assert_roundtrip(i: Instr) {
    let word = i.encode().unwrap_or_else(|e| panic!("{i}: encode failed: {e}"));
    let back =
        Instr::decode(word).unwrap_or_else(|e| panic!("{i} ({word:#010x}): decode failed: {e}"));
    assert_eq!(back, i, "word {word:#010x}");
    assert_eq!(back.encode().unwrap(), word, "re-encode of {i}");
}

/// Deterministic sweep of every instruction variant at operand boundaries:
/// register extremes, immediate min/mid/max, shamt limits, CSR address
/// limits, and every RoCC funct7/xd/xs1/xs2 edge.
#[test]
fn exhaustive_variant_sweep() {
    let regs = [Reg::new(0), Reg::new(1), Reg::new(15), Reg::new(31)];
    let imm12 = [-2048i32, -1, 0, 1, 2047];
    let imm20 = [-(1i32 << 19), -1, 0, 1, (1 << 19) - 1];

    for &rd in &regs {
        for &imm in &imm20 {
            assert_roundtrip(Instr::Lui { rd, imm20: imm });
            assert_roundtrip(Instr::Auipc { rd, imm20: imm });
            assert_roundtrip(Instr::Jal { rd, offset: imm * 2 });
        }
        for &rs1 in &regs {
            for &imm in &imm12 {
                assert_roundtrip(Instr::Jalr { rd, rs1, offset: imm });
            }
        }
    }

    for (op, ..) in BranchOp::TABLE {
        for &rs1 in &regs {
            for &rs2 in &regs {
                for offset in [-4096i32, -2, 0, 2, 4094] {
                    assert_roundtrip(Instr::Branch { op, rs1, rs2, offset });
                }
            }
        }
    }

    for &rd in &regs {
        for &rs1 in &regs {
            for &offset in &imm12 {
                for (op, ..) in LoadOp::TABLE {
                    assert_roundtrip(Instr::Load { op, rd, rs1, offset });
                }
                for (op, ..) in StoreOp::TABLE {
                    assert_roundtrip(Instr::Store { op, rs2: rd, rs1, offset });
                }
                for op in op_imm_ops(true) {
                    assert_roundtrip(Instr::OpImm { op, rd, rs1, imm: offset });
                }
                assert_roundtrip(Instr::OpImm32 {
                    op: OpImm32Op::Addiw,
                    rd,
                    rs1,
                    imm: offset,
                });
            }
            for op in op_imm_ops(false) {
                for shamt in [0i32, 1, 31, 32, 63] {
                    assert_roundtrip(Instr::OpImm { op, rd, rs1, imm: shamt });
                }
            }
            for op in op_imm32_shifts() {
                for shamt in [0i32, 1, 31] {
                    assert_roundtrip(Instr::OpImm32 { op, rd, rs1, imm: shamt });
                }
            }
            for &rs2 in &regs {
                for (op, ..) in OpOp::TABLE {
                    assert_roundtrip(Instr::Op { op, rd, rs1, rs2 });
                }
                for (op, ..) in Op32Op::TABLE {
                    assert_roundtrip(Instr::Op32 { op, rd, rs1, rs2 });
                }
            }
        }
    }

    for (op, ..) in CsrOp::TABLE {
        for &rd in &regs {
            for csr in [0u16, 1, 0x305, 0xFFF] {
                for &rs1 in &regs {
                    assert_roundtrip(Instr::Csr { op, rd, csr, rs1 });
                }
                for imm in [0u8, 1, 15, 31] {
                    assert_roundtrip(Instr::CsrImm { op, rd, csr, imm });
                }
            }
        }
    }

    for (opcode, ..) in CustomOpcode::TABLE {
        for funct7 in [0u8, 1, 12, 63, 127] {
            for &rd in &regs {
                for (xd, xs1, xs2) in [
                    (false, false, false),
                    (true, false, false),
                    (true, true, false),
                    (true, true, true),
                    (false, true, true),
                ] {
                    assert_roundtrip(Instr::Custom(RoccInstruction {
                        opcode,
                        funct7,
                        rd,
                        rs1: Reg::new(31),
                        rs2: Reg::new(1),
                        xd,
                        xs1,
                        xs2,
                    }));
                }
            }
        }
    }

    for i in [Instr::Fence, Instr::Ecall, Instr::Ebreak, Instr::Mret, Instr::NOP] {
        assert_roundtrip(i);
    }
}
