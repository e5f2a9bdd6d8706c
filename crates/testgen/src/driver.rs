//! Guest-side test-program generation.
//!
//! The generated program is the driver loop of the paper's framework: it
//! walks an operand table, calls the kernel under test for each pair
//! (repeating `repetitions` times, as the generator's "number of repetition
//! per calculation" option configures), stores each result, and brackets
//! the measurement region with `mark` syscalls so the harness can subtract
//! setup cost.
//!
//! [`driver_unit`] and [`operand_unit`] build both pieces as assembler
//! [`Unit`]s straight from their instructions and words. [`driver_source`]
//! and [`operand_data_section`] write the same pieces as assembly text:
//! the readable form, and the oracle the units are tested against (the
//! units are what `parse` makes of that text, line for line).

use std::fmt::Write as _;

use riscv_asm::{AsmError, Unit, UnitBuilder};
use riscv_isa::instr::{BranchOp, Instr, LoadOp, OpImmOp, StoreOp};
use riscv_isa::Reg;

use crate::TestVector;

/// Marker id recorded immediately before the measurement loop.
pub const MARK_LOOP_START: u64 = 1;

/// Marker id recorded immediately after the measurement loop.
pub const MARK_LOOP_END: u64 = 2;

/// Base marker id for per-sample markers (`MARK_SAMPLE_BASE + i` fires
/// before sample `i` when per-sample marking is enabled).
pub const MARK_SAMPLE_BASE: u64 = 0x1000;

/// Memory layout contract between the driver and the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverLayout {
    /// Number of operand pairs.
    pub count: usize,
    /// Repetitions per pair.
    pub repetitions: u32,
    /// Record a marker before every sample (enables per-class cycle
    /// attribution at the cost of one `mark` syscall per sample).
    pub per_sample_marks: bool,
}

/// The `.data` section holding the operand table and result array, as a
/// [`Unit`]: what `parse` makes of [`operand_data_section`].
///
/// Layout: `operands:` count pairs of dwords (x bits, y bits), then
/// `results:` count dwords initialized to zero.
///
/// # Errors
///
/// None in practice: the unit's lines are fixed apart from the words.
pub fn operand_unit(vectors: &[TestVector]) -> Result<Unit, AsmError> {
    let mut b = UnitBuilder::new();
    b.data().align(3).label("operands");
    for v in vectors {
        let (x, y) = v.to_decimal64_bits();
        b.dwords(&[x, y]);
    }
    b.label("results").space(vectors.len() * 8);
    b.finish()
}

/// The driver's `.text` (entry `start`) as a [`Unit`]: what `parse` makes
/// of [`driver_source`], instruction for instruction and line for line.
///
/// # Errors
///
/// None in practice: the unit's lines are fixed apart from the immediates.
pub fn driver_unit(layout: DriverLayout) -> Result<Unit, AsmError> {
    let mark = |b: &mut UnitBuilder, id: i64| {
        b.li(Reg::A0, id).li(Reg::A7, 0x700).instr(Instr::Ecall);
    };
    let addi = |rd, rs1, imm| Instr::OpImm {
        op: OpImmOp::Addi,
        rd,
        rs1,
        imm,
    };
    let mut b = UnitBuilder::new();
    b.blank()
        .text()
        .label("start")
        .la(Reg::S0, "operands")
        .la(Reg::S1, "results")
        .li(Reg::S2, layout.count as i64)
        .li(Reg::S4, MARK_SAMPLE_BASE as i64)
        .branch(BranchOp::Beq, Reg::S2, Reg::ZERO, "finish");
    mark(&mut b, MARK_LOOP_START as i64);
    b.label("sample_loop");
    if layout.per_sample_marks {
        b.instr(addi(Reg::A0, Reg::S4, 0))
            .li(Reg::A7, 0x700)
            .instr(Instr::Ecall)
            .instr(addi(Reg::S4, Reg::S4, 1));
    }
    b.li(Reg::S3, i64::from(layout.repetitions.max(1)))
        .label("repeat_loop")
        .instr(Instr::Load {
            op: LoadOp::Ld,
            rd: Reg::A0,
            rs1: Reg::S0,
            offset: 0,
        })
        .instr(Instr::Load {
            op: LoadOp::Ld,
            rd: Reg::A1,
            rs1: Reg::S0,
            offset: 8,
        })
        .call("kernel")
        .instr(addi(Reg::S3, Reg::S3, -1))
        .branch(BranchOp::Bne, Reg::S3, Reg::ZERO, "repeat_loop")
        .instr(Instr::Store {
            op: StoreOp::Sd,
            rs2: Reg::A0,
            rs1: Reg::S1,
            offset: 0,
        })
        .instr(addi(Reg::S0, Reg::S0, 16))
        .instr(addi(Reg::S1, Reg::S1, 8))
        .instr(addi(Reg::S2, Reg::S2, -1))
        .branch(BranchOp::Bne, Reg::S2, Reg::ZERO, "sample_loop");
    mark(&mut b, MARK_LOOP_END as i64);
    b.label("finish")
        .li(Reg::A0, 0)
        .li(Reg::A7, 93)
        .instr(Instr::Ecall);
    b.finish()
}

/// Emits the `.data` section holding the operand table and result array as
/// assembly text; [`operand_unit`] builds the same section without text.
///
/// Layout: `operands:` count pairs of dwords (x bits, y bits), then
/// `results:` count dwords initialized to zero.
#[must_use]
pub fn operand_data_section(vectors: &[TestVector]) -> String {
    let mut out = String::new();
    out.push_str(".data\n.align 3\noperands:\n");
    for v in vectors {
        let (x, y) = v.to_decimal64_bits();
        let _ = writeln!(out, "    .dword 0x{x:016X}, 0x{y:016X}  # {}", v.class);
    }
    let _ = writeln!(out, "results:\n    .space {}", vectors.len() * 8);
    out
}

/// Emits the driver's `.text` (entry `start`) as assembly text;
/// [`driver_unit`] builds the same code without text. The driver calls the
/// symbol `kernel` once per repetition per operand pair. The kernel
/// receives the operands' decimal64 bits in `a0`/`a1` and returns the
/// result bits in `a0`; it may clobber any caller-saved register.
#[must_use]
pub fn driver_source(layout: DriverLayout) -> String {
    let mut out = String::new();
    let count = layout.count;
    let reps = layout.repetitions.max(1);
    let per_sample = if layout.per_sample_marks {
        "    mv   a0, s4
    li   a7, 0x700
    ecall                            # mark: sample boundary
    addi s4, s4, 1
"
        .to_string()
    } else {
        String::new()
    };
    let _ = write!(
        out,
        r#"
    .text
start:
    la   s0, operands
    la   s1, results
    li   s2, {count}
    li   s4, {MARK_SAMPLE_BASE}
    beqz s2, finish
    li   a0, {MARK_LOOP_START}
    li   a7, 0x700
    ecall                      # mark: measurement region begins
sample_loop:
{per_sample}    li   s3, {reps}
repeat_loop:
    ld   a0, 0(s0)
    ld   a1, 8(s0)
    call kernel
    addi s3, s3, -1
    bnez s3, repeat_loop
    sd   a0, 0(s1)
    addi s0, s0, 16
    addi s1, s1, 8
    addi s2, s2, -1
    bnez s2, sample_loop
    li   a0, {MARK_LOOP_END}
    li   a7, 0x700
    ecall                      # mark: measurement region ends
finish:
    li   a0, 0
    li   a7, 93
    ecall
"#
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, TestConfig};

    #[test]
    fn units_link_like_their_text() {
        let vectors = generate(&TestConfig {
            count: 3,
            ..TestConfig::default()
        });
        let kernel = "    .text\nkernel:\n    ret\n    .data\n    .half 1\n";
        for count in [0, 1, 3] {
            for (repetitions, per_sample_marks) in [(0, false), (3, true), (5000, false)] {
                let layout = DriverLayout {
                    count,
                    repetitions,
                    per_sample_marks,
                };
                let vectors = &vectors[..count];
                let linked = riscv_asm::link(&[
                    &driver_unit(layout).unwrap(),
                    &riscv_asm::parse(kernel).unwrap(),
                    &operand_unit(vectors).unwrap(),
                ])
                .unwrap();
                let text = driver_source(layout) + kernel + &operand_data_section(vectors);
                assert_eq!(linked, riscv_asm::assemble(&text).unwrap(), "{layout:?}");
            }
        }
    }

    #[test]
    fn data_section_shape() {
        let config = TestConfig {
            count: 5,
            ..TestConfig::default()
        };
        let vectors = generate(&config);
        let data = operand_data_section(&vectors);
        assert!(data.contains("operands:"));
        assert!(data.contains("results:"));
        assert_eq!(data.matches(".dword").count(), 5);
        assert!(data.contains(".space 40"));
    }

    #[test]
    fn driver_contains_markers_and_kernel_call() {
        let src = driver_source(DriverLayout {
            count: 8,
            repetitions: 3,
            per_sample_marks: false,
        });
        assert!(src.contains("call kernel"));
        assert!(src.contains("li   s3, 3"));
        assert!(src.contains("li   s2, 8"));
        assert!(src.contains("0x700"));
    }

    #[test]
    fn per_sample_marks_emit_the_counter() {
        let src = driver_source(DriverLayout {
            count: 4,
            repetitions: 1,
            per_sample_marks: true,
        });
        assert!(src.contains("mv   a0, s4"));
        assert!(src.contains("addi s4, s4, 1"));
    }

    #[test]
    fn zero_repetitions_clamped_to_one() {
        let src = driver_source(DriverLayout {
            count: 1,
            repetitions: 0,
            per_sample_marks: false,
        });
        assert!(src.contains("li   s3, 1"));
    }
}
