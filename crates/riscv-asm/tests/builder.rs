//! `UnitBuilder` makes the unit `parse` makes of the same lines: linked,
//! the two give equal programs, line map included.

use riscv_asm::{assemble, link, parse, AsmError, UnitBuilder};
use riscv_isa::instr::{BranchOp, Instr, OpImmOp};
use riscv_isa::Reg;

/// Links `built` between the `before` and `after` texts and checks the
/// result against `assemble` of `before + text + after`.
fn assert_builds_like(built: UnitBuilder, text: &str, before: &str, after: &str) {
    let linked = link(&[
        &parse(before).unwrap(),
        &built.finish().unwrap(),
        &parse(after).unwrap(),
    ])
    .unwrap();
    assert_eq!(linked, assemble(&format!("{before}{text}{after}")).unwrap(), "{text}");
}

#[test]
fn li_expansions_and_lines_match_the_text() {
    let values = [0, -1, 2047, 2048, -2049, 0x7FFF_F800, 0x1234_5678_9ABC_DEF0, i64::MIN];
    let mut b = UnitBuilder::new();
    b.blank().text().label("values");
    let mut text = String::from("\n    .text\nvalues:\n");
    for value in values {
        b.li(Reg::T0, value);
        text += &format!("    li t0, {value}\n");
    }
    assert_builds_like(b, &text, "start:\n    nop\n", ".text\n    ret\n");
}

#[test]
fn references_resolve_inside_the_unit_and_across_units() {
    let mut b = UnitBuilder::new();
    b.text()
        .label("here")
        .branch(BranchOp::Bltu, Reg::A0, Reg::A1, "later")
        .la(Reg::A2, "table")
        .call("helper")
        .instr(Instr::OpImm {
            op: OpImmOp::Addi,
            rd: Reg::A0,
            rs1: Reg::A0,
            imm: -5,
        })
        .branch(BranchOp::Bne, Reg::A0, Reg::ZERO, "here")
        .label("later")
        .data()
        .align(3)
        .label("table")
        .dwords(&[u64::MAX, 1, 2])
        .space(3)
        .dwords(&[])
        .align(2)
        .label("tail");
    let text = ".text\nhere:\n    bltu a0, a1, later\n    la a2, table\n    call helper\n    \
                addi a0, a0, -5\n    bne a0, zero, here\nlater:\n.data\n.align 3\ntable:\n    \
                .dword 0xFFFFFFFFFFFFFFFF, 1, 2\n    .space 3\n\n.align 2\ntail:\n";
    let before = "start:\n    la a0, tail\n    .data\n    .byte 1\n";
    let after = ".text\nhelper:\n    ret\n";
    assert_builds_like(b, text, before, after);
}

/// The first misuse a builder reports, as (line, message).
fn misuse(build: impl FnOnce(&mut UnitBuilder)) -> (usize, String) {
    let mut b = UnitBuilder::new();
    build(&mut b);
    let AsmError { line, message, .. } = b.finish().expect_err("misuse must fail");
    (line, message)
}

#[test]
fn misuse_is_reported_at_its_line() {
    let expect = |line: usize, message: &str| (line, message.to_string());
    assert_eq!(
        misuse(|b| {
            b.data().li(Reg::A0, 1);
        }),
        expect(2, "instruction outside .text")
    );
    assert_eq!(
        misuse(|b| {
            b.blank().dwords(&[1]);
        }),
        expect(2, ".dword outside .data")
    );
    assert_eq!(
        misuse(|b| {
            b.space(8);
        }),
        expect(1, ".space outside .data")
    );
    assert_eq!(
        misuse(|b| {
            b.align(13);
        }),
        expect(1, ".align 13 too large")
    );
    assert_eq!(
        misuse(|b| {
            b.label("9lives");
        }),
        expect(1, "invalid label name \"9lives\"")
    );
    assert_eq!(
        misuse(|b| {
            b.label("x").blank().label("y").label("x").label("y");
        }),
        expect(4, "duplicate symbol \"x\"")
    );
    // Only the first misuse is reported.
    assert_eq!(
        misuse(|b| {
            b.instr(Instr::OpImm {
                op: OpImmOp::Addi,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 5000,
            })
            .instr(Instr::Mret)
            .data()
            .instr(Instr::Ecall);
        }),
        expect(1, "addi immediate 5000 out of range")
    );
}
