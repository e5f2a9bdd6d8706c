//! The link contract: linking separately parsed units gives the program
//! that assembling their concatenated text gives, field for field.

use riscv_asm::{assemble, link, parse, AsmError, Program};

fn link_pieces(pieces: &[&str]) -> Result<Program, AsmError> {
    let units = pieces
        .iter()
        .map(|piece| parse(piece))
        .collect::<Result<Vec<_>, _>>()?;
    let refs: Vec<_> = units.iter().collect();
    link(&refs)
}

/// Links `pieces` and checks the result against `assemble` of their
/// concatenation.
fn assert_link_matches(pieces: &[&str]) -> Program {
    let linked = link_pieces(pieces).unwrap_or_else(|e| panic!("link failed: {e}"));
    let assembled = assemble(&pieces.concat()).expect("concatenation assembles");
    assert_eq!(linked.entry, assembled.entry);
    assert_eq!(linked.text, assembled.text);
    assert_eq!(linked.data, assembled.data);
    assert_eq!(linked.symbols, assembled.symbols);
    assert_eq!(linked.line_map, assembled.line_map);
    linked
}

/// Links `pieces`, which must fail, and checks the error's line and
/// message against `assemble` of their concatenation.
fn assert_link_fails_like_assemble(pieces: &[&str]) -> AsmError {
    let linked = link_pieces(pieces).expect_err("link must fail");
    let assembled = assemble(&pieces.concat()).expect_err("concatenation must fail");
    assert_eq!(linked.line, assembled.line);
    assert_eq!(linked.message, assembled.message);
    linked
}

#[test]
fn data_that_ends_unaligned_is_padded_by_the_next_units_align() {
    let program = assert_link_matches(&[
        "start:\n    la a0, bytes\n    li a7, 93\n    ecall\n.data\nbytes:\n    .byte 1, 2, 3\n",
        ".data\n.align 3\nwide:\n    .dword 0x1122334455667788\n.text\n.align 4\nnext:\n    nop\n",
    ]);
    let wide = program.symbol("wide").expect("wide defined");
    assert_eq!(wide % 8, 0);
    assert_eq!(wide - program.symbol("bytes").expect("bytes defined"), 8);
    assert_eq!(program.symbol("next").expect("next defined") % 16, 0);
}

#[test]
fn la_in_text_reaches_data_of_a_later_unit() {
    let program = assert_link_matches(&[
        "\n    .text\nstart:\n    la a0, table\n    ld a0, 8(a0)\n    li a7, 93\n    ecall\n",
        "    .data\n    .half 7\n.align 3\ntable:\n    .dword 1, 2\n",
    ]);
    assert_eq!(program.entry, riscv_asm::TEXT_BASE);
}

#[test]
fn dword_of_a_label_in_another_unit() {
    let program = assert_link_matches(&[
        ".data\npointers:\n    .dword handler\n    .word handler\n",
        ".text\n    nop\nhandler:\n    ret\n",
        ".data\n    .dword pointers\n",
    ]);
    let handler = program.symbol("handler").expect("handler defined");
    assert_eq!(program.data.data[..8], handler.to_le_bytes());
}

#[test]
fn three_units_link_like_a_driver_kernel_and_operands() {
    assert_link_matches(&[
        "\n    .text\nstart:\n    la s0, operands\n    li s2, 2048\n    call kernel\n    li a7, 93\n    ecall\n",
        "    .text\nkernel:\n    beqz a0, done\n    addi a0, a0, -1\n    j kernel\ndone:\n    ret\n    .data\n.align 3\nscratch:\n    .space 12\n",
        ".data\n.align 3\noperands:\n    .dword 0x2238000000000001, 0x2238000000000002\nresults:\n    .space 16\n",
    ]);
}

#[test]
fn a_label_defined_in_two_units_fails() {
    let err = assert_link_fails_like_assemble(&[
        "start:\n    nop\n",
        ".text\n    nop\nstart:\n    ret\n",
    ]);
    assert_eq!(err.line, 5);
    assert!(err.message.contains("duplicate symbol \"start\""), "{err}");
}

#[test]
fn an_undefined_symbol_fails_and_is_named() {
    for pieces in [
        ["start:\n    nop\n", ".text\n    call missing_fn\n"],
        ["start:\n    nop\n", ".data\n    .dword missing_fn\n"],
    ] {
        let err = assert_link_fails_like_assemble(&pieces);
        assert_eq!(err.line, 4);
        assert!(err.message.contains("undefined symbol \"missing_fn\""), "{err}");
    }
}

#[test]
fn an_instruction_that_does_not_encode_fails_at_its_line() {
    // `addi` has no symbol operand, so it is encoded at parse time; the
    // failure must still surface in source order, from the link.
    let err = assert_link_fails_like_assemble(&[
        "start:\n    nop\n",
        ".text\n    addi a0, a0, 5000\n    j nowhere\n",
    ]);
    assert_eq!(err.line, 4);
    assert!(err.message.contains("immediate"), "{err}");
}
