//! [`UnitBuilder`]: a [`Unit`] from instructions and data words, with no
//! source text to format or parse.

use std::borrow::Cow;

use riscv_isa::instr::{BranchOp, Instr};
use riscv_isa::Reg;

use crate::asm::{is_symbol, li_sequence, AsmError, Operand, PendingInstr, Section, Unit};

/// Builds the [`Unit`] that [`parse`](crate::parse) makes of a source text,
/// one source line per call, for generators that would otherwise format
/// text only to have it parsed again.
///
/// Each call stands for one line of that text (a label on its own line),
/// so the unit's line numbers — and a linked program's `line_map` — are
/// the text's. The builder starts in `.text`, like `parse`. Misuse (an
/// instruction outside `.text`, a duplicate label, an immediate that does
/// not encode, …) is reported by [`UnitBuilder::finish`], at the line of
/// the first offending call.
///
/// # Example
///
/// ```
/// use riscv_asm::{assemble, link, UnitBuilder};
/// use riscv_isa::instr::{BranchOp, Instr};
/// use riscv_isa::Reg;
///
/// let mut b = UnitBuilder::new();
/// b.label("start")
///     .la(Reg::A0, "table")
///     .branch(BranchOp::Beq, Reg::A0, Reg::ZERO, "start")
///     .li(Reg::A7, 93)
///     .instr(Instr::Ecall)
///     .data()
///     .align(3)
///     .label("table")
///     .dwords(&[7, 8]);
/// let text = "start:\nla a0, table\nbeq a0, zero, start\nli a7, 93\necall\n\
///             .data\n.align 3\ntable:\n.dword 7, 8\n";
/// assert_eq!(link(&[&b.finish()?])?, assemble(text)?);
/// # Ok::<(), riscv_asm::AsmError>(())
/// ```
#[derive(Debug)]
pub struct UnitBuilder {
    unit: Unit,
    section: Section,
    error: Option<AsmError>,
}

impl Default for UnitBuilder {
    fn default() -> Self {
        UnitBuilder::new()
    }
}

impl UnitBuilder {
    /// An empty unit, in `.text`.
    #[must_use]
    pub fn new() -> UnitBuilder {
        UnitBuilder {
            unit: Unit::empty(),
            section: Section::Text,
            error: None,
        }
    }

    /// Starts the next line; returns its 1-based number.
    fn next_line(&mut self) -> usize {
        self.unit.lines += 1;
        self.unit.lines
    }

    /// Records the first misuse.
    fn fail(&mut self, line: usize, message: String) -> &mut Self {
        self.error.get_or_insert(AsmError::new(line, message));
        self
    }

    /// Starts a line that must be in `section` (for `what`); returns its
    /// number, or `None` after recording the misuse.
    fn line_in(&mut self, section: Section, what: &str) -> Option<usize> {
        let line = self.next_line();
        if self.section == section {
            return Some(line);
        }
        let outside = match section {
            Section::Text => ".text",
            Section::Data => ".data",
        };
        self.fail(line, format!("{what} outside {outside}"));
        None
    }

    /// An empty line.
    pub fn blank(&mut self) -> &mut Self {
        self.next_line();
        self
    }

    /// `.text`: later instructions go to the text section.
    pub fn text(&mut self) -> &mut Self {
        self.next_line();
        self.section = Section::Text;
        self
    }

    /// `.data`: later data goes to the data section.
    pub fn data(&mut self) -> &mut Self {
        self.next_line();
        self.section = Section::Data;
        self
    }

    /// `.align log2`: pads the current section to a `2^log2`-byte boundary.
    pub fn align(&mut self, log2: u32) -> &mut Self {
        let line = self.next_line();
        if log2 > 12 {
            return self.fail(line, format!(".align {log2} too large"));
        }
        self.unit.align(self.section, log2, line);
        self
    }

    /// `name:` on a line of its own.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let line = self.next_line();
        if !is_symbol(name) {
            return self.fail(line, format!("invalid label name {name:?}"));
        }
        let here = self.unit.here(self.section);
        self.unit.define(name, line, here);
        self
    }

    /// One instruction that names no symbol.
    pub fn instr(&mut self, instr: Instr) -> &mut Self {
        let Some(line) = self.line_in(Section::Text, "instruction") else {
            return self;
        };
        match instr.encode() {
            Ok(word) => self.unit.push_words([word], line),
            Err(e) => {
                self.fail(line, e.to_string());
            }
        }
        self
    }

    /// `li rd, imm`, expanded as the assembler expands it.
    pub fn li(&mut self, rd: Reg, imm: i64) -> &mut Self {
        let Some(line) = self.line_in(Section::Text, "instruction") else {
            return self;
        };
        let instrs = li_sequence(rd, imm);
        let words = instrs
            .iter()
            .map(|instr| instr.encode().expect("li sequences encode"));
        self.unit.push_words(words, line);
        self
    }

    /// `la rd, symbol`.
    pub fn la(&mut self, rd: Reg, symbol: &str) -> &mut Self {
        self.symbolic("la", vec![Operand::Reg(rd), Operand::Sym(symbol.into())], 8)
    }

    /// `call symbol`.
    pub fn call(&mut self, symbol: &str) -> &mut Self {
        self.symbolic("call", vec![Operand::Sym(symbol.into())], 8)
    }

    /// A conditional branch to label `target`.
    pub fn branch(&mut self, op: BranchOp, rs1: Reg, rs2: Reg, target: &str) -> &mut Self {
        let operands = vec![Operand::Reg(rs1), Operand::Reg(rs2), Operand::Sym(target.into())];
        self.symbolic(BranchOp::TABLE[op as usize].1, operands, 4)
    }

    /// An instruction that names a symbol, resolved when the unit is
    /// finished (a label of its own unit) or linked.
    fn symbolic(
        &mut self,
        mnemonic: &'static str,
        operands: Vec<Operand>,
        size: u64,
    ) -> &mut Self {
        if let Some(line) = self.line_in(Section::Text, "instruction") {
            self.unit.push_instr(
                PendingInstr {
                    mnemonic: Cow::Borrowed(mnemonic),
                    operands,
                    size,
                },
                line,
            );
        }
        self
    }

    /// `.dword` of `values`, on one line.
    pub fn dwords(&mut self, values: &[u64]) -> &mut Self {
        if self.line_in(Section::Data, ".dword").is_some() {
            let bytes = &mut self.unit.data_fragment().bytes;
            for value in values {
                bytes.extend_from_slice(&value.to_le_bytes());
            }
        }
        self
    }

    /// `.space bytes`: that many zero bytes.
    pub fn space(&mut self, bytes: usize) -> &mut Self {
        if self.line_in(Section::Data, ".space").is_some() {
            let data = &mut self.unit.data_fragment().bytes;
            data.resize(data.len() + bytes, 0);
        }
        self
    }

    /// The finished unit: what `parse` makes of the same lines.
    ///
    /// # Errors
    ///
    /// The first misuse, at its line: an instruction outside `.text`, data
    /// outside `.data`, an `.align` above 12, an invalid or duplicate
    /// label, or an instruction that does not encode.
    pub fn finish(mut self) -> Result<Unit, AsmError> {
        if let Some(error) = self.error {
            return Err(error);
        }
        self.unit.seal()?;
        Ok(self.unit)
    }
}
