//! An RV64IM assembler with separate parse and link steps.
//!
//! This crate replaces the GNU cross-toolchain of the paper's framework: the
//! evaluated guest kernels are authored in textual RISC-V assembly (emitted
//! by the `codesign` crate or written by hand), assembled here into real
//! RV64IM machine code, and executed on the functional, cycle-accurate and
//! atomic simulators.
//!
//! [`parse`] turns one source text into a [`Unit`]: all the per-line work,
//! including the machine words of every instruction that names no symbol.
//! [`link`] places units one after another (text after text, data after
//! data), pads `.align`s, assigns symbol addresses and encodes what refers
//! to symbols. A unit can be parsed once and linked into many programs —
//! the co-design framework parses each kernel once per process and links it
//! with every driver and operand table. [`assemble`] is a one-unit link.
//! Parsing also encodes what placement cannot change (branches and calls
//! within one `.align`-free run of a unit's text), so `link` copies those
//! words and patches only the references that placement moves.
//!
//! [`UnitBuilder`] makes the same [`Unit`] without text: one call per
//! source line, for generators (the co-design framework's driver loop and
//! operand tables) that would otherwise format text only to parse it.
//!
//! Supported surface:
//!
//! * all RV64IM instructions plus `ecall`/`ebreak`/`fence`/Zicsr;
//! * pseudo-instructions: `nop`, `li` (full 64-bit materialization), `la`,
//!   `mv`, `not`, `neg`, `sext.w`, `seqz`/`snez`/`sltz`/`sgtz`,
//!   `beqz`/`bnez`/`blez`/`bgez`/`bltz`/`bgtz`, `bgt`/`ble`/`bgtu`/`bleu`,
//!   `j`, `jr`, `call`, `ret`, `rdcycle`, `rdinstret`;
//! * RoCC custom instructions: `custom0 funct7, rd, rs1, rs2, xd, xs1, xs2`
//!   (likewise `custom1..3`);
//! * directives: `.text`, `.data`, `.align`, `.byte`, `.half`, `.word`,
//!   `.dword`/`.quad`, `.ascii`, `.asciz`, `.space`/`.zero`, `.globl`,
//!   `.equ`;
//! * `#`, `//` and `;` comments, decimal/hex/binary/char immediates.
//!
//! # Example
//!
//! ```
//! use riscv_asm::assemble;
//!
//! let program = assemble(r#"
//!     .text
//!     start:
//!         li   a0, 42
//!         li   a7, 93       # exit
//!         ecall
//! "#).unwrap();
//! assert_eq!(program.entry, riscv_asm::TEXT_BASE);
//! ```
//!
//! Two units, parsed separately and linked: the first calls a routine and
//! loads a table that the second defines.
//!
//! ```
//! use riscv_asm::{assemble, link, parse};
//!
//! let main = "start:\n    la a0, table\n    call double\n    li a7, 93\n    ecall\n";
//! let library = ".text\ndouble:\n    slli a0, a0, 1\n    ret\n.data\ntable:\n    .dword 21\n";
//! let linked = link(&[&parse(main)?, &parse(library)?])?;
//! assert_eq!(linked.symbol("table"), Some(riscv_asm::DATA_BASE));
//! assert_eq!(linked, assemble(&format!("{main}{library}"))?);
//! # Ok::<(), riscv_asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod builder;

pub use asm::{assemble, link, parse, AsmError, Program, Segment, SymbolTable, Unit};
pub use builder::UnitBuilder;

/// Base address of the `.text` section.
pub const TEXT_BASE: u64 = 0x8000_0000;

/// Base address of the `.data` section.
pub const DATA_BASE: u64 = 0x8010_0000;

/// Conventional initial stack pointer (grows down, away from both sections).
pub const STACK_TOP: u64 = 0x8100_0000;
