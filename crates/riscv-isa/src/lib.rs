//! RV64IM instruction-set definitions: encoding, decoding, disassembly and
//! the RoCC custom-instruction format.
//!
//! This crate is the shared vocabulary of the whole evaluation framework —
//! the assembler emits [`Instr`] values, and the functional ([`riscv-sim`]),
//! cycle-accurate (`rocket-sim`) and atomic (`atomic-sim`) simulators all
//! decode through it. The [`alu`] module is the one definition of what each
//! integer operation computes, which the functional core executes and
//! `rvlint` folds constants with; the core executes the flat [`Op`] form
//! of each decoded instruction. The [`rocc`] module implements the
//! custom-instruction encoding of the paper's Fig. 3 / Table III.
//!
//! [`riscv-sim`]: https://www.decimalarith.info
//!
//! # Example
//!
//! ```
//! use riscv_isa::{Instr, Reg};
//! use riscv_isa::instr::OpOp;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let add = Instr::Op { op: OpOp::Add, rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 };
//! let word = add.encode()?;
//! assert_eq!(Instr::decode(word)?, add);
//! assert_eq!(add.to_string(), "add a0, a1, a2");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alu;
pub mod csr;
mod decode;
mod encode;
pub mod instr;
pub mod op;
mod reg;
pub mod rocc;

pub use decode::DecodeError;
pub use encode::EncodeError;
pub use instr::Instr;
pub use op::Op;
pub use reg::{ParseRegError, Reg};
