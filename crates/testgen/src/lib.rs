//! Test-program generator and verification database (paper §III).
//!
//! The paper's framework includes "a test program generator written in C"
//! whose configuration covers: precision (double or quad), input data type
//! ("rounding, overflow, normal, underflow, etc."), the arithmetic
//! operation, the number of repetitions per calculation, and the output
//! pattern (execution time or number of cycles). Its evaluation runs 8,000
//! samples "including overflow, underflow, normal, rounding, and clamping
//! cases".
//!
//! This crate reproduces that component:
//!
//! * [`TestConfig`] — the generator configuration;
//! * [`generate`] — deterministic constrained-random operands per
//!   [`CaseClass`], produced by rejection sampling against the reference
//!   arithmetic so every vector provably exhibits its class;
//! * [`verification_database`] — vectors paired with golden results and
//!   status flags from the `decnum` oracle (the role of the arithmetic
//!   verification database \[18\] in the paper);
//! * [`driver_unit`] and [`operand_unit`] — the guest-side test program
//!   skeleton that loops over the operand table calling a kernel, with
//!   `mark` syscalls delimiting the measurement region, and the operand
//!   table itself, built as assembler units from instructions and words.
//!   [`driver_source`] and [`operand_data_section`] write the same pieces
//!   as assembly text, the oracle the units are tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod gen;

pub use driver::{
    driver_source, driver_unit, operand_data_section, operand_unit, DriverLayout, MARK_LOOP_END,
    MARK_LOOP_START, MARK_SAMPLE_BASE,
};
pub use gen::{
    generate, paper_mix, verification_database, CaseClass, GoldenResult, Operation, Precision,
    TestConfig, TestVector,
};
