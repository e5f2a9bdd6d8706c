//! Cycle-accurate Rocket-like core model.
//!
//! This crate plays the role of the paper's Rocket-chip emulator: it wraps
//! the functional executor from [`riscv_sim`] with an in-order single-issue
//! pipeline timing model — register scoreboard, multi-cycle multiply/divide,
//! L1 instruction/data caches with seeded random replacement, taken-branch
//! flush penalty, and RoCC dispatch/response timing — and splits every run's
//! cycles into a software part and a hardware (accelerator) part, which is
//! exactly the decomposition reported in the paper's Table IV. [`RocketSim`]
//! is driven through [`riscv_sim::Simulator`]; its counters are read with
//! [`RocketSim::stats`].
//!
//! # Example
//!
//! ```
//! use rocket_sim::{RocketSim, TimingConfig};
//! use riscv_isa::{Instr, Reg};
//! use riscv_isa::instr::OpImmOp;
//! use riscv_sim::Simulator;
//!
//! # fn main() -> Result<(), riscv_sim::CpuError> {
//! let mut sim = RocketSim::new(TimingConfig::default());
//! let prog = [
//!     Instr::OpImm { op: OpImmOp::Addi, rd: Reg::A0, rs1: Reg::ZERO, imm: 0 },
//!     Instr::OpImm { op: OpImmOp::Addi, rd: Reg::A7, rs1: Reg::ZERO, imm: 93 },
//!     Instr::Ecall,
//! ];
//! for (i, instr) in prog.iter().enumerate() {
//!     sim.cpu.memory.write_u32(0x1000 + 4 * i as u64, instr.encode().unwrap())?;
//! }
//! sim.cpu.set_pc(0x1000);
//! assert_eq!(sim.run(100)?, 0);
//! let stats = sim.stats();
//! assert!(stats.cycles >= stats.instret);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod core;

pub use crate::core::{RocketSim, RocketSnapshot, RunStats, TimingConfig};
pub use cache::{Cache, CacheConfig, CacheSnapshot, CacheStats};
