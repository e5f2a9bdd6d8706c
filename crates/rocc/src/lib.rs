//! The RoCC decimal accelerator.
//!
//! This crate models the paper's hardware contribution: a decimal
//! coprocessor hanging off Rocket's RoCC interface, built around one BCD
//! carry-lookahead adder. It provides:
//!
//! * [`DecimalFunct`] — the instruction set (paper Table II plus the
//!   extension functions), one [`FunctSpec`] row per function;
//! * [`fsm::InterfaceFsm`] — the decode/interface FSM of Fig. 5, with an
//!   inspectable transition trace;
//! * [`DecimalAccelerator`] — the register set + execution unit of Fig. 4,
//!   implementing [`riscv_sim::Coprocessor`] so it attaches to any simulated
//!   core (and drivable directly for native-speed evaluation);
//! * [`AcceleratorConfig`] — per-method hardware cost estimates for the
//!   Pareto analysis.
//!
//! # Example
//!
//! ```
//! use rocc::{AcceleratorConfig, DecimalAccelerator, DecimalFunct};
//!
//! # fn main() -> Result<(), riscv_sim::CpuError> {
//! let mut acc = DecimalAccelerator::new();
//! let sum = acc.command(DecimalFunct::DecAdd, 0x0123, 0x0877, 0, 0, 0)?;
//! assert_eq!(sum.rd_value, Some(0x1000));
//! println!(
//!     "Method-1 accelerator ≈ {} NAND2-equivalent gates",
//!     AcceleratorConfig::method1().cost().gates
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accelerator;
mod cost;
pub mod fsm;
mod isa;
mod status;

pub use accelerator::{DecimalAccelerator, ACC_INDEX};
pub use cost::AcceleratorConfig;
pub use isa::{decode_reg_address, encode_reg_address, DecimalFunct, FunctSpec};
pub use status::{AccelCause, AccelStatus, STATUS_ERROR_BIT};
