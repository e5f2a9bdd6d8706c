//! Functional RV64IM simulator — the role Spike plays in the paper's
//! framework ("the binaries are simulated by SPIKE ISA simulator for
//! functional verification").
//!
//! The crate provides:
//!
//! * [`Memory`] — sparse byte-addressable guest memory, bounded at
//!   [`Memory::MAX_PAGES`] pages;
//! * [`Cpu`] — an instruction-accurate RV64IM core with a syscall-style host
//!   interface (`exit`, `write`, and a `mark` extension for delimiting
//!   measurement regions) and user counters (`rdcycle`, `rdinstret`);
//! * [`Coprocessor`] — the RoCC attachment point that the decimal
//!   accelerator implements;
//! * [`Simulator`] — the interface every evaluation platform implements
//!   (`step`, a provided run-to-exit `run`, and access to the wrapped
//!   [`Cpu`]).
//!
//! Timing models (the Rocket-like pipeline in `rocket-sim`, the Gem5-like
//! atomic CPU in `atomic-sim`) wrap [`Cpu`] for semantics and plug their
//! clock into it as a [`Timing`], as the functional core's own
//! one-cycle-per-step clock is, so one executor is shared by every
//! evaluation platform — the same property the paper gets from reusing
//! one RISC-V binary everywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coproc;
mod cpu;
mod memory;
mod simulator;

use std::fmt;

pub use coproc::{
    CoprocSnapshot, Coprocessor, NoCoprocessor, RoccCommand, RoccResponse, SnapshotError, ROCC_HANG,
};
pub use cpu::{syscall, Cpu, Event, Marker, MemAccess, Retired, TrapRecord};
pub use memory::Memory;
pub use simulator::{Simulator, Timing};

/// Faults and limits surfaced by the simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CpuError {
    /// A data access touched an unmapped page.
    UnmappedAddress(u64),
    /// Instruction fetch from an unmapped page.
    FetchFault(u64),
    /// The program counter is not 4-byte aligned.
    MisalignedPc(u64),
    /// The fetched word is not a recognized instruction.
    Decode(riscv_isa::DecodeError),
    /// `ecall` with an unknown syscall number in `a7`.
    UnknownSyscall(u64),
    /// The program hit `ebreak`.
    Breakpoint(u64),
    /// A write to a read-only CSR.
    ReadOnlyCsr(u16),
    /// A custom instruction executed with no accelerator attached.
    NoCoprocessor {
        /// The function the instruction requested.
        funct7: u8,
    },
    /// An accelerator function is not implemented.
    UnknownRoccFunction {
        /// The offending funct7 value.
        funct7: u8,
    },
    /// The accelerator returned malformed data for this command.
    RoccProtocol(&'static str),
    /// A command with `xd` set produced no destination value.
    MissingRoccResponse {
        /// The function that misbehaved.
        funct7: u8,
    },
    /// The accelerator did not respond within the core's RoCC busy-watchdog
    /// bound (a wedged interface FSM).
    RoccTimeout {
        /// The function the hung command requested.
        funct7: u8,
        /// The watchdog bound that expired, in cycles.
        watchdog: u32,
    },
    /// [`Simulator::run`] exhausted its instruction budget without the
    /// program exiting.
    InstructionLimit(u64),
    /// A write to this address would have mapped more than
    /// [`Memory::MAX_PAGES`] pages; it changed nothing.
    MemoryLimit(u64),
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CpuError::UnmappedAddress(a) => write!(f, "access to unmapped address {a:#x}"),
            CpuError::FetchFault(a) => write!(f, "instruction fetch fault at {a:#x}"),
            CpuError::MisalignedPc(a) => write!(f, "misaligned pc {a:#x}"),
            CpuError::Decode(e) => write!(f, "{e}"),
            CpuError::UnknownSyscall(n) => write!(f, "unknown syscall {n}"),
            CpuError::Breakpoint(a) => write!(f, "breakpoint at {a:#x}"),
            CpuError::ReadOnlyCsr(c) => write!(f, "write to read-only csr {c:#x}"),
            CpuError::NoCoprocessor { funct7 } => {
                write!(f, "custom instruction funct7={funct7} with no accelerator attached")
            }
            CpuError::UnknownRoccFunction { funct7 } => {
                write!(f, "accelerator does not implement funct7={funct7}")
            }
            CpuError::RoccProtocol(msg) => write!(f, "rocc protocol violation: {msg}"),
            CpuError::MissingRoccResponse { funct7 } => {
                write!(f, "accelerator returned no rd value for funct7={funct7} with xd set")
            }
            CpuError::RoccTimeout { funct7, watchdog } => {
                write!(
                    f,
                    "accelerator did not respond to funct7={funct7} within {watchdog} cycles"
                )
            }
            CpuError::InstructionLimit(n) => {
                write!(f, "program did not exit within {n} instructions")
            }
            CpuError::MemoryLimit(a) => write!(f, "write to {a:#x} passes the memory bound"),
        }
    }
}

impl std::error::Error for CpuError {}

impl From<riscv_isa::DecodeError> for CpuError {
    fn from(e: riscv_isa::DecodeError) -> Self {
        CpuError::Decode(e)
    }
}
