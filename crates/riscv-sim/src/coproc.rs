//! The RoCC coprocessor hook.
//!
//! The simulators treat an attached accelerator as a black box that consumes
//! commands and produces responses, mirroring the real RoCC `cmd`/`resp`
//! decoupled interfaces. Timing information (busy cycles, memory-port
//! traffic) rides along in the response so the cycle-accurate model can
//! charge it to the hardware bucket of Table IV; the functional simulator
//! simply ignores it.

use riscv_isa::rocc::RoccInstruction;

use crate::{CpuError, Memory};

/// A command sent to an accelerator over the RoCC `cmd` interface: the
/// decoded custom instruction plus the core-register values travelling with
/// it (valid only when the corresponding `xs` flag is set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoccCommand {
    /// The custom instruction.
    pub instruction: RoccInstruction,
    /// Value of `rs1` in the core register file (meaningful if `xs1`).
    pub rs1_value: u64,
    /// Value of `rs2` in the core register file (meaningful if `xs2`).
    pub rs2_value: u64,
}

/// Sentinel busy-cycle count meaning "the accelerator will never respond"
/// (a wedged interface FSM). The core's busy-watchdog turns this into a
/// bounded timeout instead of an infinite handshake wait.
pub const ROCC_HANG: u32 = u32::MAX;

/// An accelerator's response to one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoccResponse {
    /// Value to write to the core `rd` (required when the command had `xd`).
    pub rd_value: Option<u64>,
    /// Cycles the accelerator's execution FSM was busy serving this command,
    /// excluding the interface handshake (which the core model charges
    /// separately). [`ROCC_HANG`] means the response never arrives.
    pub busy_cycles: u32,
    /// Number of L1-D-side memory accesses performed via the RoCC `mem`
    /// interface.
    pub mem_accesses: u32,
}

impl RoccResponse {
    /// A response that never arrives: the accelerator is wedged and the
    /// core would wait on the `resp` handshake forever.
    #[must_use]
    pub fn hung() -> RoccResponse {
        RoccResponse {
            rd_value: None,
            busy_cycles: ROCC_HANG,
            mem_accesses: 0,
        }
    }

    /// True when this response models a hang (see [`ROCC_HANG`]).
    #[must_use]
    pub fn is_hung(&self) -> bool {
        self.busy_cycles == ROCC_HANG
    }
}

/// Opaque coprocessor state for [`Coprocessor::snapshot_state`].
///
/// Nothing in the simulators produces or consumes it: the type exists only
/// so that the counting accelerator wrapper in `perfbench/src/layers.rs`,
/// which overrides both snapshot hooks, keeps compiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoprocSnapshot {
    /// Implementation tag.
    pub tag: u32,
    /// Implementation-defined state bytes.
    pub data: Vec<u8>,
}

/// The error of [`Coprocessor::restore_state`]; kept only for
/// `perfbench/src/layers.rs`, like [`CoprocSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The coprocessor cannot restore state with this tag.
    Coprocessor {
        /// The tag of the rejected state.
        found: u32,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let SnapshotError::Coprocessor { found } = self;
        write!(f, "coprocessor cannot restore state with tag {found:#010x}")
    }
}

impl std::error::Error for SnapshotError {}

/// An accelerator attachable to a simulated core's RoCC port.
pub trait Coprocessor {
    /// Executes one command. `mem` is the core's memory as seen through the
    /// RoCC memory interface (the accelerator shares the L1-D cache).
    ///
    /// # Errors
    ///
    /// Returns [`CpuError`] for unimplemented functions or faulting memory
    /// accesses, which the core reports as an illegal-instruction-style
    /// failure at the call site.
    fn execute(&mut self, cmd: &RoccCommand, mem: &mut Memory) -> Result<RoccResponse, CpuError>;

    /// Called by the core when its busy-watchdog expires on this
    /// accelerator's response (it returned a [`RoccResponse::hung`] or
    /// claimed at least the core's fixed bound of 10,000 busy cycles,
    /// `ROCC_WATCHDOG`). The accelerator should force itself into a
    /// recoverable state; the default does nothing.
    fn watchdog_abort(&mut self) {}

    /// Resets all architectural accelerator state.
    fn reset(&mut self);

    /// Returns `None`. No simulator calls this hook; it exists only
    /// because `perfbench/src/layers.rs` overrides it.
    fn snapshot_state(&self) -> Option<CoprocSnapshot> {
        None
    }

    /// Rejects `snapshot`. No simulator calls this hook; it exists only
    /// because `perfbench/src/layers.rs` overrides it.
    ///
    /// # Errors
    ///
    /// Always returns [`SnapshotError::Coprocessor`].
    fn restore_state(&mut self, snapshot: &CoprocSnapshot) -> Result<(), SnapshotError> {
        Err(SnapshotError::Coprocessor {
            found: snapshot.tag,
        })
    }
}

/// A coprocessor port with nothing attached: any custom instruction faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCoprocessor;

impl Coprocessor for NoCoprocessor {
    fn execute(&mut self, cmd: &RoccCommand, _mem: &mut Memory) -> Result<RoccResponse, CpuError> {
        Err(CpuError::NoCoprocessor {
            funct7: cmd.instruction.funct7,
        })
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::rocc::CustomOpcode;
    use riscv_isa::Reg;

    #[test]
    fn no_coprocessor_faults() {
        let mut none = NoCoprocessor;
        let cmd = RoccCommand {
            instruction: RoccInstruction::reg_reg(CustomOpcode::Custom0, 4, Reg::A2, Reg::A1, Reg::A0),
            rs1_value: 1,
            rs2_value: 2,
        };
        let mut mem = Memory::new();
        assert!(matches!(
            none.execute(&cmd, &mut mem),
            Err(CpuError::NoCoprocessor { funct7: 4 })
        ));
    }
}
