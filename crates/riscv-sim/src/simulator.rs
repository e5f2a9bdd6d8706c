//! The one interface every evaluation platform implements, and the charge
//! routine a timing model plugs into the core.

use crate::{Cpu, CpuError, Event, Retired};

/// A simulator that executes guest code through a wrapped functional
/// [`Cpu`]: the functional core itself, or a timing model around one
/// (`rocket-sim`, `atomic-sim`).
///
/// Loading, coprocessors and architectural state all live on the
/// [`Cpu`] reached through [`Simulator::cpu_mut`]; a simulator only adds
/// how an instruction is charged. Harnesses (the evaluation framework, the
/// lockstep comparator, campaigns) drive any platform through this trait,
/// statically or as `dyn Simulator`.
///
/// `step` executes one instruction; lockstep and the fault campaign's
/// replays drive it. `Cpu`, `RocketSim` and `AtomicSim` override `run` to
/// execute whole blocks through [`Cpu::run_with`], with the same results
/// as stepping, counters and cycles included. A wrapper that implements
/// only `step` (a lockstep mutant, a test recorder) gets the provided
/// `run`, which steps.
pub trait Simulator {
    /// Short name used in reports (e.g. `"rocket"`).
    fn label(&self) -> &'static str;

    /// The wrapped functional core.
    fn cpu(&self) -> &Cpu;

    /// The wrapped functional core, mutably (for loading and setup).
    fn cpu_mut(&mut self) -> &mut Cpu;

    /// Executes one instruction, charging the platform's modelled time.
    ///
    /// # Errors
    ///
    /// Propagates the functional core's [`CpuError`].
    fn step(&mut self) -> Result<Event, CpuError>;

    /// Runs until the guest exits, returning its exit code. Every step
    /// counts against `max_instructions`: a retirement, the exiting
    /// `ecall` and a delivered trap.
    ///
    /// The provided method calls [`Simulator::step`] in a loop.
    ///
    /// # Errors
    ///
    /// Propagates any [`CpuError`] from [`Simulator::step`], or
    /// [`CpuError::InstructionLimit`] if the guest did not exit within
    /// `max_instructions` steps.
    fn run(&mut self, max_instructions: u64) -> Result<i64, CpuError> {
        for _ in 0..max_instructions {
            if let Event::Exited { code } = self.step()? {
                return Ok(code);
            }
        }
        Err(CpuError::InstructionLimit(max_instructions))
    }
}

/// How a timing model charges what the core executes: the one charge
/// routine behind both its `step` ([`Cpu::step_with`]) and its `run`
/// ([`Cpu::run_with`]).
pub trait Timing {
    /// The cycle count guest `rdcycle` and `mark` should read during the
    /// next instruction, or `None` to keep the core's own count (one per
    /// step). Asked before every instruction.
    fn cycle(&self) -> Option<u64>;

    /// Charges one retired instruction.
    ///
    /// # Errors
    ///
    /// A [`CpuError`] the model cannot charge through, which the run
    /// returns as it is.
    fn retired(&mut self, retired: &Retired) -> Result<(), CpuError>;

    /// Charges a trap delivered to the guest's handler.
    fn trapped(&mut self);

    /// Charges the exiting `ecall`.
    fn exited(&mut self);
}
