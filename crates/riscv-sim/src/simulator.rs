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
/// `step` executes one instruction; lockstep drives it. `Cpu`,
/// `RocketSim` and `AtomicSim` override `run` to execute whole blocks
/// through [`Cpu::run_with`], with the same results as stepping, counters
/// and cycles included. Each of the three charges
/// both paths to its one [`Timing`], the functional core's clock of one
/// cycle per step included. A wrapper that implements only `step` (a
/// lockstep mutant, a test recorder) gets the provided `run`, which steps.
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

/// A clock: how a timing model charges what the core executes, behind
/// both its `step` ([`Cpu::step_with`]) and its `run` ([`Cpu::run_with`]).
///
/// Every platform's clock is one, the functional core's included: its
/// `Cpu::step` and `Cpu::run` charge one cycle per step to a clock seeded
/// from [`Cpu::cycle`]. Each step is charged by exactly one call: a
/// retirement, a trap delivered to the guest's handler, or the exiting
/// `ecall`. A step that returns an error instead is not charged.
pub trait Timing {
    /// The cycle count so far, which guest `rdcycle` and `mark` read: the
    /// core copies it to [`Cpu::cycle`] before and after each step, and as
    /// each block of a run starts.
    fn cycle(&self) -> u64;

    /// Charges one retired instruction.
    fn retired(&mut self, retired: &Retired);

    /// Charges a trap delivered to the guest's handler.
    fn trapped(&mut self);

    /// Charges the exiting `ecall`.
    fn exited(&mut self);
}
