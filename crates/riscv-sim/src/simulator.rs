//! The one interface every evaluation platform implements.

use crate::{Cpu, CpuError, Event};

/// A simulator that executes guest code through a wrapped functional
/// [`Cpu`]: the functional core itself, or a timing model around one
/// (`rocket-sim`, `atomic-sim`).
///
/// Loading, observers, coprocessors and architectural state all live on the
/// [`Cpu`] reached through [`Simulator::cpu_mut`]; a simulator only adds
/// how one step is charged. Harnesses (the evaluation framework, the
/// lockstep comparator, campaigns) drive any platform through this trait,
/// statically or as `dyn Simulator`.
pub trait Simulator {
    /// Short name used in reports (e.g. `"rocket"`).
    fn label(&self) -> &'static str;

    /// The wrapped functional core.
    fn cpu(&self) -> &Cpu;

    /// The wrapped functional core, mutably (for loading and setup).
    fn cpu_mut(&mut self) -> &mut Cpu;

    /// Executes one instruction, charging the platform's modelled time.
    ///
    /// Implementations are `#[inline]`: [`Simulator::run`] is instantiated
    /// in the calling crate, and the step must be inlinable there for the
    /// loop to compile as it would inside the simulator's own crate.
    ///
    /// # Errors
    ///
    /// Propagates the functional core's [`CpuError`].
    fn step(&mut self) -> Result<Event, CpuError>;

    /// Steps until the guest exits, returning its exit code.
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
