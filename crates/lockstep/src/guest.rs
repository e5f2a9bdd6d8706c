//! Building, loading and pairing simulators for lockstep runs — over raw
//! assembled programs (the fuzzer's case) and over the evaluation
//! framework's guest programs (the conformance case).

use codesign::framework::{guest_budget, load_program, GuestProgram};
use codesign::kernels::KernelKind;
use riscv_asm::Program;
use riscv_sim::{Cpu, Simulator};
use rocc::DecimalAccelerator;
use testgen::TestVector;

use crate::compare::{run_lockstep, LockstepOptions, LockstepOutcome, Termination, DEFAULT_CONTEXT};

/// Which simulator plays one side of a lockstep pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// The functional (Spike-role) core.
    Functional,
    /// The cycle-accurate Rocket-like core.
    Rocket,
    /// The Gem5-`AtomicSimpleCPU`-like model.
    Atomic,
}

impl SimKind {
    /// All three simulators.
    pub const ALL: [SimKind; 3] = [SimKind::Functional, SimKind::Rocket, SimKind::Atomic];

    /// The label the simulator reports in divergence output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SimKind::Functional => "functional",
            SimKind::Rocket => "rocket",
            SimKind::Atomic => "atomic",
        }
    }

    /// Builds a fresh simulator of this kind with the decimal accelerator
    /// attached (replace it with [`riscv_sim::Cpu::attach_coprocessor`]).
    #[must_use]
    pub fn build(self) -> Box<dyn Simulator> {
        let mut sim: Box<dyn Simulator> = match self {
            SimKind::Functional => Box::new(Cpu::new()),
            SimKind::Rocket => Box::new(rocket_sim::RocketSim::new(
                rocket_sim::TimingConfig::default(),
            )),
            SimKind::Atomic => Box::new(atomic_sim::AtomicSim::new(
                atomic_sim::AtomicConfig::default(),
            )),
        };
        sim.cpu_mut()
            .attach_coprocessor(Box::new(DecimalAccelerator::new()));
        sim
    }
}

impl std::fmt::Display for SimKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// An ordered pair of simulators to run in lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// The first side.
    pub a: SimKind,
    /// The second side.
    pub b: SimKind,
}

impl Pair {
    /// The three distinct pairs over the three simulators.
    pub const ALL: [Pair; 3] = [
        Pair { a: SimKind::Functional, b: SimKind::Rocket },
        Pair { a: SimKind::Functional, b: SimKind::Atomic },
        Pair { a: SimKind::Rocket, b: SimKind::Atomic },
    ];
}

impl std::fmt::Display for Pair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} vs {}", self.a, self.b)
    }
}

/// Runs one assembled program on a pair of fresh simulators, each with
/// the decimal accelerator attached, in lockstep.
#[must_use]
pub fn run_program_pair(
    program: &Program,
    pair: Pair,
    options: &LockstepOptions,
) -> LockstepOutcome {
    let mut a = pair.a.build();
    let mut b = pair.b.build();
    load_program(a.cpu_mut(), program);
    load_program(b.cpu_mut(), program);
    run_lockstep(a.as_mut(), b.as_mut(), options)
}

/// Runs an evaluation-framework guest on a pair of simulators in lockstep,
/// with the decimal accelerator attached on both sides (exactly as the
/// framework's own runners attach it).
#[must_use]
pub fn run_guest_pair(guest: &GuestProgram, pair: Pair, context: usize) -> LockstepOutcome {
    let options = LockstepOptions {
        max_instructions: guest_budget(guest),
        context,
    };
    run_program_pair(&guest.program, pair, &options)
}

/// Lockstep-checks `guest` on every simulator pair and returns each pair
/// that fails: a divergence, or an agreement that only ended because the
/// step budget ran out ([`Termination::BudgetExhausted`] — a bounded hang,
/// not a pass). An empty result means every pair agreed to an exit or to
/// the same fault.
#[must_use]
pub fn check_guest_all_pairs(guest: &GuestProgram) -> Vec<(Pair, LockstepOutcome)> {
    Pair::ALL
        .into_iter()
        .map(|pair| (pair, run_guest_pair(guest, pair, DEFAULT_CONTEXT)))
        .filter(|(_, outcome)| {
            !matches!(
                outcome,
                LockstepOutcome::Agreement {
                    termination: Termination::Exited(_) | Termination::MatchingFault(_),
                    ..
                }
            )
        })
        .collect()
}

/// Builds the guest for `kind` over `vectors` and runs
/// [`check_guest_all_pairs`] on it.
///
/// # Panics
///
/// Panics if the kernel emitter produces unassemblable source (a framework
/// bug, identical to how the framework's own runners treat it).
#[must_use]
pub fn check_kernel_all_pairs(
    kind: KernelKind,
    vectors: &[TestVector],
) -> Vec<(Pair, LockstepOutcome)> {
    let guest = codesign::framework::build_guest(kind, vectors, 1)
        .unwrap_or_else(|e| panic!("{kind}: {e}"));
    check_guest_all_pairs(&guest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_asm::assemble;
    use testgen::DriverLayout;

    #[test]
    fn a_guest_that_never_exits_fails_on_every_pair() {
        let guest = GuestProgram {
            program: assemble("start:\n    j start\n").unwrap(),
            layout: DriverLayout {
                count: 0,
                repetitions: 1,
                per_sample_marks: false,
            },
            kind: KernelKind::Software,
        };
        let failing = check_guest_all_pairs(&guest);
        assert_eq!(
            failing.iter().map(|(pair, _)| *pair).collect::<Vec<_>>(),
            Pair::ALL
        );
        for (pair, outcome) in &failing {
            assert!(
                matches!(
                    outcome,
                    LockstepOutcome::Agreement {
                        termination: Termination::BudgetExhausted,
                        ..
                    }
                ),
                "{pair}: {outcome:?}"
            );
        }
    }
}
