//! Lockstep differential verification for the decimal co-design framework.
//!
//! The paper's methodology trusts three independently-written simulators —
//! the functional (Spike-role) core, the cycle-accurate Rocket-like core,
//! and the Gem5-`AtomicSimpleCPU`-like model — to agree on the
//! architectural behaviour of every guest binary. This crate *checks* that
//! trust, the way Spike-based co-simulation checks an RTL core:
//!
//! * every retirement is read as a **canonical record**
//!   ([`RetirementRecord`], captured from the core after each step): pc,
//!   decoded instruction, register writeback, memory effect, RoCC response
//!   value — this crate alone decides what two simulators must agree on;
//! * [`run_lockstep`] steps two simulators through the same program and
//!   compares the streams retirement by retirement, reporting the first
//!   [`Divergence`] with the pc, the instruction, the register/memory
//!   delta, and the last retirements of shared context;
//! * the [`fuzz`] module generates seeded random-but-valid RV64IM programs
//!   (with RoCC command sequences mixed in), lockstep-checks every
//!   simulator pair, and shrinks failures to minimal programs by delta
//!   debugging;
//! * the [`rocc_diff`] module drives the decimal accelerator and an
//!   independent binary-arithmetic software model with the same command
//!   sequences;
//! * the [`inject`] module provides deliberately-faulty accelerators
//!   (wrong digit, stuck interface FSM) to prove the comparator catches
//!   RoCC-level bugs;
//! * the [`campaign`] module runs seeded single-bit fault-injection
//!   campaigns over the accelerator's architectural state, classifying
//!   every fault as masked, detected in-band, caught by the watchdog, or
//!   silent data corruption; each replay is bounded by instruction fuel
//!   and a fixed memory-page cap, and a replay that ends any other way is
//!   quarantined (it is deterministic, so it is never retried);
//! * the [`journal`] module provides the append-only, checksummed
//!   write-ahead journal and [`journal::CaseLog`], the one case loop that
//!   makes campaign, fuzz and conformance runs resumable: a killed run
//!   restarted with its journal completes with a byte-identical report.
//!
//! Cycle counts are timing, not architecture: guest `rdcycle` values
//! legitimately differ across timing models and are masked by the
//! comparator ([`canonical`]); `rdinstret` is identical everywhere and is
//! compared.
//!
//! # Example
//!
//! ```
//! use lockstep::{run_program_pair, LockstepOptions, Pair};
//! use riscv_asm::assemble;
//!
//! let program = assemble(
//!     "start:\n    li a0, 0\n    li a7, 93\n    ecall\n",
//! ).unwrap();
//! for pair in Pair::ALL {
//!     let outcome = run_program_pair(&program, pair, &LockstepOptions::default());
//!     assert!(outcome.is_agreement(), "{pair}: {:?}", outcome.divergence());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
mod compare;
pub mod fuzz;
mod guest;
pub mod inject;
pub mod journal;
pub mod rocc_diff;

pub use codesign::framework::{guest_budget, load_program};
pub use compare::{
    canonical, run_lockstep, Divergence, LockstepOptions, LockstepOutcome, MemEffect, RegDelta,
    RetirementRecord, StepOutcome, Termination, DEFAULT_CONTEXT,
};
pub use guest::{
    check_guest_all_pairs, check_kernel_all_pairs, run_guest_pair, run_program_pair, Pair, SimKind,
};

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_asm::{assemble, TEXT_BASE};
    use riscv_isa::Reg;
    use riscv_sim::{Cpu, CpuError, Event, Simulator};

    /// A functional core with a deliberate single-instruction semantic
    /// mutation: after the instruction at `mutate_at` retires, its
    /// destination register is corrupted (bit 0 flipped) — modelling an
    /// executor bug at exactly one retirement.
    struct MutantSim {
        cpu: Cpu,
        mutate_at: u64,
        fired: bool,
    }

    impl MutantSim {
        fn new(mutate_at: u64) -> Self {
            MutantSim {
                cpu: Cpu::new(),
                mutate_at,
                fired: false,
            }
        }
    }

    impl Simulator for MutantSim {
        fn label(&self) -> &'static str {
            "mutant"
        }

        fn cpu(&self) -> &Cpu {
            &self.cpu
        }

        fn cpu_mut(&mut self) -> &mut Cpu {
            &mut self.cpu
        }

        fn step(&mut self) -> Result<Event, CpuError> {
            let event = self.cpu.step()?;
            if let Event::Retired(retired) = &event {
                if retired.pc == self.mutate_at && !self.fired {
                    self.fired = true;
                    if let Some(rd) = retired.instr.dest() {
                        let value = self.cpu.reg(rd);
                        self.cpu.set_reg(rd, value ^ 1);
                    }
                }
            }
            Ok(event)
        }
    }

    const STRAIGHT_LINE: &str = "
        start:
            li t0, 5
            addi t1, t0, 1
            addi t2, t1, 2
            addi t3, t2, 3
            li a0, 0
            li a7, 93
            ecall
    ";

    #[test]
    fn mutation_self_check_reports_exact_pc() {
        // The single mutated retirement must be the reported divergence
        // point — this is the checker checking itself.
        let program = assemble(STRAIGHT_LINE).unwrap();
        let mutated_pc = TEXT_BASE + 2 * 4; // the `addi t2, t1, 2`
        let mut mutant = MutantSim::new(mutated_pc);
        let mut reference = Cpu::new();
        load_program(mutant.cpu_mut(), &program);
        load_program(&mut reference, &program);
        let outcome = run_lockstep(&mut mutant, &mut reference, &LockstepOptions::default());
        let divergence = outcome.divergence().expect("mutation must be caught");
        assert_eq!(divergence.pc, mutated_pc, "{divergence}");
        assert_eq!(divergence.step, 2);
        assert!(
            divergence.reg_delta.iter().any(|d| d.reg == Reg::T2),
            "{divergence}"
        );
        // The report must carry the shared pre-divergence context.
        assert_eq!(divergence.context.len(), 2);
        assert_eq!(divergence.context[0].pc, TEXT_BASE);
    }

    #[test]
    fn unmutated_pair_agrees() {
        let program = assemble(STRAIGHT_LINE).unwrap();
        // A MutantSim that never fires behaves exactly like the reference.
        let mut mutant = MutantSim::new(u64::MAX);
        let mut reference = Cpu::new();
        load_program(mutant.cpu_mut(), &program);
        load_program(&mut reference, &program);
        let outcome = run_lockstep(&mut mutant, &mut reference, &LockstepOptions::default());
        assert!(outcome.is_agreement());
    }

    #[test]
    fn rdcycle_is_masked_but_rdinstret_is_compared() {
        // rdcycle reads each timing model's own counter — the functional
        // and rocket cores disagree wildly on it, and the comparator must
        // not flag that. rdinstret is architectural and must agree.
        let program = assemble(
            "
            start:
                nop
                nop
                rdcycle t0
                rdinstret t1
                li a0, 0
                li a7, 93
                ecall
            ",
        )
        .unwrap();
        for pair in Pair::ALL {
            let outcome = run_program_pair(&program, pair, &LockstepOptions::default());
            assert!(
                outcome.is_agreement(),
                "{pair}: {}",
                outcome.divergence().unwrap()
            );
        }
    }

    #[test]
    fn matching_faults_are_agreement() {
        // Both sides hit the same unmapped load: architectural agreement.
        let program = assemble(
            "
            start:
                li t0, 0x666000
                ld a0, 0(t0)
                li a7, 93
                ecall
            ",
        )
        .unwrap();
        let outcome = run_program_pair(
            &program,
            Pair { a: SimKind::Functional, b: SimKind::Rocket },
            &LockstepOptions::default(),
        );
        match outcome {
            LockstepOutcome::Agreement {
                termination: Termination::MatchingFault(CpuError::UnmappedAddress(0x66_6000)),
                ..
            } => {}
            other => panic!("expected matching fault, got {other:?}"),
        }
    }

    #[test]
    fn fuzz_smoke_run_is_clean() {
        let report = fuzz::run_fuzz(&fuzz::FuzzConfig {
            programs: 15,
            ..fuzz::FuzzConfig::default()
        });
        assert_eq!(report.programs_run, 15);
        assert_eq!(report.pairs_checked, 45);
        if let Some(failure) = report.failures.first() {
            panic!(
                "program {} on {} diverged:\n{}\nshrunk to:\n{}",
                failure.program_index, failure.pair, failure.divergence, failure.shrunk_source
            );
        }
        assert!(report.instructions_checked > 0);
    }

    #[test]
    fn fuzz_is_deterministic_in_the_seed() {
        let config = fuzz::FuzzConfig::default();
        assert_eq!(
            fuzz::nth_program_source(&config, 3),
            fuzz::nth_program_source(&config, 3)
        );
        assert_ne!(
            fuzz::nth_program_source(&config, 3),
            fuzz::nth_program_source(&config, 4)
        );
    }

    #[test]
    fn fuzzer_catches_and_shrinks_an_injected_divergence() {
        // Wrong-digit DEC_ADD on one side of the pair: the fuzzer's own
        // machinery (generate → lockstep → shrink) must find the mutant
        // and shrink the failure down to a program that still contains a
        // DEC_ADD command.
        use crate::compare::{run_lockstep, LockstepOptions};
        use crate::fuzz::{generate_items, render_program, shrink_items, Item, SplitMix64};
        use crate::inject::WrongDigitAccelerator;
        use rocc::{DecimalAccelerator, DecimalFunct};

        let mut rng = SplitMix64::new(7);
        let mut items = generate_items(&mut rng, 60);
        // A DEC_ADD that always executes (no branch skips past the last
        // item), so the wrong-digit mutant is guaranteed to be exercised.
        items.push(Item::new(
            "bdec",
            vec![
                "li t0, 0x15".to_string(),
                "li t1, 0x27".to_string(),
                "custom0 4, t2, t0, t1, 1, 1, 1".to_string(),
            ],
        ));
        let items = items;
        let tail = rng.clone();
        let render = |items: &[crate::fuzz::Item]| render_program(items, &mut tail.clone());
        let reproduces = |items: &[crate::fuzz::Item]| {
            let Ok(program) = assemble(&render(items)) else {
                return false;
            };
            let mut good = Cpu::new();
            good.attach_coprocessor(Box::new(DecimalAccelerator::new()));
            let mut bad = Cpu::new();
            bad.attach_coprocessor(Box::new(WrongDigitAccelerator::new(DecimalFunct::DecAdd)));
            load_program(&mut good, &program);
            load_program(&mut bad, &program);
            !run_lockstep(&mut good, &mut bad, &LockstepOptions::default()).is_agreement()
        };
        assert!(
            reproduces(&items),
            "the appended DEC_ADD item must expose the wrong-digit mutant"
        );
        let shrunk = shrink_items(items.clone(), &reproduces);
        assert!(shrunk.len() < items.len(), "shrinker should remove items");
        assert!(reproduces(&shrunk));
        let shrunk_source = render(&shrunk);
        assert!(
            shrunk_source.contains("custom0 4,"),
            "minimal program keeps the DEC_ADD:\n{shrunk_source}"
        );
    }

    #[test]
    fn rocc_command_differential_is_clean() {
        let report = rocc_diff::fuzz_rocc_commands(2019, 3_000);
        assert_eq!(report.commands_run, 3_000);
        assert!(report.ok(), "{:#?}", report.mismatches);
    }

    #[test]
    fn rocc_differential_catches_a_model_bug() {
        // Sanity: if the comparison were vacuous, a corrupted command
        // stream would pass too. Drive the accelerator directly out of
        // sync and check the differential notices.
        use rocc::{DecimalAccelerator, DecimalFunct};
        let mut accelerator = DecimalAccelerator::new();
        let mut model = rocc_diff::SoftwareModel::new();
        accelerator
            .command(DecimalFunct::DecAdd, 0x15, 0x27, 0, 0, 0)
            .unwrap();
        let rd = model.command(DecimalFunct::DecAdd, 0x15, 0x26, 0, 0, 0).unwrap();
        assert_ne!(rd, Some(0x42));
    }
}
