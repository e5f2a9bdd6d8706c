//! Lockstep divergence reports: the exact text of four reference reports,
//! memory-effect divergences, unbounded context, and a property test that
//! pins every report's position and context to the retirement stream of a
//! fresh single-simulator run.

use decimalarith::codesign::framework::{build_guest, load_program};
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::lockstep::fuzz::{nth_program_source, FuzzConfig};
use decimalarith::lockstep::inject::{StuckFsmAccelerator, WrongDigitAccelerator};
use decimalarith::lockstep::{
    canonical, run_guest_pair, run_lockstep, Divergence, LockstepOptions, Pair, RetirementRecord,
    DEFAULT_CONTEXT,
};
use decimalarith::riscv_asm::{assemble, Program};
use decimalarith::riscv_isa::instr::Instr;
use decimalarith::riscv_sim::{Coprocessor, Cpu, CpuError, Event, Simulator};
use decimalarith::rocc::{DecimalAccelerator, DecimalFunct};
use decimalarith::testgen::{generate, TestConfig};
use proptest::prelude::*;

/// What a [`Mutant`] corrupts once its chosen retirement has retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// Flip bit 0 of the destination register.
    Register,
    /// Flip bit 0 of the first byte the store wrote; registers untouched.
    Store,
}

/// A simulator with one deliberate bug: right after the retirement with
/// 0-based index `at` retires, `mutation` is applied to its state once.
struct Mutant {
    inner: Box<dyn Simulator>,
    at: u64,
    mutation: Mutation,
}

impl Mutant {
    fn new(inner: Box<dyn Simulator>, at: usize, mutation: Mutation) -> Self {
        Mutant {
            inner,
            at: at as u64,
            mutation,
        }
    }
}

impl Simulator for Mutant {
    fn label(&self) -> &'static str {
        "mutant"
    }

    fn cpu(&self) -> &Cpu {
        self.inner.cpu()
    }

    fn cpu_mut(&mut self) -> &mut Cpu {
        self.inner.cpu_mut()
    }

    fn step(&mut self) -> Result<Event, CpuError> {
        let event = self.inner.step()?;
        if let Event::Retired(retired) = &event {
            let cpu = self.inner.cpu_mut();
            if cpu.instret == self.at + 1 {
                match self.mutation {
                    Mutation::Register => {
                        let rd = retired.instr.dest().expect("mutated retirement writes rd");
                        let value = cpu.reg(rd);
                        cpu.set_reg(rd, value ^ 1);
                    }
                    Mutation::Store => {
                        let access = retired
                            .mem_access
                            .filter(|access| access.store)
                            .expect("mutated retirement is a store");
                        let byte = cpu.memory.read_u8(access.addr).unwrap();
                        cpu.memory.write_u8(access.addr, byte ^ 1).unwrap();
                    }
                }
            }
        }
        Ok(event)
    }
}

/// A fresh functional core (with the decimal accelerator when `rocc`),
/// loaded with `program`.
fn functional(program: &Program, rocc: bool) -> Box<dyn Simulator> {
    let mut cpu = Cpu::new();
    if rocc {
        cpu.attach_coprocessor(Box::new(DecimalAccelerator::new()));
    }
    load_program(&mut cpu, program);
    Box::new(cpu)
}

/// The canonical retirement stream of `program` on one fresh functional
/// core, read with the public API: every retirement's
/// `RetirementRecord::capture`, canonicalized, until the program exits or
/// faults.
fn reference_stream(program: &Program, rocc: bool) -> Vec<RetirementRecord> {
    let mut sim = functional(program, rocc);
    let mut stream = Vec::new();
    for _ in 0..1_000_000 {
        match sim.step() {
            Ok(Event::Retired(retired)) => {
                stream.push(canonical(RetirementRecord::capture(sim.cpu(), &retired)));
            }
            Ok(Event::Trapped { .. }) => {}
            Ok(Event::Exited { .. }) | Err(_) => return stream,
        }
    }
    panic!("reference run did not finish");
}

/// True if `record` writes a register whose flipped bit the comparator
/// must see: a CSR read's value may be masked (`rdcycle`), so those are
/// left out.
fn writes_rd(record: &RetirementRecord) -> bool {
    record.rd_write.is_some() && !matches!(record.instr, Instr::Csr { .. } | Instr::CsrImm { .. })
}

/// Runs `program` on a mutant functional core against a clean one and
/// returns the report.
fn mutant_divergence(
    program: &Program,
    at: usize,
    mutation: Mutation,
    mutant_second: bool,
    options: &LockstepOptions,
) -> Divergence {
    let mut mutant = Mutant::new(functional(program, false), at, mutation);
    let mut clean = functional(program, false);
    let outcome = if mutant_second {
        run_lockstep(clean.as_mut(), &mut mutant, options)
    } else {
        run_lockstep(&mut mutant, clean.as_mut(), options)
    };
    outcome
        .divergence()
        .expect("the mutation must be caught")
        .clone()
}

/// Runs `source` on a clean accelerator against `faulty` and returns the
/// report.
fn accelerator_divergence(source: &str, faulty: Box<dyn Coprocessor>) -> Divergence {
    let program = assemble(source).unwrap();
    let mut good = Cpu::new();
    good.attach_coprocessor(Box::new(DecimalAccelerator::new()));
    load_program(&mut good, &program);
    let mut bad = Cpu::new();
    bad.attach_coprocessor(faulty);
    load_program(&mut bad, &program);
    let outcome = run_lockstep(&mut good, &mut bad, &LockstepOptions::default());
    outcome
        .divergence()
        .expect("the faulty accelerator must be caught")
        .clone()
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

/// Two stores, a load of what they wrote, and an exit. Retirement 6 is
/// the `sb`.
const STORES: &str = "
    .text
    start:
        la s0, buf
        li t0, 0x1234
        sd t0, 0(s0)
        li t1, 0x56
        sb t1, 9(s0)
        ld t2, 8(s0)
        li a0, 0
        li a7, 93
        ecall
    .data
    .align 3
    buf:
        .dword 0
        .dword 0
";

const WRONG_DIGIT: &str = "
    start:
        li t0, 0x15
        li t1, 0x27
        custom0 4, t2, t0, t1, 1, 1, 1
        li a0, 0
        li a7, 93
        ecall
";

const STUCK_FSM: &str = "
    start:
        li t0, 0x11
        custom0 4, t2, t0, t0, 1, 1, 1
        li t0, 0x15
        li t1, 0x27
        custom0 4, t3, t0, t1, 1, 1, 1
        li a0, 0
        li a7, 93
        ecall
";

// The `lockstep` CLI prints these reports, and users diff them across
// builds: every byte of them must stay.

const REGISTER_MUTANT_REPORT: &str = r#"lockstep divergence at retirement #2 (pc 0x80000008) between `mutant` and `functional`:
  mutant       #3      0x80000008  addi t2, t1, 2  t2 <- 0x9
  functional   #3      0x80000008  addi t2, t1, 2  t2 <- 0x8
  register delta:
    t2    mutant 0x9 | functional 0x8
  last 2 retirements before divergence:
    #1      0x80000000  addi t0, zero, 5  t0 <- 0x5
    #2      0x80000004  addi t1, t0, 1  t1 <- 0x6
"#;

const STORE_MUTANT_REPORT: &str = r#"lockstep divergence at retirement #6 (pc 0x80000018) between `functional` and `mutant`:
  functional   #7      0x80000018  sb t1, 9(s0)  [0x80100009] <- 0x56
  mutant       #7      0x80000018  sb t1, 9(s0)  [0x80100009] <- 0x57
  memory delta: functional Some(MemEffect { addr: 2148532233, size: 1, store: true, value: 86 }) | mutant Some(MemEffect { addr: 2148532233, size: 1, store: true, value: 87 })
  last 6 retirements before divergence:
    #1      0x80000000  auipc s0, 0x100  s0 <- 0x80100000
    #2      0x80000004  addi s0, s0, 0  s0 <- 0x80100000
    #3      0x80000008  lui t0, 0x1  t0 <- 0x1000
    #4      0x8000000c  addiw t0, t0, 564  t0 <- 0x1234
    #5      0x80000010  sd t0, 0(s0)  [0x80100000] <- 0x1234
    #6      0x80000014  addi t1, zero, 86  t1 <- 0x56
"#;

const WRONG_DIGIT_REPORT: &str = r#"lockstep divergence at retirement #2 (pc 0x80000008) between `functional` and `functional`:
  functional   #3      0x80000008  custom0.f4 t2, t0, t1 [xd=1 xs1=1 xs2=1]  t2 <- 0x42  rocc 0x42
  functional   #3      0x80000008  custom0.f4 t2, t0, t1 [xd=1 xs1=1 xs2=1]  t2 <- 0x43  rocc 0x43
  register delta:
    t2    functional 0x42 | functional 0x43
  last 2 retirements before divergence:
    #1      0x80000000  addi t0, zero, 21  t0 <- 0x15
    #2      0x80000004  addi t1, zero, 39  t1 <- 0x27
"#;

const STUCK_FSM_REPORT: &str = r#"lockstep divergence at retirement #4 (pc 0x80000010) between `functional` and `functional`:
  functional   #5      0x80000010  custom0.f4 t3, t0, t1 [xd=1 xs1=1 xs2=1]  t3 <- 0x42  rocc 0x42
  functional   fault: accelerator did not respond to funct7=4 within 10000 cycles
  register delta:
    t3    functional 0x42 | functional 0x0
  last 4 retirements before divergence:
    #1      0x80000000  addi t0, zero, 17  t0 <- 0x11
    #2      0x80000004  custom0.f4 t2, t0, t0 [xd=1 xs1=1 xs2=1]  t2 <- 0x22  rocc 0x22
    #3      0x80000008  addi t0, zero, 21  t0 <- 0x15
    #4      0x8000000c  addi t1, zero, 39  t1 <- 0x27
"#;

#[test]
fn register_mutant_report_is_unchanged() {
    let program = assemble(STRAIGHT_LINE).unwrap();
    let divergence = mutant_divergence(
        &program,
        2,
        Mutation::Register,
        false,
        &LockstepOptions::default(),
    );
    assert_eq!(divergence.to_string(), REGISTER_MUTANT_REPORT);
}

#[test]
fn store_mutant_report_is_unchanged() {
    let program = assemble(STORES).unwrap();
    let divergence = mutant_divergence(
        &program,
        6,
        Mutation::Store,
        true,
        &LockstepOptions::default(),
    );
    assert_eq!(divergence.to_string(), STORE_MUTANT_REPORT);
}

#[test]
fn wrong_digit_report_is_unchanged() {
    let divergence = accelerator_divergence(
        WRONG_DIGIT,
        Box::new(WrongDigitAccelerator::new(DecimalFunct::DecAdd)),
    );
    assert_eq!(divergence.to_string(), WRONG_DIGIT_REPORT);
}

#[test]
fn stuck_fsm_report_is_unchanged() {
    let divergence = accelerator_divergence(STUCK_FSM, Box::new(StuckFsmAccelerator::new(1)));
    assert_eq!(divergence.to_string(), STUCK_FSM_REPORT);
}

#[test]
fn a_flipped_stored_byte_is_a_memory_divergence_at_the_store() {
    // The registers agree throughout: only the comparison of memory
    // effects can see this bug.
    let program = assemble(STORES).unwrap();
    let stream = reference_stream(&program, false);
    for at in stream
        .iter()
        .enumerate()
        .filter(|(_, record)| record.mem.is_some_and(|mem| mem.store))
        .map(|(index, _)| index)
    {
        for mutant_second in [false, true] {
            let divergence = mutant_divergence(
                &program,
                at,
                Mutation::Store,
                mutant_second,
                &LockstepOptions::default(),
            );
            assert_eq!(divergence.step, at as u64, "{divergence}");
            assert_eq!(divergence.pc, stream[at].pc, "{divergence}");
            assert!(divergence.mem_delta.is_some(), "{divergence}");
            assert!(divergence.reg_delta.is_empty(), "{divergence}");
        }
    }
}

#[test]
fn an_unbounded_context_holds_every_prior_retirement() {
    let vectors = generate(&TestConfig {
        count: 2,
        seed: 2019,
        ..TestConfig::default()
    });
    // The software kernel issues no RoCC commands, so the mutant below
    // runs it without the accelerator.
    let guest = build_guest(KernelKind::Software, &vectors, 1).unwrap();
    for pair in Pair::ALL {
        let outcome = run_guest_pair(&guest, pair, usize::MAX);
        assert!(outcome.is_agreement(), "{pair}: {outcome:?}");
    }

    let stream = reference_stream(&guest.program, false);
    let at = stream.iter().rposition(writes_rd).unwrap();
    let options = LockstepOptions {
        context: usize::MAX,
        ..LockstepOptions::default()
    };
    let divergence = mutant_divergence(&guest.program, at, Mutation::Register, false, &options);
    assert_eq!(divergence.step, at as u64, "{divergence}");
    assert_eq!(divergence.context, stream[..at]);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn a_divergence_names_the_mutated_retirement_and_the_retirements_before_it(
        program_index in 0u32..1_000,
        pick in any::<u64>(),
        pair_index in 0usize..3,
        store in any::<bool>(),
        mutant_second in any::<bool>(),
    ) {
        let config = FuzzConfig::default();
        let program = assemble(&nth_program_source(&config, program_index)).unwrap();
        // Fuzzed programs carry RoCC commands: attach the accelerator.
        let stream = reference_stream(&program, true);
        let is_store = |record: &RetirementRecord| record.mem.is_some_and(|mem| mem.store);
        let (mutation, eligible): (Mutation, Vec<usize>) = {
            let stores: Vec<usize> = (0..stream.len()).filter(|&i| is_store(&stream[i])).collect();
            if store && !stores.is_empty() {
                (Mutation::Store, stores)
            } else {
                (Mutation::Register, (0..stream.len()).filter(|&i| writes_rd(&stream[i])).collect())
            }
        };
        prop_assume!(!eligible.is_empty());
        let at = eligible[(pick % eligible.len() as u64) as usize];

        let pair = Pair::ALL[pair_index];
        let mut a = pair.a.build();
        let mut b = pair.b.build();
        load_program(a.cpu_mut(), &program);
        load_program(b.cpu_mut(), &program);
        let options = LockstepOptions::default();
        let outcome = if mutant_second {
            run_lockstep(a.as_mut(), &mut Mutant::new(b, at, mutation), &options)
        } else {
            run_lockstep(&mut Mutant::new(a, at, mutation), b.as_mut(), &options)
        };
        let divergence = outcome.divergence().expect("the mutation must be caught");
        prop_assert_eq!(divergence.step, at as u64, "{}", divergence);
        prop_assert_eq!(divergence.pc, stream[at].pc, "{}", divergence);
        prop_assert_eq!(
            &divergence.context[..],
            &stream[at.saturating_sub(DEFAULT_CONTEXT)..at],
            "{}",
            divergence
        );
        match mutation {
            Mutation::Store => {
                prop_assert!(divergence.mem_delta.is_some(), "{}", divergence);
                prop_assert!(divergence.reg_delta.is_empty(), "{}", divergence);
            }
            Mutation::Register => {
                let (reg, _) = stream[at].rd_write.unwrap();
                prop_assert!(
                    divergence.reg_delta.iter().any(|delta| delta.reg == reg),
                    "{}",
                    divergence
                );
            }
        }
    }
}
