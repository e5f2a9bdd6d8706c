//! Self-modifying code and out-of-band text writes on every simulator.
//!
//! The functional core reuses decoded instructions until a write touches a
//! page it has fetched from or its memory is replaced. Each case below
//! rewrites an instruction that has already been decoded — from the guest,
//! from the harness, from an accelerator, or by swapping in a different
//! memory — and checks that the rewritten instruction is what retires: the
//! exit code proves it ran, and all three simulators must retire identical
//! canonical streams.

use decimalarith::codesign::framework::{load_program, GuestProgram};
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::lockstep::{
    run_guest_pair, LockstepOutcome, Pair, RetirementRecord, SimKind, Termination, DEFAULT_CONTEXT,
};
use decimalarith::riscv_asm::{assemble, Program};
use decimalarith::riscv_isa::instr::OpImmOp;
use decimalarith::riscv_isa::{Instr, Reg};
use decimalarith::riscv_sim::{
    Coprocessor, Cpu, CpuError, Event, Memory, RoccCommand, RoccResponse, Simulator,
};
use decimalarith::testgen::DriverLayout;

/// Step budget for every hand-written program here.
const BUDGET: u64 = 1_000;

/// The encoding of `addi a0, a0, 100`, the patch every case applies over
/// an `addi a0, a0, 1` (or writes in place of the original text).
fn patched_word() -> u32 {
    Instr::OpImm {
        op: OpImmOp::Addi,
        rd: Reg::A0,
        rs1: Reg::A0,
        imm: 100,
    }
    .encode()
    .expect("addi encodes")
}

fn program(source: &str) -> Program {
    assemble(source).unwrap_or_else(|e| panic!("{e}\n{source}"))
}

/// Runs `program` in lockstep on every simulator pair through the
/// framework's guest runner and returns the agreed exit code.
fn exit_code_on_every_pair(program: Program) -> i64 {
    let guest = GuestProgram {
        program,
        layout: DriverLayout {
            count: 0,
            repetitions: 1,
            per_sample_marks: false,
        },
        kind: KernelKind::Software,
    };
    let mut codes = Vec::new();
    for pair in Pair::ALL {
        match run_guest_pair(&guest, pair, DEFAULT_CONTEXT) {
            LockstepOutcome::Agreement {
                termination: Termination::Exited(code),
                ..
            } => codes.push(code),
            other => panic!("{pair}: {other:?}"),
        }
    }
    assert!(codes.windows(2).all(|w| w[0] == w[1]), "{codes:?}");
    codes[0]
}

#[test]
fn guest_store_patches_an_executed_instruction_later_on_the_same_page() {
    // Two passes over `target`; the second pass patches it first.
    let source = format!(
        "
        .text
        _start:
            la   t0, target
            li   t1, {patch}
        again:
            beqz s1, skip
            sw   t1, 0(t0)
        skip:
            addi s1, s1, 1
        target:
            addi a0, a0, 1
            li   t2, 2
            blt  s1, t2, again
            li   a7, 93
            ecall
        ",
        patch = patched_word()
    );
    assert_eq!(exit_code_on_every_pair(program(&source)), 101);
}

#[test]
fn guest_store_patches_an_executed_instruction_on_another_page() {
    let source = format!(
        "
        .text
        _start:
            la   t0, far
            li   t1, {patch}
            call far
            sw   t1, 0(t0)
            call far
            li   a7, 93
            ecall
            .align 12
        far:
            addi a0, a0, 1
            ret
        ",
        patch = patched_word()
    );
    let program = program(&source);
    let far = program.symbol("far").expect("far is defined");
    assert_eq!(far % 4096, 0);
    assert_ne!(
        far >> 12,
        program.entry >> 12,
        "far must sit on its own page"
    );
    assert_eq!(exit_code_on_every_pair(program), 101);
}

/// A simulator that records the canonical stream of the one it wraps:
/// [`RetirementRecord::capture`] after every step that retires.
struct Recorder {
    sim: Box<dyn Simulator>,
    stream: Vec<RetirementRecord>,
}

impl Simulator for Recorder {
    fn label(&self) -> &'static str {
        self.sim.label()
    }

    fn cpu(&self) -> &Cpu {
        self.sim.cpu()
    }

    fn cpu_mut(&mut self) -> &mut Cpu {
        self.sim.cpu_mut()
    }

    fn step(&mut self) -> Result<Event, CpuError> {
        let event = self.sim.step()?;
        if let Event::Retired(retired) = &event {
            self.stream
                .push(RetirementRecord::capture(self.sim.cpu(), retired));
        }
        Ok(event)
    }
}

/// Runs `scenario` on a fresh simulator of every kind, recording every
/// retirement, checks that all three return the same exit code and retire
/// identical streams, and returns the exit code.
fn agree_on_every_simulator(scenario: impl Fn(&mut dyn Simulator) -> i64) -> i64 {
    let mut results: Vec<(SimKind, i64, Vec<RetirementRecord>)> = Vec::new();
    for kind in SimKind::ALL {
        let mut recorder = Recorder {
            sim: kind.build(false),
            stream: Vec::new(),
        };
        let code = scenario(&mut recorder);
        results.push((kind, code, recorder.stream));
    }
    let (first_kind, first_code, first_stream) = &results[0];
    assert!(!first_stream.is_empty(), "{first_kind}: nothing retired");
    for (kind, code, stream) in &results[1..] {
        assert_eq!(code, first_code, "{kind} vs {first_kind}: exit codes");
        assert_eq!(
            stream, first_stream,
            "{kind} vs {first_kind}: retirement streams"
        );
    }
    *first_code
}

/// `addi a0, a0, 1` at the entry point, then exit.
fn bump_then_exit() -> Program {
    program(
        "
        .text
        _start:
            addi a0, a0, 1
            li   a7, 93
            ecall
        ",
    )
}

#[test]
fn harness_write_between_steps_takes_effect() {
    let code = agree_on_every_simulator(|sim| {
        let program = bump_then_exit();
        load_program(sim.cpu_mut(), &program);
        sim.step().expect("first addi retires");
        sim.cpu_mut()
            .memory
            .write_u32(program.entry, patched_word())
            .expect("text is writable");
        sim.cpu_mut().set_pc(program.entry);
        sim.run(BUDGET).expect("exits without faults")
    });
    assert_eq!(code, 101);
}

/// An accelerator that stores the low word of `rs2` at address `rs1`
/// through the RoCC memory port.
struct TextPatcher;

impl Coprocessor for TextPatcher {
    fn execute(&mut self, cmd: &RoccCommand, mem: &mut Memory) -> Result<RoccResponse, CpuError> {
        mem.write_u32(cmd.rs1_value, cmd.rs2_value as u32)?;
        Ok(RoccResponse::default())
    }

    fn reset(&mut self) {}
}

#[test]
fn coprocessor_write_into_text_takes_effect() {
    let source = format!(
        "
        .text
        _start:
            la   t0, target
            li   t1, {patch}
        target:
            addi a0, a0, 1
            bnez s1, done
            li   s1, 1
            custom0 1, zero, t0, t1, 0, 1, 1
            j    target
        done:
            li   a7, 93
            ecall
        ",
        patch = patched_word()
    );
    let program = program(&source);
    let code = agree_on_every_simulator(|sim| {
        sim.cpu_mut().attach_coprocessor(Box::new(TextPatcher));
        load_program(sim.cpu_mut(), &program);
        sim.run(BUDGET).expect("exits without faults")
    });
    assert_eq!(code, 101);
}

/// `a0 = value; exit` — the same length for every value, so two of these
/// put different text at the same addresses.
fn exit_with(value: u32) -> Program {
    program(&format!(
        "
        .text
        _start:
            li   a0, {value}
            li   a7, 93
            ecall
        "
    ))
}

#[test]
fn replacing_memory_wholesale_executes_the_new_code() {
    let code = agree_on_every_simulator(|sim| {
        let first = exit_with(1);
        load_program(sim.cpu_mut(), &first);
        assert_eq!(sim.run(BUDGET), Ok(1));
        let mut second = Cpu::new();
        load_program(&mut second, &exit_with(2));
        let cpu = sim.cpu_mut();
        cpu.memory = second.memory;
        cpu.reset();
        cpu.set_pc(first.entry);
        sim.run(BUDGET).expect("exits without faults")
    });
    assert_eq!(code, 2);
}
