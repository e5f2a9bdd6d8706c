//! `Simulator::run` executes whole blocks of pre-decoded ops on the
//! functional core and on both timing models. Stepping one instruction at a
//! time is the reference: a wrapper that implements only `step` gets the
//! trait's provided `run`, which steps. Both must end every run in the same
//! place — result, architectural state, memory and every timing counter —
//! on every kernel's guest and on seeded fuzz programs, run to exit and cut
//! short by the instruction budget.

use std::fmt::Debug;

use decimalarith::atomic_sim::{AtomicConfig, AtomicSim};
use decimalarith::codesign::framework::{build_guest_with, guest_budget, load_program};
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::lockstep::fuzz::{nth_program_source, FuzzConfig};
use decimalarith::riscv_asm::{assemble, Program};
use decimalarith::riscv_sim::{Cpu, CpuError, Event, Marker, Simulator, TrapRecord};
use decimalarith::rocc::DecimalAccelerator;
use decimalarith::rocket_sim::{RocketSim, TimingConfig};
use decimalarith::testgen::{generate, DriverLayout, TestConfig};

/// A simulator that implements only `step`, so its `run` is the trait's
/// provided per-step loop.
struct Stepper<S>(S);

impl<S: Simulator> Simulator for Stepper<S> {
    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn cpu(&self) -> &Cpu {
        self.0.cpu()
    }

    fn cpu_mut(&mut self) -> &mut Cpu {
        self.0.cpu_mut()
    }

    fn step(&mut self) -> Result<Event, CpuError> {
        self.0.step()
    }
}

/// Everything a run leaves behind, apart from the model's own counters.
#[derive(Debug, PartialEq)]
struct Ending {
    result: Result<i64, CpuError>,
    pc: u64,
    registers: [u64; 32],
    cycle: u64,
    instret: u64,
    console: Vec<u8>,
    markers: Vec<Marker>,
    trap_log: Vec<TrapRecord>,
    /// FNV-1a over every mapped page's base address and bytes.
    memory: u64,
}

fn memory_digest(cpu: &Cpu) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    for (base, bytes) in cpu.memory.pages() {
        for byte in base.to_le_bytes().iter().chain(bytes) {
            hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    hash
}

/// Loads `program` on `sim` with the decimal accelerator attached, runs it
/// for `budget` steps, and returns how it ended with `counters` of `sim`.
fn ending<S: Simulator, T>(
    mut sim: S,
    program: &Program,
    budget: u64,
    counters: impl Fn(&S) -> T,
) -> (Ending, T) {
    sim.cpu_mut()
        .attach_coprocessor(Box::new(DecimalAccelerator::new()));
    load_program(sim.cpu_mut(), program);
    let result = sim.run(budget);
    let cpu = sim.cpu();
    let ending = Ending {
        result,
        pc: cpu.pc(),
        registers: cpu.registers(),
        cycle: cpu.cycle,
        instret: cpu.instret,
        console: cpu.console.clone(),
        markers: cpu.markers.clone(),
        trap_log: cpu.trap_log.clone(),
        memory: memory_digest(cpu),
    };
    (ending, counters(&sim))
}

/// Runs `program` with `budget` through `run` and through stepping on a
/// simulator from `make` and asserts both end alike.
fn assert_run_equals_stepping<S: Simulator, T: PartialEq + Debug>(
    what: &str,
    make: impl Fn() -> S,
    counters: impl Fn(&S) -> T,
    program: &Program,
    budget: u64,
) -> Ending {
    let (ran, ran_counters) = ending(make(), program, budget, &counters);
    let (stepped, stepped_counters) = ending(Stepper(make()), program, budget, |s| counters(&s.0));
    let label = make().label();
    assert_eq!(ran, stepped, "{what} on {label} with budget {budget}");
    assert_eq!(
        ran_counters, stepped_counters,
        "{what} on {label} with budget {budget}: counters"
    );
    ran
}

/// Checks `program` on all three simulators: to exit with `budget`, and
/// cut short at a few budgets below the run's length.
fn check_every_simulator(what: &str, program: &Program, budget: u64) {
    let atomic_config = AtomicConfig {
        mul_cycles: 3,
        div_cycles: 12,
    };
    let full = assert_run_equals_stepping(what, Cpu::new, |_| (), program, budget);
    assert_run_equals_stepping(
        what,
        || RocketSim::new(TimingConfig::default()),
        RocketSim::stats,
        program,
        budget,
    );
    assert_run_equals_stepping(
        what,
        || AtomicSim::new(atomic_config),
        AtomicSim::stats,
        program,
        budget,
    );
    // Budgets that end the run inside blocks, at seeded-looking points.
    let steps = full.instret.min(budget);
    for cut in [1, steps / 3 + 1, steps / 2 + 3, steps.saturating_sub(1)] {
        assert_run_equals_stepping(what, Cpu::new, |_| (), program, cut);
        assert_run_equals_stepping(
            what,
            || RocketSim::new(TimingConfig::default()),
            RocketSim::stats,
            program,
            cut,
        );
        assert_run_equals_stepping(
            what,
            || AtomicSim::new(atomic_config),
            AtomicSim::stats,
            program,
            cut,
        );
    }
}

#[test]
fn run_equals_stepping_on_every_kernel_guest() {
    let vectors = generate(&TestConfig {
        count: 16,
        seed: 2019,
        ..TestConfig::default()
    });
    // Per-sample markers put a `mark` ecall, which runs as a block of its
    // own and reads the cycle count, inside the driver's loop.
    for per_sample_marks in [false, true] {
        let layout = DriverLayout {
            count: vectors.len(),
            repetitions: 1,
            per_sample_marks,
        };
        for kind in KernelKind::ALL {
            let guest = build_guest_with(kind, &vectors, layout).expect("kernel assembles");
            let what = format!("{kind}, per-sample marks {per_sample_marks}");
            check_every_simulator(&what, &guest.program, guest_budget(&guest));
        }
    }
}

#[test]
fn run_equals_stepping_on_seeded_fuzz_programs() {
    let config = FuzzConfig::default();
    for index in 0..50 {
        let source = nth_program_source(&config, index);
        let program = assemble(&source).unwrap_or_else(|e| panic!("{e}\n{source}"));
        check_every_simulator(
            &format!("fuzz program {index}"),
            &program,
            config.max_instructions,
        );
    }
}
