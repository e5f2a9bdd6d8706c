//! The benchmark's calls into each layer's public API, each inside a span
//! named after the layer, plus a counting wrapper around the accelerator
//! model.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use atomic_sim::AtomicConfig;
use codesign::framework::{
    self, AtomicEvaluation, CycleEvaluation, FunctionalRun, GuestProgram, RunError,
};
use codesign::kernels::KernelKind;
use lockstep::{LockstepOutcome, Pair};
use riscv_sim::{Coprocessor, CpuError, Memory, RoccCommand, RoccResponse};
use rocc::DecimalAccelerator;
use rocket_sim::TimingConfig;
use testgen::{TestConfig, TestVector};

use crate::trace::span;

/// `testgen` input generation.
#[must_use]
pub fn generate(config: &TestConfig) -> Vec<TestVector> {
    span("testgen.generate", || testgen::generate(config))
}

/// Guest construction: driver + kernel source, assembled.
///
/// # Panics
///
/// Panics if a shipped kernel fails to assemble (a bug in the kernel
/// emitters, not a benchmark condition).
#[must_use]
pub fn build_guest(kind: KernelKind, vectors: &[TestVector]) -> GuestProgram {
    span("asm.build_guest", || {
        framework::build_guest(kind, vectors, 1).unwrap_or_else(|e| panic!("{kind}: {e}"))
    })
}

/// A cycle-accurate run on the Rocket model.
///
/// # Errors
///
/// The framework's [`RunError`] for guest faults and nonzero exits.
pub fn run_rocket(guest: &GuestProgram, timing: TimingConfig) -> Result<CycleEvaluation, RunError> {
    span("rocket.run", || framework::try_run_rocket(guest, timing))
}

/// A run on the atomic model.
///
/// # Errors
///
/// The framework's [`RunError`] for guest faults and nonzero exits.
pub fn run_atomic(
    guest: &GuestProgram,
    config: AtomicConfig,
) -> Result<AtomicEvaluation, RunError> {
    span("atomic.run", || framework::try_run_atomic(guest, config))
}

/// A run on the functional simulator, as the framework attaches it.
///
/// # Errors
///
/// The framework's [`RunError`] for guest faults and nonzero exits.
pub fn run_functional(guest: &GuestProgram) -> Result<FunctionalRun, RunError> {
    span("functional.run", || framework::try_run_functional(guest))
}

/// Oracle check; returns the number of mismatching samples.
#[must_use]
pub fn verify(results: &[u64], vectors: &[TestVector]) -> usize {
    span("oracle.verify", || {
        framework::verify_results(results, vectors).len()
    })
}

/// A lockstep run of a guest on one simulator pair.
#[must_use]
pub fn run_pair(guest: &GuestProgram, pair: Pair) -> LockstepOutcome {
    span("lockstep.pair_run", || {
        lockstep::run_guest_pair(guest, pair, lockstep::DEFAULT_CONTEXT)
    })
}

/// Static instruction count of a guest's text segment.
#[must_use]
pub fn static_instructions(guest: &GuestProgram) -> u64 {
    guest.program.text.data.len() as u64 / 4
}

/// What a [`CountingAccelerator`] observed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoccCounts {
    /// Commands executed.
    pub commands: u64,
    /// Host time inside the accelerator model, seconds.
    pub execute_s: f64,
    /// Simulated busy cycles the model reported.
    pub busy_cycles: u64,
}

/// A [`DecimalAccelerator`] behind the public [`Coprocessor`] trait that
/// counts commands, host time and busy cycles.
#[derive(Debug)]
pub struct CountingAccelerator {
    inner: DecimalAccelerator,
    counts: Rc<Cell<RoccCounts>>,
}

impl CountingAccelerator {
    /// A fresh accelerator and the handle its counts are read through.
    #[must_use]
    pub fn new() -> (Self, Rc<Cell<RoccCounts>>) {
        let counts = Rc::new(Cell::new(RoccCounts::default()));
        (
            CountingAccelerator {
                inner: DecimalAccelerator::new(),
                counts: Rc::clone(&counts),
            },
            counts,
        )
    }
}

impl Coprocessor for CountingAccelerator {
    fn execute(&mut self, cmd: &RoccCommand, mem: &mut Memory) -> Result<RoccResponse, CpuError> {
        let start = Instant::now();
        let response = self.inner.execute(cmd, mem);
        let elapsed = start.elapsed().as_secs_f64();
        let mut counts = self.counts.get();
        counts.commands += 1;
        counts.execute_s += elapsed;
        if let Ok(r) = &response {
            if !r.is_hung() {
                counts.busy_cycles += u64::from(r.busy_cycles);
            }
        }
        self.counts.set(counts);
        response
    }

    fn watchdog_abort(&mut self) {
        self.inner.watchdog_abort();
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn snapshot_state(&self) -> Option<riscv_sim::CoprocSnapshot> {
        self.inner.snapshot_state()
    }

    fn restore_state(
        &mut self,
        snapshot: &riscv_sim::CoprocSnapshot,
    ) -> Result<(), riscv_sim::SnapshotError> {
        self.inner.restore_state(snapshot)
    }
}

/// A functional run on a bare [`riscv_sim::Cpu`] with a counting
/// accelerator attached. Returns `(exit code, instructions retired, host
/// seconds, accelerator counts)`.
///
/// # Errors
///
/// The CPU fault, if the guest faulted.
pub fn run_functional_counted(
    guest: &GuestProgram,
) -> Result<(i64, u64, f64, RoccCounts), CpuError> {
    let (accelerator, counts) = CountingAccelerator::new();
    let mut cpu = riscv_sim::Cpu::new();
    cpu.attach_coprocessor(Box::new(accelerator));
    lockstep::load_program(&mut cpu, &guest.program);
    let start = Instant::now();
    let code = cpu.run(lockstep::guest_budget(guest))?;
    let seconds = start.elapsed().as_secs_f64();
    Ok((code, cpu.instret, seconds, counts.get()))
}
