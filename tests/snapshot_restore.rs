//! Snapshot/restore equivalence: running a guest to an arbitrary point,
//! serializing the machine, and restoring the bytes into a *fresh*
//! simulator must continue the run bit-for-bit — the retirement stream,
//! the exit code, and the final architectural snapshot all match an
//! uninterrupted reference run. This holds on all three simulators for
//! every registered kernel, which is what makes crash-safe campaign
//! resumption trustworthy.
//!
//! The serialized format itself is also checked: a snapshot with a bumped
//! version byte, a corrupted payload, the wrong simulator kind, or
//! coprocessor state restored into an accelerator-less core must each
//! fail with the matching typed [`SnapshotError`], never garbage state.

use std::cell::RefCell;
use std::rc::Rc;

use decimalarith::atomic_sim::{AtomicConfig, AtomicSim, AtomicSnapshot};
use decimalarith::codesign::framework::build_guest;
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::lockstep::{guest_budget, load_program, SimKind};
use decimalarith::riscv_sim::{Cpu, CpuSnapshot, Event, Simulator, SnapshotError};
use decimalarith::rocc::DecimalAccelerator;
use decimalarith::rocket_sim::{RocketSim, RocketSnapshot, TimingConfig};
use decimalarith::testgen::{generate, TestConfig};
use proptest::prelude::*;

/// One of the three simulators, with the decimal accelerator attached,
/// behind a uniform snapshot interface for the tests below.
enum Sim {
    Functional(Box<Cpu>),
    Rocket(Box<RocketSim>),
    Atomic(Box<AtomicSim>),
}

impl Sim {
    fn new(kind: SimKind) -> Sim {
        match kind {
            SimKind::Functional => {
                let mut cpu = Cpu::new();
                cpu.attach_coprocessor(Box::new(DecimalAccelerator::new()));
                Sim::Functional(Box::new(cpu))
            }
            SimKind::Rocket => {
                let mut sim = RocketSim::new(TimingConfig::default());
                sim.cpu
                    .attach_coprocessor(Box::new(DecimalAccelerator::new()));
                Sim::Rocket(Box::new(sim))
            }
            SimKind::Atomic => {
                let mut sim = AtomicSim::new(AtomicConfig::default());
                sim.cpu
                    .attach_coprocessor(Box::new(DecimalAccelerator::new()));
                Sim::Atomic(Box::new(sim))
            }
        }
    }

    fn dynamic(&mut self) -> &mut dyn Simulator {
        match self {
            Sim::Functional(cpu) => &mut **cpu,
            Sim::Rocket(sim) => &mut **sim,
            Sim::Atomic(sim) => &mut **sim,
        }
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        match self {
            Sim::Functional(cpu) => cpu.snapshot().to_bytes(),
            Sim::Rocket(sim) => sim.snapshot().to_bytes(),
            Sim::Atomic(sim) => sim.snapshot().to_bytes(),
        }
    }

    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        match self {
            Sim::Functional(cpu) => cpu.restore(&CpuSnapshot::from_bytes(bytes)?),
            Sim::Rocket(sim) => sim.restore(&RocketSnapshot::from_bytes(bytes)?),
            Sim::Atomic(sim) => sim.restore(&AtomicSnapshot::from_bytes(bytes)?),
        }
    }

    fn observe(&mut self, stream: &Rc<RefCell<Vec<String>>>) {
        let stream = Rc::clone(stream);
        self.dynamic()
            .cpu_mut()
            .set_retire_observer(move |record| stream.borrow_mut().push(record.to_string()));
    }
}

/// Steps until the guest exits, returning the exit code and step count.
fn run_to_exit(sim: &mut Sim, budget: u64) -> (i64, u64) {
    let mut steps = 0;
    loop {
        assert!(steps < budget, "guest did not exit within the step budget");
        steps += 1;
        match sim.dynamic().step() {
            Ok(Event::Exited { code }) => return (code, steps),
            Ok(_) => {}
            Err(e) => panic!("unexpected fault after {steps} steps: {e}"),
        }
    }
}

/// Steps exactly `n` times, asserting the guest does not exit early.
fn run_steps(sim: &mut Sim, n: u64) {
    for step in 0..n {
        match sim.dynamic().step() {
            Ok(Event::Exited { .. }) => panic!("guest exited early at step {step}"),
            Ok(_) => {}
            Err(e) => panic!("unexpected fault at step {step}: {e}"),
        }
    }
}

/// The core equivalence check: reference run vs. snapshot at
/// `numer/denom` of the way through, serialized, restored into a fresh
/// simulator, and continued.
fn check_split(kernel: KernelKind, sim_kind: SimKind, numer: u64, denom: u64) {
    let vectors = generate(&TestConfig {
        count: 1,
        seed: 2019,
        ..TestConfig::default()
    });
    let guest = build_guest(kernel, &vectors, 1)
        .unwrap_or_else(|e| panic!("{kernel}: failed to build guest: {e}"));
    let budget = guest_budget(&guest);

    let reference_stream = Rc::new(RefCell::new(Vec::new()));
    let mut reference = Sim::new(sim_kind);
    reference.observe(&reference_stream);
    load_program(reference.dynamic().cpu_mut(), &guest.program);
    let (reference_exit, total_steps) = run_to_exit(&mut reference, budget);
    let reference_final = reference.snapshot_bytes();
    assert!(total_steps >= 2, "guest too short to split");

    let split = (total_steps * numer / denom).clamp(1, total_steps - 1);
    let prefix_stream = Rc::new(RefCell::new(Vec::new()));
    let mut first = Sim::new(sim_kind);
    first.observe(&prefix_stream);
    load_program(first.dynamic().cpu_mut(), &guest.program);
    run_steps(&mut first, split);
    let snapshot = first.snapshot_bytes();

    // The snapshot is restored into a *fresh* simulator — nothing carries
    // over except the serialized bytes.
    let suffix_stream = Rc::new(RefCell::new(Vec::new()));
    let mut second = Sim::new(sim_kind);
    second.observe(&suffix_stream);
    second
        .restore_bytes(&snapshot)
        .unwrap_or_else(|e| panic!("{kernel} on {sim_kind:?}: restore failed: {e}"));
    let (resumed_exit, suffix_steps) = run_to_exit(&mut second, budget);

    assert_eq!(resumed_exit, reference_exit, "{kernel} on {sim_kind:?}: exit code");
    assert_eq!(
        split + suffix_steps,
        total_steps,
        "{kernel} on {sim_kind:?}: step count"
    );
    let mut combined = prefix_stream.borrow().clone();
    combined.extend(suffix_stream.borrow().iter().cloned());
    assert_eq!(
        combined,
        *reference_stream.borrow(),
        "{kernel} on {sim_kind:?}: retirement stream"
    );
    assert_eq!(
        second.snapshot_bytes(),
        reference_final,
        "{kernel} on {sim_kind:?}: final architectural snapshot"
    );
}

#[test]
fn midpoint_snapshot_resumes_identically_on_every_sim_and_kernel() {
    for kernel in KernelKind::ALL {
        for sim_kind in SimKind::ALL {
            check_split(kernel, sim_kind, 1, 2);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    #[test]
    fn any_snapshot_point_resumes_identically(
        kernel_index in 0..KernelKind::ALL.len(),
        sim_index in 0..SimKind::ALL.len(),
        numer in 1u64..100,
    ) {
        check_split(
            KernelKind::ALL[kernel_index],
            SimKind::ALL[sim_index],
            numer,
            100,
        );
    }
}

#[test]
fn version_mismatch_is_a_typed_error() {
    let mut sim = Sim::new(SimKind::Functional);
    let mut bytes = sim.snapshot_bytes();
    // The envelope is `magic(4) | version(4) | ...`: byte 4 is the low
    // byte of the little-endian version word.
    bytes[4] ^= 0xFF;
    match sim.restore_bytes(&bytes) {
        Err(SnapshotError::Version { found, supported }) => {
            assert_ne!(found, supported);
        }
        other => panic!("expected SnapshotError::Version, got {other:?}"),
    }
}

#[test]
fn corrupted_payload_fails_the_checksum() {
    let mut sim = Sim::new(SimKind::Atomic);
    let mut bytes = sim.snapshot_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    match sim.restore_bytes(&bytes) {
        Err(SnapshotError::Checksum { stored, computed }) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected SnapshotError::Checksum, got {other:?}"),
    }
}

#[test]
fn wrong_simulator_kind_is_rejected() {
    let rocket = Sim::new(SimKind::Rocket);
    let bytes = rocket.snapshot_bytes();
    let mut atomic = Sim::new(SimKind::Atomic);
    assert!(matches!(
        atomic.restore_bytes(&bytes),
        Err(SnapshotError::WrongKind { .. })
    ));
}

#[test]
fn coprocessor_state_needs_a_matching_coprocessor() {
    // A snapshot carrying accelerator state must not restore into a core
    // with no accelerator attached.
    let mut with_accel = Cpu::new();
    with_accel.attach_coprocessor(Box::new(DecimalAccelerator::new()));
    let snapshot = with_accel.snapshot();
    assert!(snapshot.coproc.is_some(), "accelerator state expected in the snapshot");
    let mut bare = Cpu::new();
    assert!(matches!(
        bare.restore(&snapshot),
        Err(SnapshotError::Coprocessor { .. })
    ));
}
