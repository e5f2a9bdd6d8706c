//! Robustness of the fault-tolerant protocol stack: M-mode trap delivery
//! must be lockstep-identical across the three simulators, the RoCC
//! busy-watchdog must be architecturally deterministic under timing-model
//! perturbation, and the fault-injection campaign must be reproducible
//! with zero silent corruption on the fault-tolerant kernel.

use decimalarith::codesign::framework::build_guest;
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::lockstep::campaign::{run_campaign, CampaignConfig};
use decimalarith::lockstep::inject::StuckFsmAccelerator;
use decimalarith::lockstep::{
    guest_budget, load_program, run_program_pair, LockstepOptions, LockstepOutcome, Pair, SimKind,
    Termination,
};
use decimalarith::riscv_asm::{assemble, Program};
use decimalarith::riscv_isa::csr::cause;
use decimalarith::riscv_sim::{CpuError, Simulator};
use decimalarith::testgen::{generate, TestConfig};

/// A guest that arms `mtvec`, takes two different synchronous traps (an
/// unmapped load, then a write to a read-only CSR), and exits with the sum
/// of the delivered `mcause` codes: 5 (load fault) + 2 (illegal
/// instruction) = 7.
const TWO_TRAP_GUEST: &str = "
    start:
        la   t0, handler
        csrrw zero, 0x305, t0      # mtvec
        li   s0, 0
        li   t0, 0x666000
        ld   t1, 0(t0)             # unmapped: LOAD_FAULT (5)
        csrrw t0, 0xC00, t0        # read-only cycle CSR: ILLEGAL (2)
        mv   a0, s0
        li   a7, 93
        ecall
    handler:
        csrrs t1, 0x342, zero      # mcause
        add  s0, s0, t1
        csrrs t1, 0x341, zero      # mepc
        addi t1, t1, 4
        csrrw zero, 0x341, t1      # skip the faulting instruction
        mret
";

#[test]
fn trap_delivery_is_lockstep_identical_across_all_simulator_pairs() {
    let program = assemble(TWO_TRAP_GUEST).unwrap();
    for pair in Pair::ALL {
        let outcome = run_program_pair(&program, pair, &LockstepOptions::default());
        match outcome {
            LockstepOutcome::Agreement {
                termination: Termination::Exited(7),
                ..
            } => {}
            other => panic!("{pair}: expected agreed exit code 7, got {other:?}"),
        }
    }
}

/// A guest that arms `mtvec`, issues one DEC_ADD, and exits with the
/// delivered `mcause` — run against a wedged accelerator so the watchdog
/// is the only thing that can terminate the command.
fn wedged_trap_guest() -> Program {
    assemble(
        "
        start:
            la   t0, handler
            csrrw zero, 0x305, t0
            li   s0, 0
            li   t0, 0x15
        wedge:
            custom0 4, t1, t0, t0, 1, 1, 1   # wedges; watchdog must fire
            mv   a0, s0
            li   a7, 93
            ecall
        handler:
            csrrs t1, 0x342, zero
            add  s0, s0, t1
            csrrs t1, 0x341, zero
            addi t1, t1, 4
            csrrw zero, 0x341, t1
            mret
        ",
    )
    .unwrap()
}

#[test]
fn rocc_timeout_trap_is_delivered_identically_on_all_three_sims() {
    let program = wedged_trap_guest();
    let custom0_pc = program.symbol("wedge").unwrap();
    for kind in SimKind::ALL {
        let mut sim = kind.build();
        sim.cpu_mut()
            .attach_coprocessor(Box::new(StuckFsmAccelerator::new(0)));
        load_program(sim.cpu_mut(), &program);
        // A budget that ends before the wedge stops the run the same way
        // on every simulator, and the run resumes from there.
        assert_eq!(
            sim.run(3),
            Err(CpuError::InstructionLimit(3)),
            "{kind:?}: the budget must end the run"
        );
        assert_eq!(sim.cpu().instret, 3, "{kind:?}");
        assert_eq!(
            sim.run(100_000),
            Ok(cause::ROCC_TIMEOUT as i64),
            "{kind:?}: watchdog must trap, not kill the host, and the guest \
             must observe mcause {}",
            cause::ROCC_TIMEOUT
        );
        let log = &sim.cpu().trap_log;
        assert_eq!(log.len(), 1, "{kind:?}: exactly one delivered trap");
        assert_eq!(log[0].cause, cause::ROCC_TIMEOUT, "{kind:?}");
        assert_eq!(
            log[0].epc, custom0_pc,
            "{kind:?}: mepc must pin the wedged custom0"
        );
    }
}

#[test]
fn watchdog_fires_deterministically_across_cache_seeds() {
    // The watchdog bound is architectural: the cache random-replacement
    // seed moves cycle counts, but the wedge must surface as the same
    // RoccTimeout at the same retired-instruction count on every seed —
    // never as budget exhaustion.
    use decimalarith::rocket_sim::{RocketSim, TimingConfig};

    let program = assemble(
        "
        start:
            li   t0, 0x15
            custom0 4, t1, t0, t0, 1, 1, 1
            li   a0, 0
            li   a7, 93
            ecall
        ",
    )
    .unwrap();
    let mut seen = Vec::new();
    for seed in 0..8u64 {
        let mut sim = RocketSim::new(TimingConfig {
            seed,
            ..TimingConfig::default()
        });
        sim.cpu
            .attach_coprocessor(Box::new(StuckFsmAccelerator::new(0)));
        load_program(&mut sim.cpu, &program);
        let result = sim.run(1_000_000);
        match result {
            Err(CpuError::RoccTimeout { funct7: 4, .. }) => {}
            other => panic!("seed {seed}: expected RoccTimeout, got {other:?}"),
        }
        seen.push(sim.stats().instret);
    }
    assert!(
        seen.windows(2).all(|w| w[0] == w[1]),
        "retired-instruction count at the watchdog must not depend on the \
         cache seed: {seen:?}"
    );
}

#[test]
fn ft_campaign_is_reproducible_and_free_of_silent_corruption() {
    // The acceptance gate in miniature: a seeded campaign over the real
    // fault-tolerant Method-1 guest replays identically, classifies every
    // fault into the four outcome classes (no host panics, no
    // unclassifiable replays), and lets nothing through silently — the
    // golden results are already oracle-verified by the kernel tests, so
    // zero silent corruption is bit-correctness under every injected
    // fault.
    let vectors = generate(&TestConfig {
        count: 2,
        seed: 2019,
        ..TestConfig::default()
    });
    let guest = build_guest(KernelKind::Method1Ft, &vectors, 1).unwrap();
    let config = CampaignConfig {
        seed: 2019,
        faults: 80,
        instruction_budget: guest_budget(&guest),
        result_words: vectors.len(),
    };
    let first = run_campaign(&guest.program, &config);
    let second = run_campaign(&guest.program, &config);
    assert_eq!(first.records, second.records, "campaign must replay exactly");
    assert!(first.errors.is_empty(), "{:?}", first.errors);
    let tally = first.tally();
    assert_eq!(
        tally.silent_data_corruption, 0,
        "detection net must leave no silent corruption: {tally:?}"
    );
    assert!(tally.detected > 0, "some faults must be caught in-band: {tally:?}");
    assert!(
        tally.caught_by_watchdog > 0,
        "wedges must be caught by the watchdog: {tally:?}"
    );
    assert!(tally.masked > 0, "dead-state faults must be masked: {tally:?}");
}
