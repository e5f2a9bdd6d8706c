//! Lockstep conformance: every kernel of the evaluation, run over the
//! verification database on every simulator pair, must retire identical
//! canonical instruction streams (timing excluded). This is the
//! differential check behind the paper's cross-platform methodology — the
//! three simulators are only trustworthy as independent witnesses if they
//! agree architecturally on every guest.
//!
//! The sample counts here are the paper's 8,000-sample database scaled
//! down for CI; `cargo run --release -p decimal-bench --bin lockstep --
//! conformance --samples 8000` runs the full configuration.

use decimalarith::codesign::kernels::KernelKind;
use decimalarith::lockstep::{check_guest_all_pairs, check_kernel_all_pairs, LockstepOutcome, Pair};
use decimalarith::testgen::{generate, CaseClass, TestConfig};

fn vectors(count: usize, seed: u64) -> Vec<decimalarith::testgen::TestVector> {
    generate(&TestConfig {
        count,
        seed,
        ..TestConfig::default()
    })
}

/// Fails the test on the first failing pair, with its divergence report or
/// its bounded hang.
fn assert_all_pairs_pass(what: &str, failing: &[(Pair, LockstepOutcome)]) {
    if let Some((pair, outcome)) = failing.first() {
        match outcome.divergence() {
            Some(divergence) => panic!("{what} diverged on {pair}:\n{divergence}"),
            None => panic!("{what} exhausted its step budget on {pair}: {outcome:?}"),
        }
    }
}

#[test]
fn every_kernel_agrees_on_every_pair() {
    let vectors = vectors(5, 2019);
    for kind in KernelKind::ALL {
        assert_all_pairs_pass(&format!("{kind:?}"), &check_kernel_all_pairs(kind, &vectors));
    }
}

#[test]
fn every_case_class_agrees_in_lockstep() {
    // One single-class database per operand case class, checked on the
    // two extreme kernels: the pure-software baseline (no RoCC traffic)
    // and Method-4 (the heaviest hardware offload).
    let classes = [
        CaseClass::Normal,
        CaseClass::Rounding,
        CaseClass::Overflow,
        CaseClass::Underflow,
        CaseClass::Clamping,
        CaseClass::Special,
    ];
    for class in classes {
        let vectors = generate(&TestConfig {
            count: 4,
            seed: 2019,
            class_mix: vec![(class, 1)],
            ..TestConfig::default()
        });
        for kind in [KernelKind::Software, KernelKind::Method4] {
            assert_all_pairs_pass(
                &format!("{kind:?} on {class} operands"),
                &check_kernel_all_pairs(kind, &vectors),
            );
        }
    }
}

#[test]
fn scaled_verification_database_stays_in_lockstep() {
    // A deeper run of the accelerated kernels over the paper's five-class
    // mix — more samples than the per-kernel smoke check, still far below
    // the full 8,000 reserved for the CLI.
    let vectors = vectors(25, 7);
    for kind in [KernelKind::Method1, KernelKind::Method2, KernelKind::Method3] {
        let guest =
            decimalarith::codesign::framework::build_guest(kind, &vectors, 1).unwrap();
        assert_all_pairs_pass(&format!("{kind:?}"), &check_guest_all_pairs(&guest));
    }
}
