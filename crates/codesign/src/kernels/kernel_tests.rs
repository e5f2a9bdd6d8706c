//! Guest-kernel verification: every kernel must reproduce the `decnum`
//! oracle's bits on the functional simulator (the Spike-role check of the
//! paper's flow), except the dummy configuration which is wrong by design.

use crate::framework::{build_guest, try_run_functional, verify_results};
use crate::kernels::KernelKind;
use testgen::{generate, CaseClass, TestConfig};

fn vectors(count: usize, seed: u64) -> Vec<testgen::TestVector> {
    generate(&TestConfig {
        count,
        seed,
        class_mix: vec![
            (CaseClass::Normal, 1),
            (CaseClass::Rounding, 1),
            (CaseClass::Overflow, 1),
            (CaseClass::Underflow, 1),
            (CaseClass::Clamping, 1),
            (CaseClass::Special, 1),
        ],
        ..TestConfig::default()
    })
}

fn check_kernel(kind: KernelKind, count: usize, seed: u64) {
    let vectors = vectors(count, seed);
    let guest = build_guest(kind, &vectors, 1).unwrap_or_else(|e| panic!("{kind}: {e}"));
    let run = try_run_functional(&guest).expect("functional run");
    let mismatches = verify_results(&run.results, &vectors);
    assert!(
        mismatches.is_empty(),
        "{kind}: {} mismatches, first at sample {}: {} × {} -> got {:#018x}",
        mismatches.len(),
        mismatches[0],
        vectors[mismatches[0]].x,
        vectors[mismatches[0]].y,
        run.results[mismatches[0]],
    );
}

#[test]
fn software_kernel_matches_oracle() {
    check_kernel(KernelKind::Software, 120, 11);
}

#[test]
fn method1_kernel_matches_oracle() {
    check_kernel(KernelKind::Method1, 120, 22);
}

#[test]
fn method1_ft_kernel_matches_oracle() {
    check_kernel(KernelKind::Method1Ft, 120, 77);
}

#[test]
fn method1_ft_never_degrades_on_a_healthy_accelerator() {
    let vectors = vectors(60, 88);
    let guest = build_guest(KernelKind::Method1Ft, &vectors, 1).unwrap();
    let run = try_run_functional(&guest).expect("functional run");
    assert!(verify_results(&run.results, &vectors).is_empty());
    assert_eq!(
        run.degraded,
        Some(0),
        "detection net must not false-positive on a healthy accelerator"
    );
}

#[test]
fn method2_kernel_matches_oracle() {
    check_kernel(KernelKind::Method2, 90, 33);
}

#[test]
fn method3_kernel_matches_oracle() {
    check_kernel(KernelKind::Method3, 90, 44);
}

#[test]
fn method4_kernel_matches_oracle() {
    check_kernel(KernelKind::Method4, 90, 55);
}

#[test]
fn dummy_kernel_runs_but_is_wrong() {
    let vectors = vectors(60, 66);
    let guest = build_guest(KernelKind::Method1Dummy, &vectors, 1).unwrap();
    let run = try_run_functional(&guest).expect("functional run");
    let mismatches = verify_results(&run.results, &vectors);
    assert!(
        !mismatches.is_empty(),
        "dummy functions must corrupt at least some results"
    );
}

#[test]
fn kernel_sources_are_plausible_assembly() {
    for kind in KernelKind::ALL {
        let src = super::kernel_source(kind);
        assert!(src.contains("kernel:"), "{kind}");
        assert!(src.contains("round_pack"), "{kind}");
        if kind == KernelKind::Method1Dummy {
            assert!(src.contains("dummy_dec_add"), "{kind}");
            assert!(!src.contains("custom0 4"), "{kind} must not use DEC_ADD");
        }
        if kind == KernelKind::Software {
            assert!(!src.contains("custom0"), "{kind} must be pure software");
        }
    }
}

#[test]
fn regression_pow10_overrun_in_binary_rounding() {
    // Found at sample 7088 of the full 8,000-vector workload: an
    // underflow-to-zero product whose 64-bit remainder still spanned 20
    // decimal digits, which used to index past the pow10 table in the
    // binary rounding epilogue.
    use dpd::Decimal64;
    let x = decnum::DecNumber::from_decimal64(Decimal64::from_bits(0x8284_0000_2A04_FA0E));
    let y = decnum::DecNumber::from_decimal64(Decimal64::from_bits(0x0358_33A7_59A7_3CF2));
    let vectors = vec![testgen::TestVector {
        x,
        y,
        class: CaseClass::Underflow,
    }];
    for kind in [KernelKind::Software, KernelKind::SoftwareBid] {
        let guest = build_guest(kind, &vectors, 1).unwrap();
        let run = try_run_functional(&guest).expect("functional run");
        assert!(
            verify_results(&run.results, &vectors).is_empty(),
            "{kind}: got {:#018x}",
            run.results[0]
        );
    }
}

#[test]
fn regression_full_width_discard_shift() {
    // discard == 32 makes the BCD epilogue's shift amount 128 bits; RV64
    // shifts mask the amount to six bits, so the kernel must branch to an
    // explicit clear instead (found by the workspace property test).
    let x: decnum::DecNumber = "1.127694509785803E-339".parse().unwrap();
    let y: decnum::DecNumber = "-9.262133257640877E-61".parse().unwrap();
    let vectors = vec![testgen::TestVector {
        x,
        y,
        class: CaseClass::Underflow,
    }];
    for kind in [
        KernelKind::Method1,
        KernelKind::Method1Ft,
        KernelKind::Method2,
        KernelKind::Method3,
        KernelKind::Method4,
    ] {
        let guest = build_guest(kind, &vectors, 1).unwrap();
        let run = try_run_functional(&guest).expect("functional run");
        assert!(
            verify_results(&run.results, &vectors).is_empty(),
            "{kind}: got {:#018x}",
            run.results[0]
        );
    }
}

#[test]
fn kernel_slugs_round_trip_and_are_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for kind in KernelKind::ALL {
        let slug = kind.slug();
        assert!(seen.insert(slug), "duplicate slug {slug:?}");
        assert_eq!(KernelKind::from_slug(slug), Some(kind));
        assert!(
            slug.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "slug {slug:?} is not a clean identifier"
        );
    }
    assert_eq!(KernelKind::from_slug("no_such_kernel"), None);
    for kind in KernelKind::FAULT_CAMPAIGN {
        assert!(KernelKind::ALL.contains(&kind));
    }
}
