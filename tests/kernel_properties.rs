//! Property-based end-to-end test: random decimal64 operand pairs, executed
//! through the Method-1 guest kernel on the functional simulator, must match
//! the decNumber-style oracle bit for bit.
//!
//! Assembly and simulation are amortized by batching each proptest case
//! into one guest run over a vector of operand pairs.

use decimalarith::codesign::framework::{build_guest, try_run_functional, verify_results};
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::decnum::DecNumber;
use decimalarith::dpd::Sign;
use decimalarith::testgen::{CaseClass, TestVector};
use proptest::prelude::*;

fn operand() -> impl Strategy<Value = DecNumber> {
    (
        0u64..=9_999_999_999_999_999,
        -398i32..=369,
        any::<bool>(),
    )
        .prop_map(|(coeff, exp, neg)| {
            let digits: Vec<u8> = {
                let mut v = Vec::new();
                let mut c = coeff;
                while c != 0 {
                    v.push((c % 10) as u8);
                    c /= 10;
                }
                v
            };
            DecNumber::from_parts(
                if neg { Sign::Negative } else { Sign::Positive },
                &digits,
                exp,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case batch-runs 24 multiplications in the guest
        ..ProptestConfig::default()
    })]

    #[test]
    fn method1_guest_matches_oracle_on_random_operands(
        pairs in proptest::collection::vec((operand(), operand()), 24)
    ) {
        let vectors: Vec<TestVector> = pairs
            .into_iter()
            .map(|(x, y)| TestVector { x, y, class: CaseClass::Normal })
            .collect();
        let guest = build_guest(KernelKind::Method1, &vectors, 1).unwrap();
        let run = try_run_functional(&guest).expect("functional run");
        let mismatches = verify_results(&run.results, &vectors);
        prop_assert!(
            mismatches.is_empty(),
            "mismatch at {:?}: {} × {}",
            mismatches.first(),
            vectors[*mismatches.first().unwrap()].x,
            vectors[*mismatches.first().unwrap()].y,
        );
    }

    #[test]
    fn software_guest_matches_oracle_on_random_operands(
        pairs in proptest::collection::vec((operand(), operand()), 24)
    ) {
        let vectors: Vec<TestVector> = pairs
            .into_iter()
            .map(|(x, y)| TestVector { x, y, class: CaseClass::Normal })
            .collect();
        let guest = build_guest(KernelKind::Software, &vectors, 1).unwrap();
        let run = try_run_functional(&guest).expect("functional run");
        let mismatches = verify_results(&run.results, &vectors);
        prop_assert!(mismatches.is_empty(), "mismatches: {mismatches:?}");
    }
}
