//! Verification-database run: the framework's functional-verification leg
//! (the role Spike and the arithmetic verification database [18] play in the
//! paper). Generates constrained-random operands for every input class,
//! executes the Method-1 guest kernel instruction-by-instruction, and
//! checks each result bit-for-bit against the decNumber-style oracle.
//!
//! ```text
//! cargo run --release --example verification_db
//! ```

use std::collections::BTreeMap;

use decimalarith::codesign::framework::{build_guest, try_run_functional, verify_results};
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::testgen::{generate, CaseClass, TestConfig};

fn main() {
    let config = TestConfig {
        count: 1_200,
        class_mix: vec![
            (CaseClass::Normal, 1),
            (CaseClass::Rounding, 1),
            (CaseClass::Overflow, 1),
            (CaseClass::Underflow, 1),
            (CaseClass::Clamping, 1),
            (CaseClass::Special, 1),
        ],
        ..TestConfig::default()
    };
    let vectors = generate(&config);
    println!(
        "verification database: {} vectors across {} classes (seed {})",
        vectors.len(),
        config.class_mix.len(),
        config.seed
    );

    for kind in [
        KernelKind::Software,
        KernelKind::SoftwareBid,
        KernelKind::Method1,
        KernelKind::Method2,
        KernelKind::Method3,
        KernelKind::Method4,
    ] {
        let guest = build_guest(kind, &vectors, 1).expect("kernel assembles");
        let run = try_run_functional(&guest).expect("functional run");
        let mismatches = verify_results(&run.results, &vectors);
        // Tally pass/fail per class.
        let mut per_class: BTreeMap<CaseClass, (usize, usize)> = BTreeMap::new();
        for (i, v) in vectors.iter().enumerate() {
            let entry = per_class.entry(v.class).or_insert((0, 0));
            entry.1 += 1;
            if !mismatches.contains(&i) {
                entry.0 += 1;
            }
        }
        let summary: Vec<String> = per_class
            .iter()
            .map(|(class, (ok, total))| format!("{class}: {ok}/{total}"))
            .collect();
        println!(
            "{:<28} {:>8} instructions  [{}]",
            kind.name(),
            run.instret,
            summary.join(", ")
        );
        assert!(
            mismatches.is_empty(),
            "{kind}: verification failed on {} vectors",
            mismatches.len()
        );
    }
    println!("all kernels verified bit-exact against the reference.");
}
