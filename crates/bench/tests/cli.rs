//! The report binaries reject arguments they cannot run with as usage
//! errors: exit code 2 and a message, never a panic.

use std::process::Command;

#[test]
fn zero_samples_or_repetitions_is_a_usage_error() {
    for args in [["table4", "--samples", "0"], ["table5", "--reps", "0"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_tables"))
            .args(args)
            .output()
            .expect("tables runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// A count that does not fit the option's type is a usage error, not a
/// silently narrowed value: `4294967296` once wrapped to 0 fuzz programs
/// or RoCC commands (a vacuous pass) and to 1 rvlint repetition.
#[test]
fn out_of_range_numbers_are_usage_errors() {
    let runs: [(&str, [&str; 3]); 3] = [
        (env!("CARGO_BIN_EXE_lockstep"), ["fuzz", "--programs", "4294967296"]),
        (env!("CARGO_BIN_EXE_lockstep"), ["rocc", "--commands", "4294967296"]),
        (env!("CARGO_BIN_EXE_rvlint"), ["method1", "--repetitions", "4294967296"]),
    ];
    for (binary, args) in runs {
        let output = Command::new(binary).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// The largest seed is a valid seed: the per-layout seeds after it wrap to
/// 0, 1, … and each label names the seed it used, where the layout seeds
/// once overflowed (a panic in a debug build).
#[test]
fn rvlint_accepts_the_largest_seed() {
    let output = Command::new(env!("CARGO_BIN_EXE_rvlint"))
        .args(["method1", "--seed", "18446744073709551615"])
        .output()
        .expect("rvlint runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stdout}{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    for seed in ["18446744073709551615", "0", "1", "2"] {
        assert!(
            stdout.contains(&format!("(seed {seed})")),
            "{seed}: {stdout}"
        );
    }
}
