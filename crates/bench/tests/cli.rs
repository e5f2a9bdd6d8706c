//! The report binaries reject arguments they cannot run with as usage
//! errors: exit code 2 and a message, never a panic.

use std::process::Command;

/// Runs `binary` with `args` and checks that it exits 2 with a message
/// and no panic.
fn assert_usage_error(binary: &str, args: &[&str]) {
    let output = Command::new(binary)
        .args(args)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("error: "), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

/// A zero count would check nothing, yet `lockstep` once reported "all
/// differential checks passed" for zero samples, programs, commands or
/// faults.
#[test]
fn zero_samples_or_repetitions_is_a_usage_error() {
    let runs: [(&str, [&str; 3]); 7] = [
        (env!("CARGO_BIN_EXE_tables"), ["table4", "--samples", "0"]),
        (env!("CARGO_BIN_EXE_tables"), ["table5", "--reps", "0"]),
        (
            env!("CARGO_BIN_EXE_lockstep"),
            ["conformance", "--samples", "0"],
        ),
        (env!("CARGO_BIN_EXE_lockstep"), ["fuzz", "--programs", "0"]),
        (env!("CARGO_BIN_EXE_lockstep"), ["rocc", "--commands", "0"]),
        (env!("CARGO_BIN_EXE_lockstep"), ["faults", "--faults", "0"]),
        (
            env!("CARGO_BIN_EXE_lockstep"),
            ["faults", "--fault-samples", "0"],
        ),
    ];
    for (binary, args) in runs {
        assert_usage_error(binary, &args);
    }
}

/// Only one subcommand and one journal path run; the rest were once
/// dropped without a word.
#[test]
fn a_second_subcommand_or_journal_is_a_usage_error() {
    let tables = env!("CARGO_BIN_EXE_tables");
    let lockstep = env!("CARGO_BIN_EXE_lockstep");
    assert_usage_error(tables, &["table2", "table3"]);
    assert_usage_error(lockstep, &["rocc", "fuzz"]);
    assert_usage_error(lockstep, &["fuzz", "--journal", "a", "--resume", "b"]);
    assert_usage_error(lockstep, &["fuzz", "--resume", "b", "--journal", "a"]);
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
        assert_usage_error(binary, &args);
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
