//! The `tables` binary rejects arguments it cannot run with as usage
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
