//! Shared helpers for the benchmark harness: the canonical workload and
//! platform configurations the `tables` binary regenerates every table
//! from, so each table has one definition.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use atomic_sim::AtomicConfig;
use codesign::framework::{
    build_guest, try_run_rocket, verify_results, CycleEvaluation, GuestProgram, RunError,
};
use codesign::kernels::KernelKind;
use rocket_sim::TimingConfig;
use testgen::{TestConfig, TestVector};

/// The paper's sample count (Table IV: "8,000 sample inputs including
/// overflow, underflow, normal, rounding, and clamping cases").
pub const PAPER_SAMPLES: usize = 8_000;

/// The canonical Table IV workload, scaled to `count` samples.
#[must_use]
pub fn workload(count: usize, seed: u64) -> Vec<TestVector> {
    testgen::generate(&TestConfig {
        count,
        seed,
        ..TestConfig::default()
    })
}

/// The Rocket timing configuration every cycle-accurate table uses.
#[must_use]
pub fn rocket_timing(seed: u64) -> TimingConfig {
    TimingConfig {
        seed,
        ..TimingConfig::default()
    }
}

/// The Gem5-like configuration for Table VI: 1 GHz clock with Minor-CPU-ish
/// functional-unit latencies (IntMult 3, IntDiv 12).
#[must_use]
pub fn atomic_config() -> AtomicConfig {
    AtomicConfig {
        mul_cycles: 3,
        div_cycles: 12,
        ..AtomicConfig::default()
    }
}

/// A typed bench-harness failure, so the report binaries can exit with a
/// clear message and a nonzero status instead of a panic backtrace.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BenchError {
    /// Kernel emission produced unassemblable source (a generator bug).
    Build {
        /// The kernel that failed to build.
        kind: KernelKind,
        /// The assembler/framework error text.
        detail: String,
    },
    /// The guest faulted, exited nonzero or missed a measurement marker.
    Run {
        /// The kernel whose run failed.
        kind: KernelKind,
        /// How the run failed.
        error: RunError,
    },
    /// A non-dummy kernel's results disagreed with the oracle.
    ResultMismatch {
        /// The kernel whose results were wrong.
        kind: KernelKind,
        /// How many of the verified results mismatched.
        mismatches: usize,
    },
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Build { kind, detail } => {
                write!(f, "{kind}: failed to build guest: {detail}")
            }
            BenchError::Run { kind, error } => write!(f, "{kind}: run failed: {error}"),
            BenchError::ResultMismatch { kind, mismatches } => {
                write!(f, "{kind}: {mismatches} result mismatch(es) against the oracle")
            }
        }
    }
}

impl std::error::Error for BenchError {}

/// Builds a guest for the canonical workload, reporting build failures as
/// a typed [`BenchError`].
pub fn try_guest_for(kind: KernelKind, vectors: &[TestVector]) -> Result<GuestProgram, BenchError> {
    build_guest(kind, vectors, 1).map_err(|e| BenchError::Build {
        kind,
        detail: e.to_string(),
    })
}

/// Runs one kernel cycle-accurately and verifies results against the
/// oracle (unless the kernel is a dummy configuration), reporting build
/// failures, failed runs and oracle mismatches as typed [`BenchError`]s.
pub fn try_evaluate_cycles(
    kind: KernelKind,
    vectors: &[TestVector],
    timing: TimingConfig,
) -> Result<CycleEvaluation, BenchError> {
    let guest = try_guest_for(kind, vectors)?;
    let eval = try_run_rocket(&guest, timing).map_err(|error| BenchError::Run { kind, error })?;
    if !kind.results_are_dummy() {
        let mismatches = verify_results(&eval.results, vectors);
        if !mismatches.is_empty() {
            return Err(BenchError::ResultMismatch {
                kind,
                mismatches: mismatches.len(),
            });
        }
    }
    Ok(eval)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(workload(10, 1), workload(10, 1));
    }

    #[test]
    fn evaluate_cycles_smoke() {
        let vectors = workload(20, 3);
        let eval = try_evaluate_cycles(KernelKind::Method1, &vectors, rocket_timing(1)).unwrap();
        assert!(eval.avg_total_cycles > 0.0);
        assert!(eval.avg_hw_cycles > 0.0);
    }
}
