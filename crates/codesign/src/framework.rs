//! The evaluation framework (paper Fig. 2).
//!
//! Guest programs are produced exactly as the paper's flow does: the test
//! generator supplies operands, the kernel under test is assembled once,
//! and each guest links it with its driver loop and operand table into one
//! RISC-V binary, which runs unmodified on each evaluation platform —
//!
//! * [`try_run_functional`] — the Spike-role functional simulator, used for
//!   verification against the `decnum` oracle;
//! * [`try_run_rocket`] — the cycle-accurate Rocket-like core with the
//!   decimal accelerator attached, producing the SW/HW cycle split of
//!   Table IV;
//! * [`try_run_atomic`] — the Gem5-`AtomicSimpleCPU`-like model of Table VI;
//! * [`time_native`] — host wall-clock runs of the native implementations
//!   (Table V).
//!
//! Every simulated run loads the binary with [`load_program`], gives it
//! [`guest_budget`] instructions, and drives the platform through
//! [`riscv_sim::Simulator`].

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use atomic_sim::{AtomicConfig, AtomicSim};
use decnum::Status;
use dpd::Decimal64;
use riscv_asm::{link, parse, AsmError, Program, Unit, STACK_TOP};
use riscv_isa::Reg;
use riscv_sim::{Cpu, Marker, Memory, Simulator};
use rocc::DecimalAccelerator;
use rocket_sim::{RocketSim, RunStats, TimingConfig};
use testgen::{driver_unit, operand_unit, DriverLayout, TestVector};

use crate::kernels::{kernel_source, KernelKind};
use crate::native;

/// Data symbol of the driver's result array: one 64-bit word per sample.
pub const RESULTS_SYMBOL: &str = "results";

/// Data symbol of the fault-tolerant kernel's degradation counter.
pub const DEGRADED_SYMBOL: &str = "ft_degraded";

/// A built guest program plus the layout needed to read its results back.
#[derive(Debug, Clone)]
pub struct GuestProgram {
    /// The assembled binary.
    pub program: Program,
    /// Operand count / repetitions.
    pub layout: DriverLayout,
    /// The kernel configuration inside.
    pub kind: KernelKind,
}

/// Builds the guest program for `kind` over `vectors`.
///
/// # Errors
///
/// Returns the assembler error if the generated source is malformed (a bug
/// in the kernel emitters).
pub fn build_guest(
    kind: KernelKind,
    vectors: &[TestVector],
    repetitions: u32,
) -> Result<GuestProgram, AsmError> {
    build_guest_with(
        kind,
        vectors,
        DriverLayout {
            count: vectors.len(),
            repetitions,
            per_sample_marks: false,
        },
    )
}

/// Builds the guest program with an explicit driver layout (e.g. with
/// per-sample markers for per-class cycle attribution).
///
/// The driver and operand table are built as [`Unit`]s from their
/// instructions and words ([`testgen::driver_unit`],
/// [`testgen::operand_unit`]), with no text, and linked with the kernel's
/// cached `Unit`; the program is the one that assembling
/// `driver_source + kernel_source + operand_data_section` gives.
///
/// # Errors
///
/// See [`build_guest`]. A kernel parse error's line counts within the
/// kernel; a link error's line counts across all three pieces.
pub fn build_guest_with(
    kind: KernelKind,
    vectors: &[TestVector],
    layout: DriverLayout,
) -> Result<GuestProgram, AsmError> {
    let driver = driver_unit(layout)?;
    let kernel = kernel_unit(kind)?;
    let operands = operand_unit(vectors)?;
    Ok(GuestProgram {
        program: link(&[&driver, kernel, &operands])?,
        layout,
        kind,
    })
}

/// The parsed kernel for `kind`. The kernel text is a pure function of
/// `kind`, so each is parsed once per process and shared by every guest
/// (and every thread) after that.
fn kernel_unit(kind: KernelKind) -> Result<&'static Unit, AsmError> {
    static UNITS: [OnceLock<Result<Unit, AsmError>>; KernelKind::ALL.len()] =
        [const { OnceLock::new() }; KernelKind::ALL.len()];
    UNITS[kind as usize]
        .get_or_init(|| parse(&kernel_source(kind)))
        .as_ref()
        .map_err(Clone::clone)
}

/// Loads an assembled program into a core: all segments into memory, `pc`
/// at the entry point, and the stack pointer at [`STACK_TOP`].
///
/// # Panics
///
/// Panics if the segments need more than [`Memory::MAX_PAGES`] pages of
/// guest memory (a malformed program).
pub fn load_program(cpu: &mut Cpu, program: &Program) {
    for segment in program.segments() {
        if !segment.data.is_empty() {
            cpu.memory
                .load_bytes(segment.base, &segment.data)
                .expect("program segment loads");
        }
    }
    cpu.set_pc(program.entry);
    cpu.set_reg(Reg::SP, STACK_TOP);
}

/// Reads the first `count` words of `program`'s result array
/// ([`RESULTS_SYMBOL`]); `None` if the program has no result array or a
/// slot is unmapped (a guest that a fault left in a wild state).
#[must_use]
pub fn read_result_words(memory: &Memory, program: &Program, count: usize) -> Option<Vec<u64>> {
    let base = program.symbol(RESULTS_SYMBOL)?;
    (0..count)
        .map(|i| memory.read_u64(base + 8 * i as u64).ok())
        .collect()
}

/// Reads the fault-tolerant kernel's degradation counter
/// ([`DEGRADED_SYMBOL`]) — how many multiplications fell back to the
/// software datapath — if the program has one (`None` for kernels without
/// fault tolerance).
#[must_use]
pub fn read_degradation(memory: &Memory, program: &Program) -> Option<u64> {
    memory.read_u64(program.symbol(DEGRADED_SYMBOL)?).ok()
}

/// One result word per sample of a guest that ran to a clean exit.
fn read_results(memory: &Memory, guest: &GuestProgram) -> Vec<u64> {
    read_result_words(memory, &guest.program, guest.layout.count)
        .expect("driver defines a mapped result array")
}

/// The instruction budget every runner gives `guest`: generous for the
/// slowest kernel, finite for a runaway one.
#[must_use]
pub fn guest_budget(guest: &GuestProgram) -> u64 {
    200_000 + guest.layout.count as u64 * u64::from(guest.layout.repetitions.max(1)) * 40_000
}

/// A guest run that did not produce results: a fault, a nonzero exit, or a
/// missing or miscounted measurement marker.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The guest faulted; the program counter locates the instruction.
    Fault {
        /// Faulting program counter.
        pc: u64,
        /// The underlying CPU fault.
        error: riscv_sim::CpuError,
    },
    /// The guest ran to completion but exited nonzero.
    ExitCode(i64),
    /// A required measurement marker never fired.
    MissingMarker(&'static str),
    /// A per-sample run fired a different number of sample markers than
    /// there are samples (the guest was built without per-sample markers).
    SampleMarkers {
        /// The number of samples.
        expected: usize,
        /// The number of sample markers that fired.
        found: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Fault { pc, error } => write!(f, "guest faulted at pc {pc:#x}: {error}"),
            RunError::ExitCode(code) => write!(f, "guest exited with {code}"),
            RunError::MissingMarker(which) => write!(f, "missing {which} marker"),
            RunError::SampleMarkers { expected, found } => {
                write!(f, "{found} per-sample markers for {expected} samples")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Runs `guest` to exit on `sim` with the decimal accelerator attached,
/// returning the simulator for its results and counters.
fn run_guest<S: Simulator>(mut sim: S, guest: &GuestProgram) -> Result<S, RunError> {
    sim.cpu_mut()
        .attach_coprocessor(Box::new(DecimalAccelerator::new()));
    load_program(sim.cpu_mut(), &guest.program);
    let code = sim
        .run(guest_budget(guest))
        .map_err(|error| RunError::Fault {
            pc: sim.cpu().pc(),
            error,
        })?;
    if code != 0 {
        return Err(RunError::ExitCode(code));
    }
    Ok(sim)
}

/// The cycles at the driver's loop-start and loop-end markers.
fn loop_region(markers: &[Marker]) -> Result<(u64, u64), RunError> {
    let cycle_at = |id, which| {
        markers
            .iter()
            .find(|m| m.id == id)
            .map(|m| m.cycle)
            .ok_or(RunError::MissingMarker(which))
    };
    Ok((
        cycle_at(testgen::MARK_LOOP_START, "loop start")?,
        cycle_at(testgen::MARK_LOOP_END, "loop end")?,
    ))
}

/// Outcome of a functional (Spike-role) run.
#[derive(Debug, Clone)]
pub struct FunctionalRun {
    /// Result bits per sample.
    pub results: Vec<u64>,
    /// Instructions retired.
    pub instret: u64,
    /// Fault-tolerant kernels only: kernel invocations that degraded to
    /// the software fallback.
    pub degraded: Option<u64>,
}

/// Runs the guest on the functional simulator (with the accelerator
/// attached when the kernel needs it), surfacing failures as values.
///
/// # Errors
///
/// Returns [`RunError`] if the guest faults or exits nonzero.
pub fn try_run_functional(guest: &GuestProgram) -> Result<FunctionalRun, RunError> {
    let cpu = run_guest(Cpu::new(), guest)?;
    Ok(FunctionalRun {
        results: read_results(&cpu.memory, guest),
        instret: cpu.instret,
        degraded: read_degradation(&cpu.memory, &guest.program),
    })
}

/// Outcome of a cycle-accurate run: Table IV's quantities.
#[derive(Debug, Clone)]
pub struct CycleEvaluation {
    /// Result bits per sample.
    pub results: Vec<u64>,
    /// Average cycles per multiplication (measurement region / samples).
    pub avg_total_cycles: f64,
    /// Average cycles attributed to the accelerator ("HW part").
    pub avg_hw_cycles: f64,
    /// Average software cycles ("SW part" = total − HW).
    pub avg_sw_cycles: f64,
    /// Whole-run statistics.
    pub stats: RunStats,
    /// Fault-tolerant kernels only: kernel invocations that degraded to
    /// the software fallback (the cycle averages include that cost).
    pub degraded: Option<u64>,
}

/// Runs the guest cycle-accurately on the Rocket-like core, surfacing
/// failures as values.
///
/// # Errors
///
/// Returns [`RunError`] on guest faults, nonzero exit, or a missing
/// measurement region.
pub fn try_run_rocket(
    guest: &GuestProgram,
    timing: TimingConfig,
) -> Result<CycleEvaluation, RunError> {
    let sim = run_guest(RocketSim::new(timing), guest)?;
    let (start, end) = loop_region(&sim.cpu.markers)?;
    let stats = sim.stats();
    let calls = (guest.layout.count as f64) * f64::from(guest.layout.repetitions.max(1));
    let region = (end - start) as f64;
    // The HW bucket only accumulates inside kernel executions, so the
    // whole-run total is the measurement region's total.
    let hw = stats.hw_cycles as f64;
    Ok(CycleEvaluation {
        results: read_results(&sim.cpu.memory, guest),
        avg_total_cycles: region / calls,
        avg_hw_cycles: hw / calls,
        avg_sw_cycles: (region - hw) / calls,
        stats,
        degraded: read_degradation(&sim.cpu.memory, &guest.program),
    })
}

/// Per-input-class cycle averages from a marked run.
#[derive(Debug, Clone)]
pub struct ClassBreakdown {
    /// Result bits per sample.
    pub results: Vec<u64>,
    /// `(class, average cycles per multiplication, sample count)` rows,
    /// ordered by class.
    pub rows: Vec<(testgen::CaseClass, f64, usize)>,
    /// The overall average across all samples.
    pub overall: f64,
}

/// Runs the guest (which must have been built with per-sample markers via
/// [`build_guest_with`]) and attributes cycles to each input class — the
/// measurement behind the paper's observation that "computing time \[is\]
/// highly dependent on the nature of the input, like rounding operation
/// takes higher time than normal operation".
///
/// # Errors
///
/// Returns [`RunError`] on guest faults, nonzero exit, a missing
/// measurement region, or a sample-marker count other than one per vector
/// (a guest built without per-sample markers).
pub fn run_rocket_per_class(
    guest: &GuestProgram,
    vectors: &[TestVector],
    timing: TimingConfig,
) -> Result<ClassBreakdown, RunError> {
    let sim = run_guest(RocketSim::new(timing), guest)?;
    let markers = &sim.cpu.markers;
    let (_, end) = loop_region(markers)?;
    // Per-sample cycles: marker i+1 (or the end marker) minus marker i.
    let sample_marks: Vec<&Marker> = markers
        .iter()
        .filter(|m| m.id >= testgen::MARK_SAMPLE_BASE)
        .collect();
    if sample_marks.len() != vectors.len() {
        return Err(RunError::SampleMarkers {
            expected: vectors.len(),
            found: sample_marks.len(),
        });
    }
    let reps = f64::from(guest.layout.repetitions.max(1));
    let mut sums: std::collections::BTreeMap<testgen::CaseClass, (f64, usize)> =
        std::collections::BTreeMap::new();
    let mut total = 0.0;
    for (i, vector) in vectors.iter().enumerate() {
        let start_cycle = sample_marks[i].cycle;
        let end_cycle = sample_marks.get(i + 1).map_or(end, |m| m.cycle);
        let cycles = (end_cycle - start_cycle) as f64 / reps;
        total += cycles;
        let entry = sums.entry(vector.class).or_insert((0.0, 0));
        entry.0 += cycles;
        entry.1 += 1;
    }
    Ok(ClassBreakdown {
        results: read_results(&sim.cpu.memory, guest),
        rows: sums
            .into_iter()
            .map(|(class, (sum, n))| (class, sum / n as f64, n))
            .collect(),
        overall: total / vectors.len() as f64,
    })
}

/// Outcome of a Gem5-like atomic run: Table VI's quantities.
#[derive(Debug, Clone)]
pub struct AtomicEvaluation {
    /// Result bits per sample.
    pub results: Vec<u64>,
    /// Simulated seconds for the measurement region.
    pub simulated_seconds: f64,
    /// Instructions retired in the whole run.
    pub instret: u64,
}

/// Runs the guest on the atomic (Gem5 `AtomicSimpleCPU` SE-mode analogue)
/// simulator, surfacing failures as values.
///
/// # Errors
///
/// Returns [`RunError`] on guest faults, nonzero exit, or a missing
/// measurement region.
pub fn try_run_atomic(
    guest: &GuestProgram,
    config: AtomicConfig,
) -> Result<AtomicEvaluation, RunError> {
    let sim = run_guest(AtomicSim::new(config), guest)?;
    let (start, end) = loop_region(&sim.cpu.markers)?;
    Ok(AtomicEvaluation {
        results: read_results(&sim.cpu.memory, guest),
        simulated_seconds: (end - start) as f64 / atomic_sim::CLOCK_HZ,
        instret: sim.stats().instret,
    })
}

/// Compares per-sample results against the `decnum` oracle; returns the
/// mismatching sample indices (expected to be empty for every kernel except
/// the dummy configuration).
#[must_use]
pub fn verify_results(results: &[u64], vectors: &[TestVector]) -> Vec<usize> {
    results
        .iter()
        .zip(vectors)
        .enumerate()
        .filter_map(|(i, (&got, vector))| {
            let (xb, yb) = vector.to_decimal64_bits();
            let mut status = Status::CLEAR;
            let expected = native::software_multiply(
                Decimal64::from_bits(xb),
                Decimal64::from_bits(yb),
                &mut status,
            );
            (got != expected.to_bits()).then_some(i)
        })
        .collect()
}

/// Which native implementation to time for Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeMethod {
    /// decNumber-style software multiplication.
    Software,
    /// Method-1 flow with dummy functions (the paper's Table V subject).
    Method1Dummy,
}

/// Times `repetitions` passes of a native implementation over `vectors` on
/// the host (the paper's "real implementation" evaluation).
#[must_use]
pub fn time_native(method: NativeMethod, vectors: &[TestVector], repetitions: u32) -> Duration {
    let pairs: Vec<(Decimal64, Decimal64)> = vectors
        .iter()
        .map(|v| {
            let (x, y) = v.to_decimal64_bits();
            (Decimal64::from_bits(x), Decimal64::from_bits(y))
        })
        .collect();
    let mut sink = 0u64;
    let start = Instant::now();
    for _ in 0..repetitions.max(1) {
        for &(x, y) in &pairs {
            let mut status = Status::CLEAR;
            let r = match method {
                NativeMethod::Software => native::software_multiply(x, y, &mut status),
                NativeMethod::Method1Dummy => native::method1_multiply_dummy(x, y, &mut status),
            };
            sink = sink.wrapping_add(r.to_bits());
        }
    }
    let elapsed = start.elapsed();
    std::hint::black_box(sink);
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use testgen::{driver_source, operand_data_section, TestConfig};

    #[test]
    fn build_guest_assembles_for_all_kernels() {
        let vectors = testgen::generate(&TestConfig {
            count: 5,
            ..TestConfig::default()
        });
        for kind in KernelKind::ALL {
            build_guest(kind, &vectors, 1).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn linked_guests_equal_the_assembled_concatenation() {
        let vectors = testgen::generate(&TestConfig {
            count: 8000,
            ..TestConfig::default()
        });
        let check = |kind, count, repetitions, per_sample_marks| {
            let layout = DriverLayout {
                count,
                repetitions,
                per_sample_marks,
            };
            let guest = build_guest_with(kind, &vectors[..count], layout).unwrap();
            let source = driver_source(layout)
                + &kernel_source(kind)
                + &operand_data_section(&vectors[..count]);
            let oracle = riscv_asm::assemble(&source).unwrap();
            assert_eq!(guest.program, oracle, "{kind} {layout:?}");
        };
        // 2047/2048/2049 straddle the one-instruction `li` limit, which
        // moves the kernel and its `.align`s.
        for kind in KernelKind::ALL {
            for count in [0, 1, 25, 2047, 2048, 2049] {
                for repetitions in [0, 1, 5000] {
                    for per_sample_marks in [false, true] {
                        check(kind, count, repetitions, per_sample_marks);
                    }
                }
            }
        }
        // The ledger's batches: every size, both kernels, unmarked.
        for kind in [KernelKind::Method1, KernelKind::Software] {
            for count in 2..=64 {
                for repetitions in [1, 3] {
                    check(kind, count, repetitions, false);
                }
            }
        }
        // The paper's 8,000-sample tables.
        for kind in KernelKind::ALL {
            check(kind, vectors.len(), 1, false);
        }
    }

    #[test]
    fn per_class_runs_report_failures_as_errors() {
        let vectors = testgen::generate(&TestConfig {
            count: 3,
            ..TestConfig::default()
        });
        let marked = DriverLayout {
            count: vectors.len(),
            repetitions: 1,
            per_sample_marks: true,
        };
        let timing = TimingConfig::default();
        let mut guest = build_guest_with(KernelKind::Method1, &vectors, marked).unwrap();
        let breakdown = run_rocket_per_class(&guest, &vectors, timing).unwrap();
        assert!(verify_results(&breakdown.results, &vectors).is_empty());

        // An `ebreak` over the kernel's first instruction faults the first
        // call, after the loop-start and first sample markers have fired.
        let kernel = guest.program.symbol("kernel").unwrap();
        let at = (kernel - guest.program.text.base) as usize;
        guest.program.text.data[at..at + 4].copy_from_slice(&0x0010_0073u32.to_le_bytes());
        assert!(matches!(
            run_rocket_per_class(&guest, &vectors, timing),
            Err(RunError::Fault {
                error: riscv_sim::CpuError::Breakpoint(pc),
                ..
            }) if pc == kernel
        ));

        let unmarked = DriverLayout {
            per_sample_marks: false,
            ..marked
        };
        let guest = build_guest_with(KernelKind::Method1, &vectors, unmarked).unwrap();
        assert_eq!(
            run_rocket_per_class(&guest, &vectors, timing).unwrap_err(),
            RunError::SampleMarkers {
                expected: 3,
                found: 0
            }
        );
    }

    #[test]
    fn native_timing_returns_nonzero() {
        let vectors = testgen::generate(&TestConfig {
            count: 50,
            ..TestConfig::default()
        });
        let d = time_native(NativeMethod::Software, &vectors, 2);
        assert!(d.as_nanos() > 0);
    }
}
