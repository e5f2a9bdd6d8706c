//! `rvlint` CLI: statically lints every co-design kernel (and a sample of
//! generated test programs) for CFG/dataflow defects and RoCC-protocol
//! violations.
//!
//! ```text
//! rvlint [kernel-slug ...] [--seed S] [--testgen-samples N] [--repetitions N]
//!        [--verbose]
//! ```
//!
//! With no slugs, all kernels are linted. Each kernel is assembled into the
//! same driver+kernel guest the simulators run, then analyzed with
//! [`rvlint::analyze`]. On top of the default single-vector guest, the
//! `--testgen-samples` option (default 3) lints guests built from
//! generator-produced vector databases of increasing size — the same
//! programs `testgen` feeds the lockstep harness — so data-layout
//! variation (operand tables, result areas) is exercised too.
//!
//! Exits 1 if any gating (Error-severity) finding is reported, printing
//! every diagnostic with its pc, instruction, source location, and path
//! witness. Info notes never gate; pass `--verbose` to see them and the
//! per-guest statistics.

use codesign::kernels::KernelKind;
use testgen::TestConfig;

struct Options {
    kinds: Vec<KernelKind>,
    seed: u64,
    testgen_samples: usize,
    repetitions: u32,
    verbose: bool,
}

fn parse_args() -> Options {
    let mut options = Options {
        kinds: Vec::new(),
        seed: 2019,
        testgen_samples: 3,
        repetitions: 1,
        verbose: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => options.seed = number(&mut args, "--seed"),
            "--testgen-samples" => options.testgen_samples = number(&mut args, "--testgen-samples"),
            "--repetitions" => options.repetitions = number(&mut args, "--repetitions"),
            "--verbose" => options.verbose = true,
            slug => match KernelKind::from_slug(slug) {
                Some(kind) => options.kinds.push(kind),
                None => usage(&format!(
                    "unknown kernel {slug:?} (expected one of: {})",
                    KernelKind::ALL.map(KernelKind::slug).join(", ")
                )),
            },
        }
    }
    if options.kinds.is_empty() {
        options.kinds = KernelKind::ALL.to_vec();
    }
    options
}

/// The value after `flag`, parsed in the type it is stored in, so an
/// out-of-range number is a usage error rather than a silently narrowed one.
fn number<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a number in range")))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: rvlint [kernel-slug ...] [--seed S] [--testgen-samples N] \
         [--repetitions N] [--verbose]"
    );
    std::process::exit(2);
}

/// Lints one guest; returns the number of gating findings.
fn lint_guest(label: &str, kind: KernelKind, vectors: &[testgen::TestVector], options: &Options) -> usize {
    let guest = match codesign::framework::build_guest(kind, vectors, options.repetitions) {
        Ok(guest) => guest,
        Err(e) => {
            println!("  {label}: FAILED TO ASSEMBLE: {e}");
            return 1;
        }
    };
    let report = rvlint::analyze(&guest.program);
    let errors = report.errors().count();
    let notes = report.diagnostics.len() - errors;
    if errors > 0 {
        println!("  {label}: {errors} error(s), {notes} note(s)");
        for diagnostic in report.errors() {
            println!("    {diagnostic}");
        }
    } else if options.verbose {
        println!(
            "  {label}: clean ({} instructions, {} blocks, {} functions, {} accel commands, \
             {notes} note(s))",
            report.stats.instructions,
            report.stats.basic_blocks,
            report.stats.functions,
            report.stats.accel_commands
        );
    } else {
        println!("  {label}: clean ({notes} note(s))");
    }
    if options.verbose {
        for diagnostic in &report.diagnostics {
            if diagnostic.severity != rvlint::Severity::Error {
                println!("    {diagnostic}");
            }
        }
    }
    errors
}

fn main() {
    let options = parse_args();
    // Generator-produced databases of increasing size: the single-vector
    // guest plus progressively larger operand/result layouts.
    let sizes: Vec<usize> = std::iter::once(1)
        .chain((0..options.testgen_samples).map(|k| 5 * 10usize.pow(k.min(3) as u32)))
        .collect();
    let mut errors = 0usize;
    println!(
        "rvlint: {} kernel(s) × {} generated layouts, seed {}",
        options.kinds.len(),
        sizes.len(),
        options.seed
    );
    for &kind in &options.kinds {
        println!("— {} ({})", kind.name(), kind.slug());
        for (sample, &count) in sizes.iter().enumerate() {
            // Layout seeds count up from `--seed`, wrapping past u64::MAX.
            let seed = options.seed.wrapping_add(sample as u64);
            let vectors = testgen::generate(&TestConfig {
                count,
                seed,
                ..TestConfig::default()
            });
            let label = format!("{count} vectors (seed {seed})");
            errors += lint_guest(&label, kind, &vectors, &options);
        }
    }
    if errors > 0 {
        eprintln!("rvlint: {errors} gating finding(s)");
        std::process::exit(1);
    }
    println!("rvlint: all guests clean");
}
