//! Differential verification driver: lockstep-checks the three simulators
//! against each other, the kernels against the verification database, the
//! accelerator against its software model, and the accelerator protocol
//! against a seeded fault-injection campaign.
//!
//! ```text
//! lockstep [conformance|fuzz|rocc|faults|all] [--samples N] [--seed S]
//!          [--programs N] [--commands N] [--faults N] [--fault-samples N]
//!          [--journal PATH | --resume PATH] [--checkpoint-every N]
//! ```
//!
//! Defaults: `all`, 200 database samples (the paper's 8,000-sample
//! configuration scaled down for CI — pass `--samples 8000` for the full
//! database), seed 2019, 200 fuzz programs, 500 injected faults over a
//! 6-sample guest.
//!
//! `--journal PATH` makes the `conformance`, `fuzz`, and `faults`
//! subcommands (one at a time — not `all`) write an append-only journal of
//! completed cases; `--resume PATH` restarts a killed run from its journal
//! and, because every campaign is deterministic in its seed, produces the
//! same stdout report byte for byte. The `faults` subcommand journals one
//! file per kernel at `PATH.<kernel-slug>`. Progress lines (cases done /
//! total / quarantined) go to stderr so stdout stays diffable.
//!
//! A zero count, a second subcommand, or both `--journal` and `--resume`
//! is a usage error (exit 2): a run of zero cases would pass vacuously.
//!
//! Exits nonzero on any divergence, printing the full report (pc,
//! instruction, register/memory delta, retirement context) and the shrunk
//! reproducing program for fuzz failures. A lockstep run that only ends
//! because the step budget ran out is reported as a distinct warning (a
//! bounded hang is not a pass) and counted as a failure. I/O and setup
//! failures (an unreadable journal, a kernel that fails to build) are
//! reported as typed errors with a nonzero exit, never a panic.

use std::path::PathBuf;

use codesign::kernels::KernelKind;
use lockstep::campaign::{run_campaign_journaled, CampaignConfig};
use lockstep::fuzz::{run_fuzz_journaled, FuzzConfig, BODY_ITEMS};
use lockstep::journal::{CaseLog, Fingerprint, JournalSpec, Progress};
use lockstep::rocc_diff::fuzz_rocc_commands;
use lockstep::{check_guest_all_pairs, guest_budget, Pair};
use testgen::TestConfig;

struct Options {
    what: String,
    samples: usize,
    seed: u64,
    programs: u32,
    commands: u32,
    faults: usize,
    fault_samples: usize,
    journal: Option<PathBuf>,
    resume: bool,
    checkpoint_every: usize,
}

impl Options {
    /// The journal spec for this run (`suffix` distinguishes per-kernel
    /// journals within one invocation).
    fn journal_spec(&self, suffix: Option<&str>) -> Option<JournalSpec> {
        self.journal.as_ref().map(|path| {
            let path = match suffix {
                Some(suffix) => {
                    let mut name = path.as_os_str().to_os_string();
                    name.push(".");
                    name.push(suffix);
                    PathBuf::from(name)
                }
                None => path.clone(),
            };
            JournalSpec {
                path,
                resume: self.resume,
                checkpoint_every: self.checkpoint_every,
            }
        })
    }
}

fn parse_args() -> Options {
    let mut options = Options {
        what: String::new(),
        samples: 200,
        seed: 2019,
        programs: 200,
        commands: 10_000,
        faults: 500,
        fault_samples: 6,
        journal: None,
        resume: false,
        checkpoint_every: 50,
    };
    let mut what = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--samples" => options.samples = count(&mut args, "--samples"),
            "--seed" => options.seed = number(&mut args, "--seed"),
            "--programs" => options.programs = count(&mut args, "--programs"),
            "--commands" => options.commands = count(&mut args, "--commands"),
            "--faults" => options.faults = count(&mut args, "--faults"),
            "--fault-samples" => options.fault_samples = count(&mut args, "--fault-samples"),
            flag @ ("--journal" | "--resume") => {
                if options.journal.is_some() {
                    usage("give one --journal or --resume path");
                }
                let path = args
                    .next()
                    .unwrap_or_else(|| usage(&format!("{flag} needs a path")));
                options.journal = Some(path.into());
                options.resume = flag == "--resume";
            }
            "--checkpoint-every" => {
                options.checkpoint_every = number(&mut args, "--checkpoint-every");
            }
            "conformance" | "fuzz" | "rocc" | "faults" | "all" => {
                if let Some(first) = &what {
                    usage(&format!(
                        "one subcommand at a time, got {first:?} and {arg:?}"
                    ));
                }
                what = Some(arg);
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    options.what = what.unwrap_or_else(|| "all".to_string());
    if options.journal.is_some() && !matches!(options.what.as_str(), "conformance" | "fuzz" | "faults")
    {
        usage("--journal/--resume requires a single journaled subcommand: conformance, fuzz, or faults");
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

/// [`number`] for a count of cases, which must be positive: a run of zero
/// cases checks nothing and would pass vacuously.
fn count<T: std::str::FromStr + Default + PartialEq>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> T {
    let n = number(args, flag);
    if n == T::default() {
        usage(&format!("{flag} needs a positive number"));
    }
    n
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: lockstep [conformance|fuzz|rocc|faults|all] [--samples N] [--seed S] \
         [--programs N] [--commands N] [--faults N] [--fault-samples N] \
         [--journal PATH | --resume PATH] [--checkpoint-every N]"
    );
    std::process::exit(2);
}

/// Reports a typed runtime failure (journal I/O, header mismatch) and
/// exits nonzero — the error path the panic audit demands: no backtraces.
fn die(error: &dyn std::fmt::Display) -> ! {
    eprintln!("error: {error}");
    std::process::exit(1);
}

fn progress_line(what: &str, progress: Progress) {
    eprintln!(
        "progress: {what} {}/{} done, {} quarantined",
        progress.done, progress.total, progress.quarantined
    );
}

/// Lockstep-checks every kernel over the verification database on every
/// simulator pair. Returns the number of failing pairs
/// ([`check_guest_all_pairs`]: a divergence, or a guest that never exits
/// within budget — a bounded hang, not an agreement).
fn conformance(options: &Options) -> u32 {
    println!(
        "— conformance: {} samples, seed {}, {} kernels × {} pairs",
        options.samples,
        options.seed,
        KernelKind::ALL.len(),
        Pair::ALL.len()
    );
    let vectors = testgen::generate(&TestConfig {
        count: options.samples,
        seed: options.seed,
        ..TestConfig::default()
    });
    // The conformance journal records one line per finished kernel:
    // `case <slug> <divergence count>`. Clean kernels replay from the
    // journal without re-running; diverged kernels re-run so the full
    // divergence report is regenerated.
    let fingerprint = {
        let mut fp = Fingerprint::new("conformance");
        fp.u64(options.samples as u64).u64(options.seed);
        fp.finish()
    };
    let spec = options.journal_spec(None);
    let mut report = |p| {
        if spec.is_some() {
            progress_line("conformance", p);
        }
    };
    let mut log = CaseLog::open(
        spec.as_ref(),
        "conformance",
        fingerprint,
        KernelKind::ALL.len(),
        &mut report,
    )
    .unwrap_or_else(|e| die(&e));
    let mut divergences = 0;
    for kind in KernelKind::ALL {
        let slug = kind.slug();
        if log.recovered(slug) == Some("0") {
            println!("  {kind:<16} all pairs agree");
            log.close_case(slug, None, 0).unwrap_or_else(|e| die(&e));
            continue;
        }
        let guest = match codesign::framework::build_guest(kind, &vectors, 1) {
            Ok(guest) => guest,
            Err(e) => {
                divergences += 1;
                println!("  {kind:<16} BUILD FAILED: {e}");
                log.close_case(slug, None, 0).unwrap_or_else(|e| die(&e));
                continue;
            }
        };
        let failing = check_guest_all_pairs(&guest);
        for (pair, outcome) in &failing {
            match outcome.divergence() {
                Some(divergence) => println!("  {kind:<16} DIVERGED on {pair}:\n{divergence}"),
                None => println!(
                    "  {kind:<16} WARNING on {pair}: step budget ({}) exhausted before \
                     exit — a bounded hang, not a pass",
                    guest_budget(&guest)
                ),
            }
        }
        if failing.is_empty() {
            println!("  {kind:<16} all pairs agree");
        }
        divergences += failing.len() as u32;
        log.close_case(slug, Some(&[&failing.len().to_string()]), 0)
            .unwrap_or_else(|e| die(&e));
    }
    log.finish(0);
    divergences
}

/// Runs the seeded fault-injection campaign on the plain and the
/// fault-tolerant Method-1 guests. Returns the failure count: campaign
/// errors (a golden run that fails, a guest with no commands) always
/// fail; silent data corruption fails only for the fault-tolerant kernel,
/// whose whole job is to eliminate that class. Quarantined cases are
/// logged skips, not failures.
fn faults(options: &Options) -> u32 {
    println!(
        "— faults: {} single-bit faults over a {}-sample guest, seed {}",
        options.faults, options.fault_samples, options.seed
    );
    let vectors = testgen::generate(&TestConfig {
        count: options.fault_samples,
        seed: options.seed,
        ..TestConfig::default()
    });
    let mut failures = 0;
    for kind in KernelKind::FAULT_CAMPAIGN {
        let guest = match codesign::framework::build_guest(kind, &vectors, 1) {
            Ok(guest) => guest,
            Err(e) => {
                failures += 1;
                println!("  {:<28} BUILD FAILED: {e}", kind.name());
                continue;
            }
        };
        let config = CampaignConfig {
            seed: options.seed,
            faults: options.faults,
            instruction_budget: guest_budget(&guest),
            result_words: vectors.len(),
        };
        let spec = options.journal_spec(Some(kind.slug()));
        let label = format!("faults[{}]", kind.slug());
        let report = run_campaign_journaled(&guest.program, &config, spec.as_ref(), &mut |p| {
            if spec.is_some() {
                progress_line(&label, p);
            }
        })
        .unwrap_or_else(|e| die(&e));
        let tally = report.tally();
        println!(
            "  {:<28} {} RoCC commands; {} masked, {} detected, {} caught-by-watchdog, {} \
             silent-data-corruption, {} quarantined",
            kind.name(),
            report.total_commands,
            tally.masked,
            tally.detected,
            tally.caught_by_watchdog,
            tally.silent_data_corruption,
            report.quarantined.len(),
        );
        for case in &report.quarantined {
            println!("  {:<28} QUARANTINED: {case}", kind.name());
        }
        for error in &report.errors {
            failures += 1;
            println!("  {:<28} ERROR: {error}", kind.name());
        }
        if kind == KernelKind::Method1Ft && tally.silent_data_corruption > 0 {
            failures += tally.silent_data_corruption as u32;
            println!(
                "  {:<28} FAILED: {} silent corruption(s) slipped past the detection net",
                kind.name(),
                tally.silent_data_corruption
            );
        }
    }
    failures
}

/// Runs the differential instruction fuzzer. Returns the failure count.
fn fuzz(options: &Options) -> u32 {
    println!(
        "— fuzz: {} programs × {} pairs, seed {}, {BODY_ITEMS} body items, rocc on",
        options.programs,
        Pair::ALL.len(),
        options.seed,
    );
    let spec = options.journal_spec(None);
    let report = run_fuzz_journaled(
        &FuzzConfig {
            seed: options.seed,
            programs: options.programs,
            ..FuzzConfig::default()
        },
        spec.as_ref(),
        &mut |p| {
            if spec.is_some() {
                progress_line("fuzz", p);
            }
        },
    )
    .unwrap_or_else(|e| die(&e));
    println!(
        "  {} programs, {} pair runs, {} instructions compared in lockstep",
        report.programs_run, report.pairs_checked, report.instructions_checked
    );
    for failure in &report.failures {
        println!(
            "  program {} DIVERGED on {}:\n{}\n  minimal reproducer:\n{}",
            failure.program_index, failure.pair, failure.divergence, failure.shrunk_source
        );
    }
    report.failures.len() as u32
}

/// Runs the RoCC command-level differential. Returns the mismatch count.
fn rocc(options: &Options) -> u32 {
    println!(
        "— rocc: {} commands against the software model, seed {}",
        options.commands, options.seed
    );
    let report = fuzz_rocc_commands(options.seed, options.commands);
    println!("  {} commands compared", report.commands_run);
    for mismatch in &report.mismatches {
        println!(
            "  command {} ({}) MISMATCHED: {}",
            mismatch.index, mismatch.funct, mismatch.detail
        );
    }
    report.mismatches.len() as u32
}

fn main() {
    let options = parse_args();
    let mut failures = 0;
    if matches!(options.what.as_str(), "conformance" | "all") {
        failures += conformance(&options);
    }
    if matches!(options.what.as_str(), "fuzz" | "all") {
        failures += fuzz(&options);
    }
    if matches!(options.what.as_str(), "rocc" | "all") {
        failures += rocc(&options);
    }
    if matches!(options.what.as_str(), "faults" | "all") {
        failures += faults(&options);
    }
    if failures > 0 {
        eprintln!("{failures} divergence(s) found");
        std::process::exit(1);
    }
    println!("all differential checks passed");
}
