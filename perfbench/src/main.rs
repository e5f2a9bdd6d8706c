//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Prints notes, then one JSON result line. Exits 0 when every output
//! verified, 1 when any was wrong, 2 on a usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{per_layer_catalog, result_line, END_TO_END, WORKLOADS};
use perfbench::workloads::{run, Config, Scale};

fn parse(args: &[String]) -> Result<Config, String> {
    let mut config = Config {
        workload: String::new(),
        seed: 2019,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench"),
        scale: Scale::Full,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => config.workload.clone_from(value),
            "--seed" => config.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                config.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(config.seconds > 0.0 && config.seconds <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--work-dir" => config.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&config.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            config.workload
        ));
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&config) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let catalog: Vec<(String, &'static str)> = if config.trace {
        per_layer_catalog()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    println!(
        "# {} seed {} ({})",
        config.workload,
        config.seed,
        if config.trace { "traced" } else { "untraced" }
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for (name, unit) in &catalog {
        println!("# {name:<36} {:>16.6} {unit}", outcome.metrics.get(name));
    }
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &catalog,
            &outcome.metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
