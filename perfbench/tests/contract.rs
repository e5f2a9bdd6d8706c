//! The benchmark's own contract: every named metric is emitted with its
//! unit, `BENCHMARK.json` names the same metrics, and the seed argument
//! changes the inputs while a repeated seed repeats every simulated value.

use std::path::PathBuf;

use perfbench::report::{per_layer_catalog, result_line, END_TO_END, WORKLOADS};
use perfbench::workloads::{run, Config, Outcome, Scale};

fn tiny_run(workload: &str, seed: u64, trace: bool, dir: &str) -> Outcome {
    let config = Config {
        workload: workload.to_string(),
        seed,
        seconds: 0.001,
        trace,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir),
        scale: Scale::Tiny,
    };
    run(&config).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn end_to_end_catalog() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// Asserts that the result line carries every catalog entry with its unit.
fn assert_emitted(line: &str, catalog: &[(String, &'static str)]) {
    for (name, unit) in catalog {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} not in {line}"));
        let rest = &line[at..];
        let end = rest.find('}').expect("entry closes");
        assert!(
            rest[..=end].ends_with(&format!("\"unit\": \"{unit}\"}}")),
            "{name}: {unit}"
        );
    }
}

#[test]
fn every_end_to_end_metric_is_emitted_nonzero_with_its_unit() {
    let catalog = end_to_end_catalog();
    for workload in WORKLOADS {
        let outcome = tiny_run(workload, 2019, false, "e2e");
        assert!(outcome.correct, "{workload}: {:?}", outcome.notes);
        assert_eq!(outcome.failed, 0, "{workload}");
        for (name, _) in &catalog {
            assert!(outcome.metrics.contains(name), "{workload}: {name} missing");
            assert!(outcome.metrics.get(name) > 0.0, "{workload}: {name} is 0");
        }
        assert_emitted(
            &result_line(true, 1, 0, &catalog, &outcome.metrics),
            &catalog,
        );
    }
}

#[test]
fn every_per_layer_metric_is_emitted_and_nothing_else() {
    let catalog = per_layer_catalog();
    for workload in WORKLOADS {
        let outcome = tiny_run(workload, 2019, true, "layers");
        assert!(outcome.correct, "{workload}: {:?}", outcome.notes);
        for (name, _) in outcome.metrics.iter() {
            let known = catalog.iter().any(|(n, _)| n == name)
                || END_TO_END.iter().any(|(n, _)| *n == name);
            assert!(known, "{workload} sets {name}, which no catalog names");
        }
        assert_emitted(
            &result_line(true, 1, 0, &catalog, &outcome.metrics),
            &catalog,
        );
        for name in [
            "testgen.generate_s",
            "asm.build_guest_s",
            "framework.self_s",
            "trace.spans",
            "requests",
        ] {
            assert!(outcome.metrics.get(name) > 0.0, "{workload}: {name} is 0");
        }
        let dyn_per_static = format!("{workload}.dyn_per_static");
        assert!(
            outcome.metrics.get(&dyn_per_static) > 1.0,
            "{dyn_per_static}"
        );
    }
}

#[test]
fn benchmark_json_names_every_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = text.split_whitespace().collect();
    let mut all = end_to_end_catalog();
    all.extend(per_layer_catalog());
    for (name, unit) in &all {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in WORKLOADS {
        assert!(compact.contains(&format!("{{\"name\":\"{workload}\",\"why\":")));
    }
    let listed = compact.matches("\"unit\":").count();
    assert_eq!(
        listed,
        all.len(),
        "BENCHMARK.json lists metrics the benchmark does not emit"
    );
}

#[test]
fn the_seed_changes_inputs_and_a_repeated_seed_repeats_them() {
    for workload in WORKLOADS {
        let first = tiny_run(workload, 7, false, "seed-a");
        let again = tiny_run(workload, 7, false, "seed-b");
        let other = tiny_run(workload, 8, false, "seed-c");
        let cycles = |o: &Outcome| o.metrics.get("sim_cycles_per_mul");
        assert_eq!(
            cycles(&first),
            cycles(&again),
            "{workload}: same seed, same inputs"
        );
        assert_ne!(
            cycles(&first),
            cycles(&other),
            "{workload}: another seed, other inputs"
        );
    }
}

#[test]
fn a_repeated_run_checks_its_simulated_values_against_the_first() {
    // The second run of a seed compares against the record the first left.
    let first = tiny_run("ledger_batches", 11, false, "repeat");
    let second = tiny_run("ledger_batches", 11, false, "repeat");
    assert!(first.correct && second.correct);
    assert!(!second.notes.iter().any(|n| n.contains("DETERMINISM")));
}
