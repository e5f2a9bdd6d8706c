//! Regenerates every table of the paper's evaluation.
//!
//! ```text
//! tables [table2|table3|table4|table5|table6|pareto|classes|seeds|ablations|micro|all]
//!        [--samples N] [--seed S] [--reps R]
//! ```
//!
//! Defaults: `all`, 8,000 samples (the paper's count), seed 2019.
//! `ablations` sweeps Rocket timing parameters and the software-baseline
//! style; `micro` times the decimal substrates and each simulator's
//! retire rate on the host.

use std::hint::black_box;
use std::time::Instant;

use codesign::framework::{
    time_native, try_run_atomic, try_run_functional, try_run_rocket, NativeMethod,
};
use codesign::kernels::KernelKind;
use codesign::report;
use decimal_bench::{
    atomic_config, check_results, rocket_timing, try_evaluate_cycles, try_guest_for, workload,
    BenchError,
};
use rocket_sim::TimingConfig;

struct Options {
    what: String,
    samples: usize,
    seed: u64,
    reps: u32,
}

fn parse_args() -> Options {
    let mut options = Options {
        what: String::new(),
        samples: decimal_bench::PAPER_SAMPLES,
        seed: 2019,
        reps: 20,
    };
    let mut what = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--samples" => {
                options.samples = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--samples needs a positive number"));
            }
            "--seed" => {
                options.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--reps" => {
                options.reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--reps needs a positive number"));
            }
            "table2" | "table3" | "table4" | "table5" | "table6" | "pareto" | "classes"
            | "seeds" | "ablations" | "micro" | "all" => {
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
    options
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: tables [table2|table3|table4|table5|table6|pareto|classes|seeds|ablations|micro|all] \
         [--samples N] [--seed S] [--reps R]"
    );
    std::process::exit(2)
}

/// Reports a typed runtime failure (a kernel that fails to build, a failed
/// guest run, a result mismatch against the oracle) and exits nonzero
/// without a panic.
fn die(error: &dyn std::fmt::Display) -> ! {
    eprintln!("error: {error}");
    std::process::exit(1);
}

fn main() {
    let options = parse_args();
    let what = options.what.as_str();
    if matches!(what, "table2" | "all") {
        println!("{}", report::table2());
    }
    if matches!(what, "table3" | "all") {
        println!("{}", report::table3());
    }
    if matches!(what, "table4" | "all") {
        table4(&options);
    }
    if matches!(what, "table5" | "all") {
        table5(&options);
    }
    if matches!(what, "table6" | "all") {
        table6(&options);
    }
    if matches!(what, "pareto" | "all") {
        pareto(&options);
    }
    if matches!(what, "classes" | "all") {
        classes(&options);
    }
    if matches!(what, "seeds" | "all") {
        seeds(&options);
    }
    if matches!(what, "ablations" | "all") {
        ablations(&options);
    }
    if matches!(what, "micro" | "all") {
        micro();
    }
}

fn seeds(options: &Options) {
    // The paper's §V caveat: "due to cache random replacement policy, Rocket
    // chip is responsible for computing the number of cycles
    // nondeterministically. However ... a large numbers of input samples
    // with many repetition ... can show statistically meaningful results."
    // Sweep the replacement seed and report the spread of the averages.
    let count = options.samples.min(1_000);
    let vectors = workload(count, options.seed);
    eprintln!("[seeds] cache-seed sweep ({count} samples x 8 seeds)...");
    println!("Cache-replacement nondeterminism (paper Sec. V)");
    println!("{:<28} {:>10} {:>10} {:>10} {:>8}", "Configuration", "mean", "min", "max", "spread");
    for kind in [KernelKind::Software, KernelKind::Method1] {
        let averages: Vec<f64> = (0..8u64)
            .map(|s| {
                try_evaluate_cycles(kind, &vectors, rocket_timing(options.seed ^ (s * 0x9E37)))
                    .unwrap_or_else(|e| die(&e))
                    .avg_total_cycles
            })
            .collect();
        let mean = averages.iter().sum::<f64>() / averages.len() as f64;
        let min = averages.iter().cloned().fold(f64::MAX, f64::min);
        let max = averages.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "{:<28} {:>10.1} {:>10.1} {:>10.1} {:>7.3}%",
            kind.name(),
            mean,
            min,
            max,
            100.0 * (max - min) / mean
        );
    }
    println!();
}

fn classes(options: &Options) {
    use codesign::framework::{build_guest_with, run_rocket_per_class};
    use testgen::DriverLayout;
    let count = options.samples.min(2_000);
    let vectors = workload(count, options.seed);
    let timing = rocket_timing(options.seed);
    eprintln!("[classes] per-class cycle attribution ({count} samples)...");
    let mut configs = Vec::new();
    for kind in [
        KernelKind::Software,
        KernelKind::Method1,
        KernelKind::Method1Dummy,
    ] {
        let guest = build_guest_with(
            kind,
            &vectors,
            DriverLayout {
                count: vectors.len(),
                repetitions: 1,
                per_sample_marks: true,
            },
        )
        .unwrap_or_else(|e| die(&format!("{kind}: failed to build guest: {e}")));
        let breakdown = run_rocket_per_class(&guest, &vectors, timing)
            .unwrap_or_else(|error| die(&BenchError::Run { kind, error }));
        check_results(kind, &breakdown.results, &vectors).unwrap_or_else(|e| die(&e));
        configs.push((kind.name().to_string(), breakdown));
    }
    println!("{}", codesign::report::class_table(&configs));
}

fn table4(options: &Options) {
    let vectors = workload(options.samples, options.seed);
    let timing = rocket_timing(options.seed);
    eprintln!(
        "[table4] running {} samples on the cycle-accurate core...",
        vectors.len()
    );
    // The baseline row is computed up front, so the "software row present"
    // invariant holds by construction rather than by a runtime expect.
    let baseline = report::Table4Row::from_eval(
        KernelKind::Software,
        &try_evaluate_cycles(KernelKind::Software, &vectors, timing).unwrap_or_else(|e| die(&e)),
    );
    let mut rows = Vec::new();
    for kind in [
        KernelKind::Method1,
        KernelKind::Software,
        KernelKind::Method1Dummy,
    ] {
        if kind == KernelKind::Software {
            rows.push(baseline.clone());
            continue;
        }
        let eval = try_evaluate_cycles(kind, &vectors, timing).unwrap_or_else(|e| die(&e));
        rows.push(report::Table4Row::from_eval(kind, &eval));
    }
    println!("{}", report::table4(&rows, &baseline));
}

fn table5(options: &Options) {
    let vectors = workload(options.samples, options.seed);
    eprintln!(
        "[table5] timing native implementations ({} samples x {} reps)...",
        vectors.len(),
        options.reps
    );
    let software = time_native(NativeMethod::Software, &vectors, options.reps);
    let dummy = time_native(NativeMethod::Method1Dummy, &vectors, options.reps);
    let rows = vec![
        (
            "Method-1 using dummy function".to_string(),
            dummy.as_secs_f64(),
        ),
        ("Software (decNumber-style)".to_string(), software.as_secs_f64()),
    ];
    println!(
        "{}",
        report::time_table(
            "Table V: Evaluation by real (host) implementation",
            "Time (sec)",
            &rows,
            1,
        )
    );
}

fn table6(options: &Options) {
    // The atomic runs are slower per instruction than the native ones;
    // keep the sample count moderate by default scaling.
    let count = options.samples.min(2_000);
    let vectors = workload(count, options.seed);
    eprintln!("[table6] running {count} samples on the atomic CPU...");
    let config = atomic_config();
    let mut rows = Vec::new();
    for (label, kind) in [
        ("Method-1 using dummy function", KernelKind::Method1Dummy),
        ("Software (decNumber-style)", KernelKind::Software),
    ] {
        let guest = try_guest_for(kind, &vectors).unwrap_or_else(|e| die(&e));
        let eval = try_run_atomic(&guest, config)
            .unwrap_or_else(|error| die(&BenchError::Run { kind, error }));
        rows.push((label.to_string(), eval.simulated_seconds));
    }
    println!(
        "{}",
        report::time_table(
            "Table VI: Evaluation using the Gem5-like AtomicSimpleCPU model",
            "Time (sec)",
            &rows,
            1,
        )
    );
}

fn pareto(options: &Options) {
    let count = options.samples.min(2_000);
    let vectors = workload(count, options.seed);
    let timing = rocket_timing(options.seed);
    eprintln!("[pareto] running the four methods ({count} samples)...");
    let costs = report::method_costs();
    let mut entries = Vec::new();
    for (kind, (name, gates)) in [
        KernelKind::Method1,
        KernelKind::Method2,
        KernelKind::Method3,
        KernelKind::Method4,
    ]
    .into_iter()
    .zip(costs)
    {
        let eval = try_evaluate_cycles(kind, &vectors, timing).unwrap_or_else(|e| die(&e));
        entries.push((name, gates, eval.avg_total_cycles));
    }
    println!("{}", report::pareto_table(&entries));
}

fn ablations(options: &Options) {
    let count = options.samples.min(2_000);
    let vectors = workload(count, options.seed);
    eprintln!("[ablations] sweeping timing parameters ({count} samples)...");
    let cycles = |kind, timing| {
        try_evaluate_cycles(kind, &vectors, timing)
            .unwrap_or_else(|e| die(&e))
            .avg_total_cycles
    };
    let base = rocket_timing(options.seed);

    // The interface overhead the paper's Sec. V discusses ("such an
    // interface imposes a latency overhead"). Of the two kernels measured
    // here only Method-1 issues RoCC commands, so only it is swept.
    println!("Ablation: Method-1 avg cycles vs RoCC response latency");
    let sweep = [0u32, 2, 4, 8].map(|resp| {
        let timing = TimingConfig {
            rocc_resp_latency: resp,
            ..base
        };
        (resp, cycles(KernelKind::Method1, timing))
    });
    for (resp, avg) in sweep {
        println!("  resp latency {resp:>2} cycles -> avg total {avg:>8.2}");
    }
    let ((first, low), (last, high)) = (sweep[0], sweep[sweep.len() - 1]);
    println!(
        "  slope: {:+.2} cycles per response-latency cycle",
        (high - low) / f64::from(last - first)
    );

    println!("Ablation: avg cycles vs L1 miss penalty");
    for miss in [10u32, 20, 40] {
        let timing = TimingConfig {
            miss_penalty: miss,
            ..base
        };
        let software = cycles(KernelKind::Software, timing);
        let method1 = cycles(KernelKind::Method1, timing);
        println!(
            "  miss {miss:>2} -> software {software:>8.2}, method-1 {method1:>8.2}, speedup {:.2}x",
            software / method1
        );
    }

    println!("Ablation: software baseline style");
    let decnumber = cycles(KernelKind::Software, base);
    let bid = cycles(KernelKind::SoftwareBid, base);
    println!("  {:<28} {decnumber:>8.2}", KernelKind::Software.name());
    println!(
        "  {:<28} {bid:>8.2}  ({:.2}x faster)",
        KernelKind::SoftwareBid.name(),
        decnumber / bid
    );
    println!();
}

/// How many times `micro` calls each operation.
const MICRO_ITERATIONS: u32 = 100_000;

/// Host nanoseconds per call of `op`, averaged over [`MICRO_ITERATIONS`]
/// calls. `op` receives the iteration index, so loops over inputs need no
/// state of their own.
fn ns_per_op<R>(mut op: impl FnMut(u32) -> R) -> f64 {
    let start = Instant::now();
    for i in 0..MICRO_ITERATIONS {
        black_box(op(black_box(i)));
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(MICRO_ITERATIONS)
}

fn micro() {
    use bcd::cla::BcdCla;
    use bcd::Bcd64;
    use decnum::{Context, DecNumber};
    use rocc::{DecimalAccelerator, DecimalFunct};

    eprintln!("[micro] timing the decimal substrates on the host...");
    let a = Bcd64::from_value(9_876_543_210_123_456).expect("16 digits fit");
    let b = Bcd64::from_value(1_234_567_890_654_321).expect("16 digits fit");
    let cla = BcdCla::new(16);
    let x: DecNumber = "1234567890123456".parse().expect("valid literal");
    let y: DecNumber = "9876543210987654".parse().expect("valid literal");
    let mut accelerator = DecimalAccelerator::new();
    let rows = [
        ("bcd64_add", ns_per_op(|_| black_box(a).add(black_box(b)))),
        ("bcd64_full_mul", ns_per_op(|_| black_box(a).full_mul(black_box(b)))),
        ("bcd_cla_add", ns_per_op(|_| cla.add(black_box(a), black_box(b), false))),
        (
            "declet_encode",
            ns_per_op(|i| dpd::declet::encode_declet_bin((i % 1000) as u16)),
        ),
        (
            "declet_decode",
            ns_per_op(|i| dpd::declet::decode_declet_bin((i % 1024) as u16)),
        ),
        (
            "decnum_mul",
            ns_per_op(|_| black_box(&x).mul(black_box(&y), &mut Context::decimal64())),
        ),
        (
            "decnum_div",
            ns_per_op(|_| black_box(&x).div(black_box(&y), &mut Context::decimal64())),
        ),
        (
            "accelerator_dec_add",
            ns_per_op(|_| {
                accelerator
                    .command(DecimalFunct::DecAdd, 0x1234_5678, 0x8765_4321, 0, 0, 0)
                    .unwrap_or_else(|e| die(&e))
            }),
        ),
    ];
    println!("Host microbenchmarks (wall clock, {MICRO_ITERATIONS} calls each)");
    println!("{:<28} {:>10}", "Operation", "ns/op");
    for (name, ns) in rows {
        println!("{name:<28} {ns:>10.1}");
    }
    println!();
    retire_rates();
}

/// Samples in the guests behind the retire-rate rows.
const RETIRE_SAMPLES: usize = 200;

/// Rounds of the retire-rate measurement. One round runs every guest once
/// on every simulator, so a slow stretch of the host hits all of them
/// alike, and each cell reports its fastest round.
const RETIRE_ROUNDS: u32 = 40;

/// Each simulator's host cost per retired instruction on the fixed
/// seed-2019 Software and Method-1 guests, so a change to the simulators'
/// hot path shows up, kernel by kernel, without the benchmark harness.
fn retire_rates() {
    const KINDS: [KernelKind; 2] = [KernelKind::Software, KernelKind::Method1];
    const SIMULATORS: [&str; 3] = ["functional", "rocket", "atomic"];
    eprintln!("[micro] timing each simulator's retire rate...");
    let vectors = workload(RETIRE_SAMPLES, 2019);
    let guests = KINDS.map(|kind| try_guest_for(kind, &vectors).unwrap_or_else(|e| die(&e)));
    // Runs `guest` once on simulator `sim`; returns the instructions retired.
    let run = |kind: KernelKind, guest, sim| {
        let ran = match sim {
            0 => try_run_functional(guest).map(|run| run.instret),
            1 => try_run_rocket(guest, rocket_timing(2019)).map(|run| run.stats.instret),
            _ => try_run_atomic(guest, atomic_config()).map(|run| run.instret),
        };
        ran.unwrap_or_else(|error| die(&BenchError::Run { kind, error }))
    };
    let mut fastest = [[f64::INFINITY; SIMULATORS.len()]; KINDS.len()];
    for _ in 0..RETIRE_ROUNDS {
        for (k, (kind, guest)) in KINDS.iter().zip(&guests).enumerate() {
            for (s, cell) in fastest[k].iter_mut().enumerate() {
                let start = Instant::now();
                let instret = run(*kind, guest, s);
                *cell = cell.min(start.elapsed().as_secs_f64() * 1e9 / instret as f64);
            }
        }
    }
    println!(
        "Simulator retire rate (wall clock, ns/instr, fastest of {RETIRE_ROUNDS} interleaved \
         rounds over {RETIRE_SAMPLES}-sample seed-2019 guests)"
    );
    print!("{:<28}", "Kernel");
    for name in SIMULATORS {
        print!(" {name:>10}");
    }
    println!();
    for (kind, row) in KINDS.iter().zip(fastest) {
        print!("{:<28}", kind.to_string());
        for ns in row {
            print!(" {ns:>10.1}");
        }
        println!();
    }
    println!();
}
