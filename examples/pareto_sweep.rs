//! Pareto sweep: hardware cost against cycle-accurate performance for the
//! four co-design methods — the "several Pareto points to development of
//! embedded systems in terms of hardware cost and performance" the paper's
//! abstract promises.
//!
//! ```text
//! cargo run --release --example pareto_sweep -- 500
//! ```

use decimalarith::codesign::framework::{build_guest, try_run_rocket, verify_results};
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::rocc::AcceleratorConfig;
use decimalarith::rocket_sim::TimingConfig;
use decimalarith::testgen::{generate, TestConfig};

fn main() {
    let count: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);
    let vectors = generate(&TestConfig {
        count,
        ..TestConfig::default()
    });

    // Software baseline for the speedup column.
    let software = {
        let guest = build_guest(KernelKind::Software, &vectors, 1).expect("assembles");
        try_run_rocket(&guest, TimingConfig::default()).expect("rocket run").avg_total_cycles
    };
    println!("software baseline: {software:.0} cycles/multiply over {count} samples\n");
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>9}",
        "method", "NAND2 gates", "cycles", "speedup", "HW share"
    );

    let methods = [
        (KernelKind::Method1, AcceleratorConfig::method1()),
        (KernelKind::Method2, AcceleratorConfig::method2()),
        (KernelKind::Method3, AcceleratorConfig::method3()),
        (KernelKind::Method4, AcceleratorConfig::method4()),
    ];
    let mut frontier: Vec<(u64, f64)> = Vec::new();
    for (kind, config) in methods {
        let guest = build_guest(kind, &vectors, 1).expect("assembles");
        let eval = try_run_rocket(&guest, TimingConfig::default()).expect("rocket run");
        assert!(
            verify_results(&eval.results, &vectors).is_empty(),
            "{kind} must verify"
        );
        let gates = config.cost().gates;
        println!(
            "{:<10} {:>12} {:>12.0} {:>9.2}x {:>8.1}%",
            config.name,
            gates,
            eval.avg_total_cycles,
            software / eval.avg_total_cycles,
            100.0 * eval.avg_hw_cycles / eval.avg_total_cycles,
        );
        frontier.push((gates, eval.avg_total_cycles));
    }

    // Check the frontier property: more gates should buy fewer cycles.
    let monotone = frontier
        .windows(2)
        .all(|w| w[1].0 > w[0].0 && w[1].1 <= w[0].1 * 1.05);
    println!(
        "\nPareto frontier (more area -> no slower): {}",
        if monotone { "holds" } else { "violated" }
    );
}
