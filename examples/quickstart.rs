//! Quickstart: multiply two decimals three ways — reference software,
//! Method-1 with the accelerator model, and a real guest program running
//! cycle-accurately on the simulated Rocket-like SoC.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use decimalarith::codesign::framework::{build_guest, try_run_rocket, verify_results};
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::codesign::native::{method1_multiply_accel, software_multiply};
use decimalarith::codesign::{format_decimal64, parse_decimal64};
use decimalarith::decnum::Status;
use decimalarith::rocket_sim::TimingConfig;
use decimalarith::testgen::{generate, TestConfig};

fn main() {
    // 1. Native: the decNumber-style reference.
    let x = parse_decimal64("902.4").expect("literal parses");
    let y = parse_decimal64("11.1").expect("literal parses");
    let mut status = Status::CLEAR;
    let reference = software_multiply(x, y, &mut status);
    println!(
        "software reference : {} x {} = {}   (flags: {})",
        format_decimal64(x),
        format_decimal64(y),
        format_decimal64(reference),
        status
    );

    // 2. Native: Method-1 of the co-design, through the BCD-CLA model.
    let mut status = Status::CLEAR;
    let codesign = method1_multiply_accel(x, y, &mut status);
    println!(
        "method-1 (co-design): {} x {} = {}   bit-identical: {}",
        format_decimal64(x),
        format_decimal64(y),
        format_decimal64(codesign),
        codesign.to_bits() == reference.to_bits()
    );

    // 3. Cycle-accurate: the same multiplication as a RISC-V guest program
    //    with the accelerator attached over RoCC.
    let vectors = generate(&TestConfig {
        count: 50,
        ..TestConfig::default()
    });
    for kind in [KernelKind::Software, KernelKind::Method1] {
        let guest = build_guest(kind, &vectors, 1).expect("kernel assembles");
        let eval = try_run_rocket(&guest, TimingConfig::default()).expect("rocket run");
        let mismatches = verify_results(&eval.results, &vectors);
        println!(
            "{:<28} avg {:>6.0} cycles/multiply (SW {:>6.0} + HW {:>4.0}), {} of {} verified",
            kind.name(),
            eval.avg_total_cycles,
            eval.avg_sw_cycles,
            eval.avg_hw_cycles,
            vectors.len() - mismatches.len(),
            vectors.len(),
        );
    }
}
