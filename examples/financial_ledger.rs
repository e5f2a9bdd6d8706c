//! Financial-ledger scenario: the workload class the paper's introduction
//! motivates ("decimal arithmetic is widely used in financial ...
//! applications. Many financial applications need to keep the quality of
//! their customer service concurrently with the back-end computing").
//!
//! A nightly billing batch computes `quantity × unit price` line items with
//! exact decimal semantics, accumulates an invoice total, and applies a tax
//! rate — first natively with the reference library, then as a guest batch
//! on the simulated SoC, comparing the software-only core against the core
//! with the decimal accelerator.
//!
//! ```text
//! cargo run --release --example financial_ledger
//! ```

use decimalarith::codesign::framework::{build_guest, try_run_rocket, verify_results};
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::decnum::{Context, DecNumber};
use decimalarith::rocket_sim::TimingConfig;
use decimalarith::testgen::TestVector;

fn main() {
    // ---- the ledger, with exact decimal semantics ----
    let lines = [
        ("cloud-compute hours", "1284.25", "0.0475"),
        ("storage GB-months", "90210.0", "0.0230"),
        ("egress GB", "512.75", "0.0900"),
        ("support seats", "12", "149.99"),
        ("API calls (millions)", "3.204", "0.4000"),
    ];
    let mut ctx = Context::decimal64();
    let mut total = DecNumber::zero();
    println!("{:<24} {:>12} {:>10} {:>14}", "item", "quantity", "price", "amount");
    for (name, qty, price) in lines {
        let q: DecNumber = qty.parse().expect("quantity parses");
        let p: DecNumber = price.parse().expect("price parses");
        let amount = q.mul(&p, &mut ctx);
        // Invoices quantize to cents, half-even ("banker's rounding").
        let cents: DecNumber = "0.01".parse().expect("quantum parses");
        let amount = amount.quantize(&cents, &mut ctx);
        println!("{name:<24} {qty:>12} {price:>10} {:>14}", amount.to_sci_string());
        total = total.add(&amount, &mut ctx);
    }
    let tax_rate: DecNumber = "0.0825".parse().expect("rate parses");
    let cents: DecNumber = "0.01".parse().expect("quantum parses");
    let tax = total.mul(&tax_rate, &mut ctx).quantize(&cents, &mut ctx);
    let due = total.add(&tax, &mut ctx);
    println!("{:<24} {:>38}", "subtotal", total.to_sci_string());
    println!("{:<24} {:>38}", "tax (8.25%)", tax.to_sci_string());
    println!("{:<24} {:>38}", "total due", due.to_sci_string());
    assert!(ctx.status().is_clear() || !ctx.status().is_clear()); // flags inspected below
    println!("context flags after the batch: {}", ctx.status());

    // ---- the same multiplications as a back-end batch on the SoC ----
    // Build the line-item multiplications as test vectors and run them on
    // the cycle-accurate core with and without the accelerator.
    let vectors: Vec<TestVector> = lines
        .iter()
        .map(|(_, qty, price)| TestVector {
            x: qty.parse().expect("parses"),
            y: price.parse().expect("parses"),
            class: decimalarith::testgen::CaseClass::Normal,
        })
        .collect();
    println!("\nback-end batch on the simulated SoC ({} multiplies):", vectors.len());
    let mut baseline = None;
    for kind in [KernelKind::Software, KernelKind::Method1] {
        let guest = build_guest(kind, &vectors, 50).expect("kernel assembles");
        let eval = try_run_rocket(&guest, TimingConfig::default()).expect("rocket run");
        assert!(
            verify_results(&eval.results, &vectors).is_empty(),
            "all line items must verify against the reference"
        );
        let total_cycles = eval.avg_total_cycles;
        let speedup = baseline.map(|b: f64| b / total_cycles);
        baseline = baseline.or(Some(total_cycles));
        println!(
            "  {:<28} {:>7.0} cycles/multiply{}",
            kind.name(),
            total_cycles,
            speedup.map_or(String::new(), |s| format!("  ({s:.2}x faster)")),
        );
    }
}
