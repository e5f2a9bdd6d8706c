//! Prints an assembled guest kernel (Method-1 by default) as a disassembly
//! listing — the generated machine code a cross-toolchain would have
//! produced, with the custom-0 RoCC instructions visible inline. The
//! argument is a kernel's slug (`KernelKind::slug`, as `lockstep` and `rvlint`
//! print it); an unknown one prints the list and exits 2.
//!
//! ```text
//! cargo run --release --example disassemble_kernel -- method1_ft
//! ```

use decimalarith::codesign::framework::build_guest;
use decimalarith::codesign::kernels::KernelKind;
use decimalarith::testgen::{generate, TestConfig};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "method1".into());
    let Some(kind) = KernelKind::from_slug(&which) else {
        let slugs: Vec<_> = KernelKind::ALL.iter().map(|k| k.slug()).collect();
        eprintln!("unknown kernel {which:?}; use {}", slugs.join("|"));
        std::process::exit(2);
    };
    let vectors = generate(&TestConfig {
        count: 1,
        ..TestConfig::default()
    });
    let guest = build_guest(kind, &vectors, 1).expect("kernel assembles");
    let listing = guest.program.disassemble();
    println!(
        "{} — {} instructions, {} bytes of text, {} bytes of data\n",
        kind.name(),
        listing.len(),
        guest.program.text.data.len(),
        guest.program.data.data.len(),
    );
    let mut custom_count = 0;
    for (addr, word, text) in &listing {
        if text.contains("custom") {
            custom_count += 1;
        }
        println!("{addr:#010x}  {word:08x}  {text}");
    }
    println!("\n{custom_count} custom-0 (RoCC) instruction sites in the binary");
}
