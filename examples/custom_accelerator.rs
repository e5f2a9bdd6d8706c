//! Extending the framework with your own accelerator — the paper's
//! framework explicitly supports this ("though we have already developed
//! some of instructions with dedicated hardware, any such hardware
//! component can be integrated into the design").
//!
//! This example implements a tiny custom coprocessor from scratch — a
//! saturating decimal "cents accumulator" with two functions — attaches it
//! to the cycle-accurate core, and runs a guest program against it.
//!
//! ```text
//! cargo run --release --example custom_accelerator
//! ```

use decimalarith::codesign::framework::load_program;
use decimalarith::riscv_asm::assemble;
use decimalarith::riscv_sim::{
    Coprocessor, CpuError, Memory, RoccCommand, RoccResponse, Simulator,
};
use decimalarith::rocket_sim::{RocketSim, TimingConfig};

/// funct7 values of the custom functions.
const FN_ADD_CENTS: u8 = 0x20;
const FN_READ_TOTAL: u8 = 0x21;

/// A saturating cents accumulator: `ADD_CENTS` adds a (binary) cent amount,
/// clamping at a configurable limit; `READ_TOTAL` returns the running total.
struct CentsAccumulator {
    total: u64,
    limit: u64,
    saturated_adds: u64,
}

impl CentsAccumulator {
    fn new(limit: u64) -> Self {
        CentsAccumulator {
            total: 0,
            limit,
            saturated_adds: 0,
        }
    }
}

impl Coprocessor for CentsAccumulator {
    fn execute(&mut self, cmd: &RoccCommand, _mem: &mut Memory) -> Result<RoccResponse, CpuError> {
        match cmd.instruction.funct7 {
            FN_ADD_CENTS => {
                let next = self.total.saturating_add(cmd.rs1_value);
                if next > self.limit {
                    self.total = self.limit;
                    self.saturated_adds += 1;
                } else {
                    self.total = next;
                }
                Ok(RoccResponse {
                    rd_value: Some(self.total),
                    busy_cycles: 1,
                    mem_accesses: 0,
                })
            }
            FN_READ_TOTAL => Ok(RoccResponse {
                rd_value: Some(self.total),
                busy_cycles: 1,
                mem_accesses: 0,
            }),
            other => Err(CpuError::UnknownRoccFunction { funct7: other }),
        }
    }

    fn reset(&mut self) {
        self.total = 0;
        self.saturated_adds = 0;
    }
}

fn main() {
    // A guest that streams twelve payments into the accumulator.
    let source = r#"
        start:
            la   s0, payments
            li   s1, 12
        loop:
            ld   a0, 0(s0)
            custom0 0x20, a1, a0, zero, 1, 1, 0   # ADD_CENTS
            addi s0, s0, 8
            addi s1, s1, -1
            bnez s1, loop
            custom0 0x21, a0, zero, zero, 1, 0, 0 # READ_TOTAL
            li   a7, 93
            ecall
        .data
        payments:
            .dword 1999, 2999, 499, 12999, 799, 4999
            .dword 1999, 2999, 499, 12999, 799, 4999
    "#;
    let program = assemble(source).expect("guest assembles");

    let mut sim = RocketSim::new(TimingConfig::default());
    sim.cpu
        .attach_coprocessor(Box::new(CentsAccumulator::new(50_000)));
    load_program(&mut sim.cpu, &program);
    let total = sim.run(10_000).expect("guest runs");
    let stats = sim.stats();

    let exact: u64 = [1999u64, 2999, 499, 12999, 799, 4999]
        .iter()
        .sum::<u64>()
        * 2;
    println!("custom accelerator run:");
    println!("  exact sum            : {exact} cents");
    println!("  accumulator returned : {total} cents (limit 50000)");
    println!(
        "  cycles {} (hw part {}), {} RoCC commands",
        stats.cycles, stats.hw_cycles, stats.rocc_instructions
    );
    assert_eq!(total as u64, exact.min(50_000));
    assert_eq!(stats.rocc_instructions, 13);
    println!("  -> the same pipeline, caches and RoCC timing apply to user hardware.");
}
