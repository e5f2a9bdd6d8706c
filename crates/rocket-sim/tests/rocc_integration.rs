//! End-to-end: assemble a RoCC guest program, attach the decimal
//! accelerator, run cycle-accurately, and check the SW/HW cycle split.

use riscv_asm::{assemble, STACK_TOP};
use riscv_isa::Reg;
use riscv_sim::Simulator;
use rocc::DecimalAccelerator;
use rocket_sim::{RocketSim, RunStats, TimingConfig};

/// Runs `source` to exit, returning the exit code and the run's counters.
fn run(source: &str) -> (i64, RunStats) {
    let program = assemble(source).unwrap_or_else(|e| panic!("asm: {e}"));
    let mut sim = RocketSim::new(TimingConfig::default());
    sim.cpu
        .attach_coprocessor(Box::new(DecimalAccelerator::new()));
    for seg in program.segments() {
        if !seg.data.is_empty() {
            sim.cpu.memory.load_bytes(seg.base, &seg.data).unwrap();
        }
    }
    sim.cpu.set_pc(program.entry);
    sim.cpu.set_reg(Reg::SP, STACK_TOP);
    let code = sim.run(1_000_000).expect("run failed");
    (code, sim.stats())
}

#[test]
fn dec_add_through_the_pipeline() {
    // DEC_ADD x12 <- x11 + x10 in BCD: 0905 + 0095 = 1000.
    let (code, stats) = run("
        start:
            li a0, 0x0905
            li a1, 0x0095
            custom0 4, a2, a1, a0, 1, 1, 1
            mv a0, a2
            li a7, 93
            ecall
    ");
    assert_eq!(code, 0x1000);
    assert!(stats.hw_cycles > 0, "accelerator time must be charged");
    assert!(stats.sw_cycles > stats.hw_cycles);
    assert_eq!(stats.rocc_instructions, 1);
}

#[test]
fn carry_chained_wide_add() {
    // Add 17-digit values using DEC_ADD then DEC_ADC on the halves:
    // lo: 9999999999999999 + 0000000000000001 -> 0, carry
    // hi: 0 + 0 + carry -> 1
    let (code, stats) = run("
        start:
            li a0, 0x9999999999999999
            li a1, 0x1
            custom0 4, a2, a1, a0, 1, 1, 1   # DEC_ADD -> lo
            li a0, 0
            li a1, 0
            custom0 9, a3, a1, a0, 1, 1, 1   # DEC_ADC -> hi
            # result = hi * 16 + (lo != 0): expect hi=1, lo=0
            snez t0, a2
            slli a0, a3, 4
            or a0, a0, t0
            li a7, 93
            ecall
    ");
    assert_eq!(code, 0x10);
    assert_eq!(stats.rocc_instructions, 2);
}

#[test]
fn accelerator_registers_via_wr_rd() {
    let (code, _) = run("
        start:
            li a0, 0x1234
            li t0, 3              # accel reg 3, low half
            custom0 0, zero, a0, t0, 0, 1, 0   # WR: value a0 -> accel[rs2 field]... fields are register *numbers*
            custom0 1, a0, t0, zero, 1, 0, 0   # RD: accel[rs1 field] -> a0
            li a7, 93
            ecall
    ");
    // WR used rs2 *field* = t0's number (5) as the address; RD read the same
    // field number back, so the roundtrip returns 0x1234.
    assert_eq!(code, 0x1234);
}

#[test]
fn dec_cnv_binary_to_bcd() {
    let (code, _) = run("
        start:
            li a0, 9024
            custom0 6, a1, a0, zero, 1, 1, 0   # DEC_CNV
            mv a0, a1
            li a7, 93
            ecall
    ");
    assert_eq!(code, 0x9024);
}

#[test]
fn hw_cycles_scale_with_rocc_count() {
    let (_, once) = run("
        start:
            li a0, 0x1
            li a1, 0x2
            custom0 4, a2, a1, a0, 1, 1, 1
            li a0, 0
            li a7, 93
            ecall
    ");
    let (_, many) = run("
        start:
            li a0, 0x1
            li a1, 0x2
            li t0, 32
        loop:
            custom0 4, a2, a1, a0, 1, 1, 1
            addi t0, t0, -1
            bnez t0, loop
            li a0, 0
            li a7, 93
            ecall
    ");
    assert!(many.hw_cycles > 20 * once.hw_cycles);
    assert_eq!(many.rocc_instructions, 32);
}
