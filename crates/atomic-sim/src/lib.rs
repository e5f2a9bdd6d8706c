//! A Gem5-`AtomicSimpleCPU`-like simulator.
//!
//! The paper's Table VI cross-checks the dummy-function estimate on "Gem-5
//! simulator with AtomicSimpleCPU at system call emulation (SE) mode"
//! targeting the RISC-V ISA. `AtomicSimpleCPU` executes one instruction per
//! CPU tick and folds memory time into fixed atomic-access latencies — no
//! pipeline, no caches. This crate reproduces that model on top of the
//! shared functional executor: every instruction costs one cycle plus a
//! fixed latency per data-memory access, and results are reported as
//! simulated seconds at Gem5's default 1 GHz clock ([`CLOCK_HZ`]).
//! [`AtomicSim`] is driven through [`riscv_sim::Simulator`].
//!
//! # Example
//!
//! ```
//! use atomic_sim::{AtomicSim, AtomicConfig};
//! use riscv_isa::{Instr, Reg};
//! use riscv_isa::instr::OpImmOp;
//! use riscv_sim::Simulator;
//!
//! # fn main() -> Result<(), riscv_sim::CpuError> {
//! let mut sim = AtomicSim::new(AtomicConfig::default());
//! let prog = [
//!     Instr::OpImm { op: OpImmOp::Addi, rd: Reg::A0, rs1: Reg::ZERO, imm: 0 },
//!     Instr::OpImm { op: OpImmOp::Addi, rd: Reg::A7, rs1: Reg::ZERO, imm: 93 },
//!     Instr::Ecall,
//! ];
//! for (i, instr) in prog.iter().enumerate() {
//!     sim.cpu.memory.write_u32(0x1000 + 4 * i as u64, instr.encode().unwrap())?;
//! }
//! sim.cpu.set_pc(0x1000);
//! assert_eq!(sim.run(100)?, 0);
//! assert!(sim.simulated_seconds() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use riscv_isa::alu::MulDiv;
use riscv_isa::Instr;
use riscv_sim::{Cpu, CpuError, Event, Retired, Simulator, Timing};

/// Simulated clock frequency in Hz (Gem5's default CPU clock, 1 GHz).
pub const CLOCK_HZ: f64 = 1.0e9;

/// Extra cycles charged per data-memory access (atomic access latency).
const MEM_ACCESS_CYCLES: u64 = 1;

/// The functional-unit latencies the evaluation varies: zero in lockstep
/// runs, Table VI's Minor-CPU-like values for the paper's cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AtomicConfig {
    /// Extra cycles charged per multiply.
    pub mul_cycles: u64,
    /// Extra cycles charged per divide/remainder.
    pub div_cycles: u64,
}

/// Counters for one atomic-mode run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AtomicStats {
    /// Ticks consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instret: u64,
    /// Data-memory accesses.
    pub mem_accesses: u64,
}

/// The atomic CPU: the shared functional executor plus trivial fixed-cost
/// timing. Its `run` executes a block at a time with the same counters as
/// stepping.
pub struct AtomicSim {
    /// The wrapped functional core (public for program loading and
    /// coprocessors).
    pub cpu: Cpu,
    ticks: Ticks,
}

/// The atomic model's timing state, which charges every step of both
/// `step` and `run`.
struct Ticks {
    config: AtomicConfig,
    /// Run counters, except `instret`, which is the core's.
    stats: AtomicStats,
}

impl std::fmt::Debug for AtomicSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicSim")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for AtomicSim {
    fn default() -> Self {
        AtomicSim::new(AtomicConfig::default())
    }
}

impl AtomicSim {
    /// Builds a simulator with the given timing parameters.
    #[must_use]
    pub fn new(config: AtomicConfig) -> Self {
        AtomicSim {
            cpu: Cpu::new(),
            ticks: Ticks {
                config,
                stats: AtomicStats::default(),
            },
        }
    }

    /// Counters so far, including the core's `instret`.
    #[must_use]
    pub fn stats(&self) -> AtomicStats {
        AtomicStats {
            instret: self.cpu.instret,
            ..self.ticks.stats
        }
    }

    /// Simulated wall-clock time so far (`cycles / CLOCK_HZ`), the
    /// quantity the paper's Table VI reports.
    #[must_use]
    pub fn simulated_seconds(&self) -> f64 {
        self.ticks.stats.cycles as f64 / CLOCK_HZ
    }
}

impl Simulator for AtomicSim {
    fn label(&self) -> &'static str {
        "atomic"
    }

    fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Executes one instruction, charging one tick plus fixed latencies.
    #[inline]
    fn step(&mut self) -> Result<Event, CpuError> {
        self.cpu.step_with(&mut self.ticks)
    }

    /// Runs to exit a block at a time, charging the same ticks.
    fn run(&mut self, max_instructions: u64) -> Result<i64, CpuError> {
        self.cpu.run_with(max_instructions, &mut self.ticks)
    }
}

/// Every step, a trap delivery and the exit too, consumes one tick;
/// retirements add the fixed latencies.
impl Timing for Ticks {
    #[inline]
    fn cycle(&self) -> Option<u64> {
        Some(self.stats.cycles)
    }

    #[inline]
    fn retired(&mut self, retired: &Retired) -> Result<(), CpuError> {
        self.stats.cycles += 1;
        if retired.mem_access.is_some() {
            self.stats.cycles += MEM_ACCESS_CYCLES;
            self.stats.mem_accesses += 1;
        }
        self.stats.cycles += match retired.facts.muldiv() {
            Some(MulDiv::Mul) => self.config.mul_cycles,
            Some(MulDiv::Div) => self.config.div_cycles,
            None => 0,
        };
        if let Instr::Custom(_) = retired.instr {
            if let Some(resp) = retired.rocc {
                self.stats.cycles += u64::from(resp.busy_cycles);
                self.stats.mem_accesses += u64::from(resp.mem_accesses);
            }
        }
        Ok(())
    }

    #[inline]
    fn trapped(&mut self) {
        self.stats.cycles += 1;
    }

    #[inline]
    fn exited(&mut self) {
        self.stats.cycles += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::instr::{Op32Op, OpImmOp, OpOp};
    use riscv_isa::Reg;

    fn load(sim: &mut AtomicSim, prog: &[Instr]) {
        for (i, instr) in prog.iter().enumerate() {
            sim.cpu
                .memory
                .write_u32(0x1000 + 4 * i as u64, instr.encode().unwrap())
                .unwrap();
        }
        sim.cpu.set_pc(0x1000);
    }

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::OpImm {
            op: OpImmOp::Addi,
            rd,
            rs1,
            imm,
        }
    }

    #[test]
    fn one_cycle_per_instruction() {
        let mut sim = AtomicSim::default();
        let mut prog = vec![Instr::NOP; 10];
        prog.push(addi(Reg::A7, Reg::ZERO, 93));
        prog.push(Instr::Ecall);
        load(&mut sim, &prog);
        sim.run(100).unwrap();
        assert_eq!(sim.stats().instret, 12);
        assert_eq!(sim.stats().cycles, 12);
        assert!((sim.simulated_seconds() - 12e-9).abs() < 1e-15);
    }

    #[test]
    fn memory_access_costs_extra() {
        let mut sim = AtomicSim::default();
        sim.cpu.memory.write_u64(0x2000, 1).unwrap();
        sim.cpu.set_reg(Reg::T0, 0x2000);
        let prog = vec![
            Instr::Load {
                op: riscv_isa::instr::LoadOp::Ld,
                rd: Reg::T1,
                rs1: Reg::T0,
                offset: 0,
            },
            addi(Reg::A7, Reg::ZERO, 93),
            Instr::Ecall,
        ];
        load(&mut sim, &prog);
        sim.run(100).unwrap();
        assert_eq!(sim.stats().cycles, 4); // 3 instructions + 1 mem access
        assert_eq!(sim.stats().mem_accesses, 1);
    }

    #[test]
    fn muldiv_latencies_configurable() {
        let mut sim = AtomicSim::new(AtomicConfig {
            mul_cycles: 3,
            div_cycles: 30,
        });
        let prog = vec![
            Instr::Op {
                op: OpOp::Mul,
                rd: Reg::T0,
                rs1: Reg::T1,
                rs2: Reg::T2,
            },
            Instr::Op {
                op: OpOp::Divu,
                rd: Reg::T0,
                rs1: Reg::T1,
                rs2: Reg::T2,
            },
            addi(Reg::A7, Reg::ZERO, 93),
            Instr::Ecall,
        ];
        sim.cpu.set_reg(Reg::T2, 1);
        load(&mut sim, &prog);
        sim.run(100).unwrap();
        assert_eq!(sim.stats().cycles, 4 + 3 + 30);
    }

    #[test]
    fn word_muldiv_latencies_are_charged_too() {
        let mut sim = AtomicSim::new(AtomicConfig {
            mul_cycles: 3,
            div_cycles: 30,
        });
        let op32 = |op| Instr::Op32 {
            op,
            rd: Reg::T0,
            rs1: Reg::T1,
            rs2: Reg::T2,
        };
        let prog = vec![
            op32(Op32Op::Mulw),
            op32(Op32Op::Divw),
            addi(Reg::A7, Reg::ZERO, 93),
            Instr::Ecall,
        ];
        sim.cpu.set_reg(Reg::T2, 1);
        load(&mut sim, &prog);
        sim.run(100).unwrap();
        assert_eq!(sim.stats().instret, 4);
        assert_eq!(sim.stats().cycles, 4 + 3 + 30);
    }
}
