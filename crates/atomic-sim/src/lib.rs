//! A Gem5-`AtomicSimpleCPU`-like simulator.
//!
//! The paper's Table VI cross-checks the dummy-function estimate on "Gem-5
//! simulator with AtomicSimpleCPU at system call emulation (SE) mode"
//! targeting the RISC-V ISA. `AtomicSimpleCPU` executes one instruction per
//! CPU tick and folds memory time into fixed atomic-access latencies — no
//! pipeline, no caches. This crate reproduces that model on top of the
//! shared functional executor: every instruction costs one cycle plus a
//! fixed latency per data-memory access, and results are reported as
//! simulated seconds at a configurable clock. [`AtomicSim`] is driven
//! through [`riscv_sim::Simulator`].
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

use riscv_isa::Instr;
use riscv_sim::snapshot::{seal, unseal, ByteReader, ByteWriter};
use riscv_sim::{Cpu, CpuError, CpuSnapshot, Event, Simulator, SnapshotError};

/// Atomic-CPU timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomicConfig {
    /// Clock frequency in Hz (Gem5's default CPU clock is 1 GHz).
    pub clock_hz: f64,
    /// Extra cycles charged per data-memory access (atomic access latency).
    pub mem_access_cycles: u64,
    /// Extra cycles charged per multiply.
    pub mul_cycles: u64,
    /// Extra cycles charged per divide/remainder.
    pub div_cycles: u64,
    /// RoCC busy-watchdog bound forwarded to the functional core (a hung
    /// accelerator command reports [`CpuError::RoccTimeout`]).
    pub rocc_watchdog: u32,
}

impl Default for AtomicConfig {
    fn default() -> Self {
        AtomicConfig {
            clock_hz: 1.0e9,
            mem_access_cycles: 1,
            mul_cycles: 0,
            div_cycles: 0,
            rocc_watchdog: riscv_sim::DEFAULT_ROCC_WATCHDOG,
        }
    }
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
/// timing.
pub struct AtomicSim {
    /// The wrapped functional core (public for program loading,
    /// coprocessors and retirement observers).
    pub cpu: Cpu,
    config: AtomicConfig,
    stats: AtomicStats,
}

impl std::fmt::Debug for AtomicSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicSim")
            .field("stats", &self.stats)
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
        let mut cpu = Cpu::new();
        cpu.rocc_watchdog = config.rocc_watchdog;
        AtomicSim {
            cpu,
            config,
            stats: AtomicStats::default(),
        }
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> AtomicStats {
        self.stats
    }

    /// Simulated wall-clock time so far (`cycles / clock_hz`), the
    /// quantity the paper's Table VI reports.
    #[must_use]
    pub fn simulated_seconds(&self) -> f64 {
        self.stats.cycles as f64 / self.config.clock_hz
    }

    /// Captures the complete machine state: the functional core (registers,
    /// pc, CSRs, memory pages, attached-coprocessor state, counters) plus
    /// this simulator's tick counters. The timing parameters
    /// ([`AtomicConfig`]) are *not* part of the snapshot — restore targets a
    /// simulator built with the same configuration.
    #[must_use]
    pub fn snapshot(&self) -> AtomicSnapshot {
        AtomicSnapshot {
            cpu: self.cpu.snapshot(),
            stats: self.stats,
        }
    }

    /// Restores a snapshot taken with [`AtomicSim::snapshot`] into this
    /// simulator. The retirement observer, if any, is harness state and is
    /// kept as-is.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] from the functional-core restore (for
    /// example a coprocessor-state mismatch).
    pub fn restore(&mut self, snapshot: &AtomicSnapshot) -> Result<(), SnapshotError> {
        self.cpu.restore(&snapshot.cpu)?;
        self.stats = snapshot.stats;
        Ok(())
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
        self.cpu.cycle = self.stats.cycles;
        // Inspected in place and returned as it is (see `Event`).
        let result = self.cpu.step();
        let Ok(event) = &result else {
            return result;
        };
        self.stats.cycles += 1;
        if let Event::Trapped { .. } = event {
            // Trap delivery consumes the tick but retires nothing.
            return result;
        }
        self.stats.instret += 1;
        if let Event::Retired(retired) = event {
            if retired.mem_access.is_some() {
                self.stats.cycles += self.config.mem_access_cycles;
                self.stats.mem_accesses += 1;
            }
            match retired.instr {
                Instr::Op { op, .. } if op.is_muldiv() => {
                    self.stats.cycles += if matches!(
                        op,
                        riscv_isa::instr::OpOp::Mul
                            | riscv_isa::instr::OpOp::Mulh
                            | riscv_isa::instr::OpOp::Mulhsu
                            | riscv_isa::instr::OpOp::Mulhu
                    ) {
                        self.config.mul_cycles
                    } else {
                        self.config.div_cycles
                    };
                }
                Instr::Custom(_) => {
                    if let Some(resp) = retired.rocc {
                        self.stats.cycles += u64::from(resp.busy_cycles);
                        self.stats.mem_accesses += u64::from(resp.mem_accesses);
                    }
                }
                _ => {}
            }
        }
        result
    }
}

/// Envelope kind tag for serialized [`AtomicSnapshot`]s (`"ATM1"`).
pub const SNAPSHOT_KIND: u32 = 0x314D_5441;

/// Serializable state of an [`AtomicSim`]: the wrapped functional core plus
/// the atomic-mode tick counters. The [`AtomicConfig`] is excluded — a
/// snapshot only restores into a simulator built with the same
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicSnapshot {
    /// Functional-core state.
    pub cpu: CpuSnapshot,
    /// Tick counters at the snapshot point.
    pub stats: AtomicStats,
}

impl AtomicSnapshot {
    /// Serializes into the common checksummed snapshot envelope.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.blob(&self.cpu.to_bytes());
        w.u64(self.stats.cycles);
        w.u64(self.stats.instret);
        w.u64(self.stats.mem_accesses);
        seal(SNAPSHOT_KIND, &w.finish())
    }

    /// Deserializes a snapshot produced by [`AtomicSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] if the envelope, version, kind,
    /// checksum, or body layout is invalid.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let body = unseal(bytes, SNAPSHOT_KIND)?;
        let mut r = ByteReader::new(body);
        let cpu = CpuSnapshot::from_bytes(r.blob()?)?;
        let stats = AtomicStats {
            cycles: r.u64()?,
            instret: r.u64()?,
            mem_accesses: r.u64()?,
        };
        r.expect_end()?;
        Ok(AtomicSnapshot { cpu, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::instr::{OpImmOp, OpOp};
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
    fn snapshot_restore_resumes_identically() {
        let build = || {
            let mut sim = AtomicSim::default();
            let mut prog = vec![Instr::NOP; 6];
            prog.push(addi(Reg::A0, Reg::ZERO, 7));
            prog.push(addi(Reg::A7, Reg::ZERO, 93));
            prog.push(Instr::Ecall);
            load(&mut sim, &prog);
            sim
        };
        // Uninterrupted reference run.
        let mut reference = build();
        let want_exit = reference.run(100).unwrap();
        // Run half-way, snapshot, serialize, restore into a fresh sim.
        let mut first = build();
        for _ in 0..4 {
            first.step().unwrap();
        }
        let bytes = first.snapshot().to_bytes();
        let snapshot = AtomicSnapshot::from_bytes(&bytes).unwrap();
        let mut resumed = build();
        resumed.restore(&snapshot).unwrap();
        assert_eq!(resumed.run(100).unwrap(), want_exit);
        assert_eq!(resumed.stats(), reference.stats());
    }

    #[test]
    fn muldiv_latencies_configurable() {
        let mut sim = AtomicSim::new(AtomicConfig {
            mul_cycles: 3,
            div_cycles: 30,
            ..AtomicConfig::default()
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
}
