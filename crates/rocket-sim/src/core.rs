//! The cycle-accurate core model.

use riscv_isa::alu::MulDiv;
use riscv_isa::instr::Instr;
use riscv_sim::{Cpu, CpuError, Event, Retired, Simulator, Timing};

use crate::cache::{Cache, CacheStats};

// Rocket's fixed pipeline latencies and penalties, in cycles.
/// Load-to-use latency on a hit.
const LOAD_LATENCY: u64 = 2;
/// Pipelined multiplier result latency.
const MUL_LATENCY: u64 = 4;
/// Iterative, blocking divider occupancy.
const DIV_LATENCY: u64 = 34;
/// Front-end flush after a taken control-flow transfer.
const BRANCH_PENALTY: u64 = 2;
/// Pipeline flush when a trap is delivered to the `mtvec` handler.
const TRAP_PENALTY: u64 = 3;

/// The timing parameters the evaluation varies; every other latency,
/// penalty and the cache geometry are fixed Rocket values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Extra cycles for an L1 miss (refill from the next level).
    pub miss_penalty: u32,
    /// Cycles from accelerator `ready` to the core observing `resp` when the
    /// command has `xd` set (the RoCC interface "imposes a latency overhead
    /// during data exchange", paper §V).
    pub rocc_resp_latency: u32,
    /// Seed for the caches' random-replacement generators.
    pub seed: u64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            miss_penalty: 20,
            rocc_resp_latency: 2,
            seed: 0x5EED_0001,
        }
    }
}

/// Aggregate counters for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Total modelled cycles.
    pub cycles: u64,
    /// Cycles attributed to ordinary (software) execution.
    pub sw_cycles: u64,
    /// Cycles attributed to the accelerator: RoCC dispatch, execution-unit
    /// busy time, and response synchronization (the "HW part" column of the
    /// paper's Table IV).
    pub hw_cycles: u64,
    /// Instructions retired.
    pub instret: u64,
    /// RoCC instructions among them.
    pub rocc_instructions: u64,
    /// Cycles lost to operand (scoreboard) stalls.
    pub stall_cycles: u64,
    /// Instruction-cache counters.
    pub icache: CacheStats,
    /// Data-cache counters.
    pub dcache: CacheStats,
}

/// The Rocket-like cycle-accurate core: an in-order single-issue pipeline
/// model wrapping the functional executor.
///
/// Timing is charged per retired instruction: one issue cycle, operand
/// stalls from a register scoreboard (load/mul/div latencies), I-cache and
/// D-cache miss penalties, a flush penalty for taken control transfers, and
/// the RoCC handshake + accelerator busy time for custom instructions.
/// RoCC-attributed cycles accumulate separately so Table IV's SW/HW split
/// falls directly out of a run. Runs go through [`Simulator`], whose `run`
/// executes a block at a time with the same counters as stepping; guest
/// markers carry modelled cycles.
pub struct RocketSim {
    /// The wrapped functional core (public for program loading, register
    /// setup and coprocessors).
    pub cpu: Cpu,
    pipeline: Pipeline,
}

/// The pipeline's timing state, which charges every step of both `step`
/// and `run`.
struct Pipeline {
    config: TimingConfig,
    icache: Cache,
    dcache: Cache,
    ready_at: [u64; 32],
    /// Run counters, except the cache counters, which live in the caches,
    /// `instret`, which is the core's, and `sw_cycles`, which is the
    /// cycles not charged to the accelerator.
    stats: RunStats,
}

impl std::fmt::Debug for RocketSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RocketSim")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for RocketSim {
    fn default() -> Self {
        RocketSim::new(TimingConfig::default())
    }
}

impl RocketSim {
    /// Builds a core with the given timing parameters.
    #[must_use]
    pub fn new(config: TimingConfig) -> Self {
        RocketSim {
            cpu: Cpu::new(),
            pipeline: Pipeline {
                icache: Cache::new(config.seed ^ 0x1CAC4E),
                dcache: Cache::new(config.seed ^ 0xDCAC4E),
                config,
                ready_at: [0; 32],
                stats: RunStats::default(),
            },
        }
    }

    /// Counters so far, including both caches' and the core's `instret`.
    #[must_use]
    pub fn stats(&self) -> RunStats {
        let pipeline = &self.pipeline;
        RunStats {
            instret: self.cpu.instret,
            sw_cycles: pipeline.stats.cycles - pipeline.stats.hw_cycles,
            icache: pipeline.icache.stats(),
            dcache: pipeline.dcache.stats(),
            ..pipeline.stats
        }
    }
}

impl Timing for Pipeline {
    /// Guest `rdcycle` reads modelled time.
    #[inline]
    fn cycle(&self) -> Option<u64> {
        Some(self.stats.cycles)
    }

    /// Adds `retired`'s modelled time to the run counters.
    #[inline]
    fn retired(&mut self, retired: &Retired) -> Result<(), CpuError> {
        let cycle = self.stats.cycles;
        let facts = retired.facts;
        let mut total: u64 = 1; // issue
        let mut hw: u64 = 0;

        // Operand stalls against the scoreboard. An absent operand reads
        // `x0`'s entry, which stays 0: no instruction makes `x0` its
        // destination.
        let [a, b] = facts.sources().map(|r| usize::from(r & 31));
        let stall = self.ready_at[a].max(self.ready_at[b]).saturating_sub(cycle);
        total += stall;
        self.stats.stall_cycles += stall;

        // Fetch.
        if !self.icache.access(retired.pc) {
            total += u64::from(self.config.miss_penalty);
        }

        // Data access.
        if let Some(access) = retired.mem_access {
            let hit = self.dcache.access(access.addr);
            if !hit {
                total += u64::from(self.config.miss_penalty);
            }
            if !access.store {
                if let Some(rd) = facts.dest() {
                    self.ready_at[usize::from(rd.number() & 31)] = cycle + total + LOAD_LATENCY - 1;
                }
            }
        }

        match facts.muldiv() {
            // Iterative, blocking divider.
            Some(MulDiv::Div) => total += DIV_LATENCY - 1,
            Some(MulDiv::Mul) => {
                if let Some(rd) = facts.dest() {
                    self.ready_at[usize::from(rd.number() & 31)] = cycle + total + MUL_LATENCY - 1;
                }
            }
            None => {}
        }

        if let Instr::Custom(instr) = retired.instr {
            self.stats.rocc_instructions += 1;
            let resp = retired
                .rocc
                .ok_or(CpuError::RoccProtocol("retired custom carried no response"))?;
            let mut rocc_cost = u64::from(resp.busy_cycles);
            rocc_cost += u64::from(resp.mem_accesses); // RoCC mem port occupancy
            if instr.xd {
                rocc_cost += u64::from(self.config.rocc_resp_latency);
            }
            total += rocc_cost;
            // The whole instruction — dispatch cycle, operand stalls and
            // accelerator time — is the co-design's hardware share.
            hw = total;
        }

        // Taken control transfers flush the front end.
        if retired.redirected() {
            total += BRANCH_PENALTY;
        }

        self.stats.cycles = cycle + total;
        self.stats.hw_cycles += hw;
        Ok(())
    }

    /// Trap delivery flushes the pipeline but retires nothing.
    #[inline]
    fn trapped(&mut self) {
        self.stats.cycles += 1 + TRAP_PENALTY;
    }

    /// The exiting `ecall` costs one software cycle.
    #[inline]
    fn exited(&mut self) {
        self.stats.cycles += 1;
    }
}

impl Simulator for RocketSim {
    fn label(&self) -> &'static str {
        "rocket"
    }

    fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Executes one instruction, charging modelled time.
    #[inline]
    fn step(&mut self) -> Result<Event, CpuError> {
        self.cpu.step_with(&mut self.pipeline)
    }

    /// Runs to exit a block at a time, charging modelled time.
    fn run(&mut self, max_instructions: u64) -> Result<i64, CpuError> {
        self.cpu.run_with(max_instructions, &mut self.pipeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::instr::{OpImmOp, OpOp};
    use riscv_isa::Reg;

    fn load(sim: &mut RocketSim, base: u64, prog: &[Instr]) {
        for (i, instr) in prog.iter().enumerate() {
            sim.cpu
                .memory
                .write_u32(base + 4 * i as u64, instr.encode().unwrap())
                .unwrap();
        }
        sim.cpu.set_pc(base);
    }

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::OpImm {
            op: OpImmOp::Addi,
            rd,
            rs1,
            imm,
        }
    }

    fn exit_prog(mut body: Vec<Instr>) -> Vec<Instr> {
        body.push(addi(Reg::A7, Reg::ZERO, 93));
        body.push(Instr::Ecall);
        body
    }

    #[test]
    fn cycles_at_least_instructions() {
        let mut sim = RocketSim::default();
        let prog = exit_prog(vec![Instr::NOP; 50]);
        load(&mut sim, 0x1000, &prog);
        sim.run(1000).unwrap();
        let stats = sim.stats();
        assert!(stats.cycles >= stats.instret);
        assert_eq!(stats.instret, 52);
        assert_eq!(stats.hw_cycles, 0);
    }

    #[test]
    fn load_use_stall_costs_a_cycle() {
        // Two programs: load then immediately use vs load, gap, use.
        let dependent = exit_prog(vec![
            Instr::Load {
                op: riscv_isa::instr::LoadOp::Ld,
                rd: Reg::T0,
                rs1: Reg::T1,
                offset: 0,
            },
            addi(Reg::T2, Reg::T0, 1),
        ]);
        let independent = exit_prog(vec![
            Instr::Load {
                op: riscv_isa::instr::LoadOp::Ld,
                rd: Reg::T0,
                rs1: Reg::T1,
                offset: 0,
            },
            addi(Reg::T3, Reg::T4, 1),
            addi(Reg::T2, Reg::T0, 1),
        ]);
        let run = |prog: &[Instr]| {
            let mut sim = RocketSim::default();
            sim.cpu.memory.write_u64(0x2000, 7).unwrap();
            sim.cpu.set_reg(Reg::T1, 0x2000);
            load(&mut sim, 0x1000, prog);
            sim.run(100).unwrap();
            sim.stats()
        };
        let dep = run(&dependent);
        let indep = run(&independent);
        assert!(dep.stall_cycles > 0, "dependent use must stall");
        // The independent version retires one more instruction but stalls less.
        assert_eq!(indep.stall_cycles, 0);
        assert_eq!(indep.cycles, dep.cycles + 1 - dep.stall_cycles);
    }

    #[test]
    fn div_costs_more_than_mul() {
        let muls = exit_prog(vec![
            Instr::Op {
                op: OpOp::Mul,
                rd: Reg::T0,
                rs1: Reg::T1,
                rs2: Reg::T2,
            };
            8
        ]);
        let divs = exit_prog(vec![
            Instr::Op {
                op: OpOp::Divu,
                rd: Reg::T0,
                rs1: Reg::T1,
                rs2: Reg::T2,
            };
            8
        ]);
        let run = |prog: &[Instr]| {
            let mut sim = RocketSim::default();
            sim.cpu.set_reg(Reg::T1, 100);
            sim.cpu.set_reg(Reg::T2, 7);
            load(&mut sim, 0x1000, prog);
            sim.run(100).unwrap();
            sim.stats().cycles
        };
        assert!(run(&divs) > run(&muls) + 8 * 20);
    }

    #[test]
    fn taken_branch_pays_penalty() {
        // Loop 10 times vs straight-line equivalent instruction count.
        let loop_prog = exit_prog(vec![
            addi(Reg::T0, Reg::ZERO, 10),
            addi(Reg::T0, Reg::T0, -1),
            Instr::Branch {
                op: riscv_isa::instr::BranchOp::Bne,
                rs1: Reg::T0,
                rs2: Reg::ZERO,
                offset: -4,
            },
        ]);
        let mut sim = RocketSim::default();
        load(&mut sim, 0x1000, &loop_prog);
        sim.run(1000).unwrap();
        let stats = sim.stats();
        // 9 taken branches * 2-cycle penalty at least.
        assert!(stats.cycles >= stats.instret + 9 * 2);
    }

    #[test]
    fn cold_caches_miss_then_warm() {
        let prog = exit_prog(vec![Instr::NOP; 4]);
        let mut ran = RocketSim::default();
        load(&mut ran, 0x1000, &prog);
        ran.run(100).unwrap();
        // All instructions share one line: one compulsory I$ miss. The
        // exiting ecall's fetch is not modelled, so five accesses total.
        assert_eq!(ran.stats().icache, CacheStats { hits: 4, misses: 1 });
        // Stepping to exit by hand reports the same live counters.
        let mut stepped = RocketSim::default();
        load(&mut stepped, 0x1000, &prog);
        while !matches!(stepped.step().unwrap(), Event::Exited { .. }) {}
        assert_eq!(stepped.stats(), ran.stats());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sim = RocketSim::new(TimingConfig {
                seed,
                ..TimingConfig::default()
            });
            let body: Vec<Instr> = (0..64)
                .map(|i| Instr::Load {
                    op: riscv_isa::instr::LoadOp::Ld,
                    rd: Reg::T0,
                    rs1: Reg::T1,
                    offset: (i % 16) * 8,
                })
                .collect();
            sim.cpu.set_reg(Reg::T1, 0x2000);
            for i in 0..32 {
                sim.cpu.memory.write_u64(0x2000 + i * 8, i).unwrap();
            }
            load(&mut sim, 0x1000, &exit_prog(body));
            sim.run(10_000).unwrap();
            sim.stats().cycles
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn rdcycle_sees_modelled_time() {
        let mut sim = RocketSim::default();
        let prog = exit_prog(vec![
            Instr::Op {
                op: OpOp::Divu,
                rd: Reg::T0,
                rs1: Reg::T1,
                rs2: Reg::T2,
            },
            Instr::Csr {
                op: riscv_isa::instr::CsrOp::Csrrs,
                rd: Reg::A0,
                csr: riscv_isa::csr::CYCLE,
                rs1: Reg::ZERO,
            },
            addi(Reg::A0, Reg::A0, 0),
        ]);
        sim.cpu.set_reg(Reg::T1, 10);
        sim.cpu.set_reg(Reg::T2, 3);
        load(&mut sim, 0x1000, &prog);
        // Run and read a0 before exit: patch — run fully, use exit code.
        let prog2 = {
            let mut p = vec![
                Instr::Op {
                    op: OpOp::Divu,
                    rd: Reg::T0,
                    rs1: Reg::T1,
                    rs2: Reg::T2,
                },
                Instr::Csr {
                    op: riscv_isa::instr::CsrOp::Csrrs,
                    rd: Reg::A0,
                    csr: riscv_isa::csr::CYCLE,
                    rs1: Reg::ZERO,
                },
            ];
            p = exit_prog(p);
            p
        };
        let mut sim2 = RocketSim::default();
        sim2.cpu.set_reg(Reg::T1, 10);
        sim2.cpu.set_reg(Reg::T2, 3);
        load(&mut sim2, 0x1000, &prog2);
        let code = sim2.run(100).unwrap();
        // The divider took DIV_LATENCY cycles, so rdcycle must exceed it.
        assert!(code >= 34, "rdcycle saw {code}");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use riscv_isa::instr::{LoadOp, OpImmOp, OpOp};
    use riscv_isa::{Instr, Reg};

    fn load(sim: &mut RocketSim, base: u64, prog: &[Instr]) {
        for (i, instr) in prog.iter().enumerate() {
            sim.cpu
                .memory
                .write_u32(base + 4 * i as u64, instr.encode().unwrap())
                .unwrap();
        }
        sim.cpu.set_pc(base);
    }

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::OpImm { op: OpImmOp::Addi, rd, rs1, imm }
    }

    fn exit_prog(mut body: Vec<Instr>) -> Vec<Instr> {
        body.push(addi(Reg::A7, Reg::ZERO, 93));
        body.push(Instr::Ecall);
        body
    }

    #[test]
    fn pipelined_mul_latency_can_be_hidden() {
        // mul followed by 4 independent instructions costs the same as
        // 5 independent instructions; an immediate consumer stalls.
        let mul = Instr::Op { op: OpOp::Mul, rd: Reg::T0, rs1: Reg::T1, rs2: Reg::T2 };
        let hidden = exit_prog(vec![
            mul,
            addi(Reg::T3, Reg::T4, 1),
            addi(Reg::T5, Reg::T6, 1),
            addi(Reg::T3, Reg::T4, 1),
            addi(Reg::A0, Reg::T0, 0),
        ]);
        let exposed = exit_prog(vec![mul, addi(Reg::A0, Reg::T0, 0)]);
        let run = |prog: &[Instr]| {
            let mut sim = RocketSim::default();
            load(&mut sim, 0x1000, prog);
            sim.run(100).unwrap();
            sim.stats()
        };
        assert_eq!(run(&hidden).stall_cycles, 0, "distance 4 hides the latency");
        assert!(run(&exposed).stall_cycles >= 2, "immediate consumer stalls");
    }

    #[test]
    fn store_then_load_same_line_hits() {
        let mut sim = RocketSim::default();
        let prog = exit_prog(vec![
            Instr::Store { op: riscv_isa::instr::StoreOp::Sd, rs2: Reg::T1, rs1: Reg::T0, offset: 0 },
            Instr::Load { op: LoadOp::Ld, rd: Reg::T2, rs1: Reg::T0, offset: 8 },
        ]);
        sim.cpu.set_reg(Reg::T0, 0x2000);
        sim.cpu.memory.write_u64(0x2008, 5).unwrap();
        load(&mut sim, 0x1000, &prog);
        sim.run(100).unwrap();
        assert_eq!(sim.stats().dcache.misses, 1, "write-allocate fills the line");
        assert_eq!(sim.stats().dcache.hits, 1, "the load hits the filled line");
    }

    #[test]
    fn sw_plus_hw_equals_total() {
        let mut sim = RocketSim::default();
        let prog = exit_prog(vec![Instr::NOP; 25]);
        load(&mut sim, 0x1000, &prog);
        sim.run(100).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.sw_cycles + stats.hw_cycles, stats.cycles);
    }

    #[test]
    fn trap_delivery_costs_issue_plus_flush() {
        use riscv_isa::csr;
        use riscv_isa::instr::CsrOp;
        let mut sim = RocketSim::default();
        load(&mut sim, 0x2000, &exit_prog(vec![]));
        load(
            &mut sim,
            0x1000,
            &[Instr::Csr { op: CsrOp::Csrrw, rd: Reg::ZERO, csr: csr::MTVEC, rs1: Reg::T0 }],
        );
        sim.cpu.memory.write_u32(0x1004, 0xFFFF_FFFF).unwrap();
        sim.cpu.set_reg(Reg::T0, 0x2000);
        assert!(matches!(sim.step().unwrap(), Event::Retired(_)));
        let before = sim.stats();
        assert!(matches!(sim.step().unwrap(), Event::Trapped { .. }));
        let after = sim.stats();
        // One issue cycle plus Rocket's 3-cycle flush, all software time.
        assert_eq!(after.cycles - before.cycles, 4);
        assert_eq!(after.sw_cycles - before.sw_cycles, 4);
        assert_eq!(after.instret, before.instret, "the trap retires nothing");
    }

    #[test]
    fn instruction_budget_error_propagates() {
        let mut sim = RocketSim::default();
        load(&mut sim, 0x1000, &[Instr::Jal { rd: Reg::ZERO, offset: 0 }]);
        assert!(matches!(
            sim.run(5),
            Err(riscv_sim::CpuError::InstructionLimit(5))
        ));
    }
}
