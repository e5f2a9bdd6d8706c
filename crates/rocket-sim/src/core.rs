//! The cycle-accurate core model.

use riscv_isa::instr::{Instr, OpOp};
use riscv_isa::Reg;
use riscv_sim::snapshot::{seal, unseal, ByteReader, ByteWriter};
use riscv_sim::{Cpu, CpuError, CpuSnapshot, Event, Retired, Simulator, SnapshotError};

use crate::cache::{Cache, CacheConfig, CacheSnapshot, CacheStats};

/// Pipeline latency and penalty parameters, with Rocket-flavoured defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// Data cache geometry.
    pub dcache: CacheConfig,
    /// Extra cycles for an L1 miss (refill from the next level).
    pub miss_penalty: u32,
    /// Load-to-use latency on a hit (1 means no load-use stall possible).
    pub load_latency: u32,
    /// Multiplier result latency (pipelined).
    pub mul_latency: u32,
    /// Iterative divider occupancy (blocking).
    pub div_latency: u32,
    /// Flush penalty for a taken control-flow transfer.
    pub branch_penalty: u32,
    /// Cycles from accelerator `ready` to the core observing `resp` when the
    /// command has `xd` set (the RoCC interface "imposes a latency overhead
    /// during data exchange", paper §V).
    pub rocc_resp_latency: u32,
    /// RoCC busy-watchdog bound: a command whose accelerator busy time
    /// reaches this many cycles is aborted and reported as
    /// [`CpuError::RoccTimeout`] (trappable when `mtvec` is armed).
    pub rocc_watchdog: u32,
    /// Pipeline flush cost of delivering a trap to the `mtvec` handler.
    pub trap_penalty: u32,
    /// Seed for the caches' random-replacement generators.
    pub seed: u64,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            icache: CacheConfig::rocket_l1(),
            dcache: CacheConfig::rocket_l1(),
            miss_penalty: 20,
            load_latency: 2,
            mul_latency: 4,
            div_latency: 34,
            branch_penalty: 2,
            rocc_resp_latency: 2,
            rocc_watchdog: riscv_sim::DEFAULT_ROCC_WATCHDOG,
            trap_penalty: 3,
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
/// falls directly out of a run. Runs go through [`Simulator`]; guest
/// markers carry modelled cycles.
pub struct RocketSim {
    /// The wrapped functional core (public for program loading, register
    /// setup, coprocessors and retirement observers).
    pub cpu: Cpu,
    config: TimingConfig,
    icache: Cache,
    dcache: Cache,
    cycle: u64,
    ready_at: [u64; 32],
    /// Run counters, except the cache counters, which live in the caches.
    stats: RunStats,
}

impl std::fmt::Debug for RocketSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RocketSim")
            .field("cycle", &self.cycle)
            .field("stats", &self.stats)
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
        let mut cpu = Cpu::new();
        cpu.rocc_watchdog = config.rocc_watchdog;
        RocketSim {
            cpu,
            icache: Cache::new(config.icache, config.seed ^ 0x1CAC4E),
            dcache: Cache::new(config.dcache, config.seed ^ 0xDCAC4E),
            config,
            cycle: 0,
            ready_at: [0; 32],
            stats: RunStats::default(),
        }
    }

    /// Counters so far, including both caches'.
    #[must_use]
    pub fn stats(&self) -> RunStats {
        RunStats {
            icache: self.icache.stats(),
            dcache: self.dcache.stats(),
            ..self.stats
        }
    }

    fn charge(&mut self, retired: &Retired) -> Result<Cost, CpuError> {
        let mut total: u64 = 1; // issue
        let mut hw: u64 = 0;

        // Operand stalls against the scoreboard.
        let mut stall = 0;
        for src in retired.instr.sources().into_iter().flatten() {
            if src != Reg::ZERO {
                stall = stall.max(self.ready_at[src.number() as usize].saturating_sub(self.cycle));
            }
        }
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
                if let Some(rd) = retired.instr.dest() {
                    self.ready_at[rd.number() as usize] =
                        self.cycle + total + u64::from(self.config.load_latency) - 1;
                }
            }
        }

        match retired.instr {
            Instr::Op { op, rd, .. } if op.is_muldiv() => {
                if matches!(op, OpOp::Div | OpOp::Divu | OpOp::Rem | OpOp::Remu) {
                    // Iterative, blocking divider.
                    total += u64::from(self.config.div_latency) - 1;
                } else if rd != Reg::ZERO {
                    self.ready_at[rd.number() as usize] =
                        self.cycle + total + u64::from(self.config.mul_latency) - 1;
                }
            }
            Instr::Op32 { op, rd, .. } if op.is_muldiv() => {
                if op == riscv_isa::instr::Op32Op::Mulw {
                    if rd != Reg::ZERO {
                        self.ready_at[rd.number() as usize] =
                            self.cycle + total + u64::from(self.config.mul_latency) - 1;
                    }
                } else {
                    total += u64::from(self.config.div_latency) - 1;
                }
            }
            Instr::Custom(instr) => {
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
            _ => {}
        }

        // Taken control transfers flush the front end.
        if retired.redirected() {
            total += u64::from(self.config.branch_penalty);
        }

        Ok(Cost { total, hw })
    }

    /// Captures the complete machine state: the wrapped functional core
    /// (via [`riscv_sim::Cpu::snapshot`]), the modelled cycle count, the
    /// register scoreboard, the run counters, and both cache models
    /// including their replacement-generator state — so a restored run's
    /// timing (and therefore every guest-visible `rdcycle` value) matches
    /// the uninterrupted run bit-for-bit.
    #[must_use]
    pub fn snapshot(&self) -> RocketSnapshot {
        RocketSnapshot {
            cpu: self.cpu.snapshot(),
            cycle: self.cycle,
            ready_at: self.ready_at,
            stats: self.stats,
            icache: self.icache.snapshot(),
            dcache: self.dcache.snapshot(),
        }
    }

    /// Restores a snapshot taken from a core with the same
    /// [`TimingConfig`] (the config itself is not snapshotted; cache
    /// geometry is validated).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on cache-geometry or coprocessor
    /// mismatches; see [`riscv_sim::Cpu::restore`].
    pub fn restore(&mut self, snapshot: &RocketSnapshot) -> Result<(), SnapshotError> {
        self.icache
            .restore(&snapshot.icache)
            .map_err(SnapshotError::Malformed)?;
        self.dcache
            .restore(&snapshot.dcache)
            .map_err(SnapshotError::Malformed)?;
        self.cpu.restore(&snapshot.cpu)?;
        self.cycle = snapshot.cycle;
        self.ready_at = snapshot.ready_at;
        self.stats = snapshot.stats;
        Ok(())
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
        // Let guest rdcycle observe modelled time.
        self.cpu.cycle = self.cycle;
        // Inspected in place and returned as it is (see `Event`).
        let result = self.cpu.step();
        let retired = match &result {
            Err(_) => return result,
            Ok(Event::Exited { .. }) => {
                // The exiting ecall costs one software cycle.
                self.cycle += 1;
                self.stats.cycles = self.cycle;
                self.stats.instret += 1;
                self.stats.sw_cycles += 1;
                return result;
            }
            Ok(Event::Trapped { .. }) => {
                // Trap delivery flushes the pipeline but retires nothing.
                let cost = 1 + u64::from(self.config.trap_penalty);
                self.cycle += cost;
                self.stats.cycles = self.cycle;
                self.stats.sw_cycles += cost;
                return result;
            }
            Ok(Event::Retired(retired)) => retired,
        };
        let cost = self.charge(retired)?;
        self.cycle += cost.total;
        self.stats.cycles = self.cycle;
        self.stats.instret += 1;
        self.stats.sw_cycles += cost.total - cost.hw;
        self.stats.hw_cycles += cost.hw;
        result
    }
}

struct Cost {
    total: u64,
    hw: u64,
}

/// Envelope kind tag of a Rocket-core snapshot.
pub const SNAPSHOT_KIND: u32 = 0x3154_4B52; // "RKT1"

/// Complete serializable state of a [`RocketSim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RocketSnapshot {
    /// The wrapped functional core's state.
    pub cpu: CpuSnapshot,
    /// The modelled cycle count.
    pub cycle: u64,
    /// The register scoreboard (cycle each register's value is ready).
    pub ready_at: [u64; 32],
    /// Run counters. The cache counters are zero here: they travel with
    /// the cache states below.
    pub stats: RunStats,
    /// Instruction-cache state.
    pub icache: CacheSnapshot,
    /// Data-cache state.
    pub dcache: CacheSnapshot,
}

fn encode_cache(w: &mut ByteWriter, cache: &CacheSnapshot) {
    w.u64(cache.tags.len() as u64);
    for tag in &cache.tags {
        match tag {
            None => w.bool(false),
            Some(tag) => {
                w.bool(true);
                w.u64(*tag);
            }
        }
    }
    w.u64(cache.rng);
    w.u64(cache.stats.hits);
    w.u64(cache.stats.misses);
}

fn decode_cache(r: &mut ByteReader<'_>) -> Result<CacheSnapshot, SnapshotError> {
    let entries = r.u64()?;
    let mut tags = Vec::new();
    for _ in 0..entries {
        tags.push(if r.bool()? { Some(r.u64()?) } else { None });
    }
    Ok(CacheSnapshot {
        tags,
        rng: r.u64()?,
        stats: CacheStats {
            hits: r.u64()?,
            misses: r.u64()?,
        },
    })
}

impl RocketSnapshot {
    /// Serializes into the sealed envelope format shared with the other
    /// simulators (same magic/version/checksum scheme).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.blob(&self.cpu.to_bytes());
        w.u64(self.cycle);
        for ready in self.ready_at {
            w.u64(ready);
        }
        w.u64(self.stats.cycles);
        w.u64(self.stats.sw_cycles);
        w.u64(self.stats.hw_cycles);
        w.u64(self.stats.instret);
        w.u64(self.stats.rocc_instructions);
        w.u64(self.stats.stall_cycles);
        w.u64(self.stats.icache.hits);
        w.u64(self.stats.icache.misses);
        w.u64(self.stats.dcache.hits);
        w.u64(self.stats.dcache.misses);
        encode_cache(&mut w, &self.icache);
        encode_cache(&mut w, &self.dcache);
        seal(SNAPSHOT_KIND, &w.finish())
    }

    /// Deserializes from the sealed envelope format.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on version, kind, checksum, or structure
    /// mismatches.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let body = unseal(bytes, SNAPSHOT_KIND)?;
        let mut r = ByteReader::new(body);
        let cpu = CpuSnapshot::from_bytes(r.blob()?)?;
        let cycle = r.u64()?;
        let mut ready_at = [0u64; 32];
        for ready in &mut ready_at {
            *ready = r.u64()?;
        }
        let stats = RunStats {
            cycles: r.u64()?,
            sw_cycles: r.u64()?,
            hw_cycles: r.u64()?,
            instret: r.u64()?,
            rocc_instructions: r.u64()?,
            stall_cycles: r.u64()?,
            icache: CacheStats {
                hits: r.u64()?,
                misses: r.u64()?,
            },
            dcache: CacheStats {
                hits: r.u64()?,
                misses: r.u64()?,
            },
        };
        let icache = decode_cache(&mut r)?;
        let dcache = decode_cache(&mut r)?;
        r.expect_end()?;
        Ok(RocketSnapshot {
            cpu,
            cycle,
            ready_at,
            stats,
            icache,
            dcache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::instr::{OpImmOp};

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
        // The divider took div_latency cycles, so rdcycle must exceed it.
        assert!(code >= 34, "rdcycle saw {code}");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use riscv_isa::instr::{LoadOp, OpImmOp, OpOp};
    use riscv_isa::Instr;

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
    fn instruction_budget_error_propagates() {
        let mut sim = RocketSim::default();
        load(&mut sim, 0x1000, &[Instr::Jal { rd: Reg::ZERO, offset: 0 }]);
        assert!(matches!(
            sim.run(5),
            Err(riscv_sim::CpuError::InstructionLimit(5))
        ));
    }
}
