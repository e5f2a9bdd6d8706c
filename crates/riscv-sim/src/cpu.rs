//! The functional RV64IM core.

use riscv_isa::instr::{CsrOp, Instr, LoadOp, OperandFacts, StoreOp};
use riscv_isa::{csr, Reg};

use crate::coproc::{Coprocessor, NoCoprocessor, RoccCommand, RoccResponse};
use crate::memory::Decoded;
use crate::{CpuError, Memory, Simulator};

/// Syscall numbers understood by the host interface (`a7` at `ecall`).
pub mod syscall {
    /// `exit(code)` — end the program.
    pub const EXIT: u64 = 93;
    /// `write(fd, buf, len)` — bytes are captured into the console buffer.
    pub const WRITE: u64 = 64;
    /// `mark(id)` — framework extension: records `(id, cycle, instret)` so
    /// harnesses can delimit measurement regions.
    pub const MARK: u64 = 0x700;
}

/// A memory access performed by a retired instruction, for the cache models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// True for stores.
    pub store: bool,
}

/// Everything a timing model needs to know about one retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// The instruction's own address.
    pub pc: u64,
    /// The decoded instruction.
    pub instr: Instr,
    /// `instr`'s operand and latency facts, computed when it was decoded.
    pub facts: OperandFacts,
    /// Address of the next instruction to execute.
    pub next_pc: u64,
    /// Data-memory access, if any.
    pub mem_access: Option<MemAccess>,
    /// Accelerator response, if the instruction was a RoCC command.
    pub rocc: Option<RoccResponse>,
}

impl Retired {
    /// True if control transferred away from the fall-through path.
    #[must_use]
    pub fn redirected(&self) -> bool {
        self.next_pc != self.pc.wrapping_add(4)
    }
}

/// One step's outcome.
///
/// A wrapper around [`Cpu::step`] (the timing models) inspects the returned
/// `Result` by reference and returns it unchanged rather than moving the
/// event out and re-wrapping it in `Ok`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An instruction retired.
    Retired(Retired),
    /// The program called `exit`.
    Exited {
        /// The exit code passed in `a0`.
        code: i64,
    },
    /// A fault was delivered to the guest's M-mode trap handler (armed by
    /// writing a nonzero `mtvec`). The faulting instruction did not retire;
    /// the next fetch is from the handler.
    Trapped {
        /// The `mcause` code (see [`riscv_isa::csr::cause`]).
        cause: u64,
        /// The faulting pc, as written to `mepc`.
        epc: u64,
    },
}

/// One delivered guest trap, recorded for harnesses (fault-injection
/// classification, conformance checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrapRecord {
    /// The `mcause` code.
    pub cause: u64,
    /// The faulting pc (`mepc`).
    pub epc: u64,
    /// The trap value (`mtval`): faulting address, CSR number, or 0.
    pub tval: u64,
}

/// Maps a [`CpuError`] to its guest-visible `(mcause, mtval)`, or `None`
/// for host-level conditions that never trap (unknown syscalls, budget
/// exhaustion — those are simulation-harness concerns, not architecture).
#[must_use]
pub fn trap_cause(error: &CpuError) -> Option<(u64, u64)> {
    use riscv_isa::csr::cause;
    match *error {
        CpuError::MisalignedPc(a) => Some((cause::MISALIGNED_FETCH, a)),
        CpuError::FetchFault(a) => Some((cause::FETCH_FAULT, a)),
        CpuError::Decode(_) => Some((cause::ILLEGAL_INSTRUCTION, 0)),
        CpuError::Breakpoint(a) => Some((cause::BREAKPOINT, a)),
        CpuError::ReadOnlyCsr(c) => Some((cause::ILLEGAL_INSTRUCTION, u64::from(c))),
        CpuError::UnmappedAddress(a) => Some((cause::LOAD_FAULT, a)),
        CpuError::NoCoprocessor { .. }
        | CpuError::UnknownRoccFunction { .. }
        | CpuError::RoccProtocol(_)
        | CpuError::MissingRoccResponse { .. } => Some((cause::ILLEGAL_INSTRUCTION, 0)),
        CpuError::RoccTimeout { .. } => Some((cause::ROCC_TIMEOUT, 0)),
        CpuError::UnknownSyscall(_) | CpuError::InstructionLimit(_) => None,
    }
}

/// A `(marker id, cycle, instret)` triple recorded by the `mark` syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Marker {
    /// The marker id from `a0`.
    pub id: u64,
    /// The core cycle counter at the marker.
    pub cycle: u64,
    /// Instructions retired at the marker.
    pub instret: u64,
}

/// The functional RV64IM core with host interface and RoCC port.
///
/// The functional core advances [`Cpu::cycle`] by one per instruction; a
/// timing model (like `rocket-sim`) drives the field itself so guest
/// `rdcycle` reads observe modelled time.
///
/// The core fetches decoded instructions from [`Cpu::memory`], which
/// decodes each word once and keeps it until that page is written, so
/// self-modifying code and harness patches always execute as written.
///
/// # Example
///
/// ```
/// use riscv_sim::{Cpu, Memory};
/// use riscv_isa::{Instr, Reg};
/// use riscv_isa::instr::OpImmOp;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cpu = Cpu::new();
/// // addi a0, zero, 42 ; addi a7, zero, 93 ; ecall
/// let prog = [
///     Instr::OpImm { op: OpImmOp::Addi, rd: Reg::A0, rs1: Reg::ZERO, imm: 42 },
///     Instr::OpImm { op: OpImmOp::Addi, rd: Reg::A7, rs1: Reg::ZERO, imm: 93 },
///     Instr::Ecall,
/// ];
/// for (i, instr) in prog.iter().enumerate() {
///     cpu.memory.write_u32(0x1000 + 4 * i as u64, instr.encode()?)?;
/// }
/// cpu.set_pc(0x1000);
/// let exit = cpu.run(1_000)?;
/// assert_eq!(exit, 42);
/// # Ok(())
/// # }
/// ```
pub struct Cpu {
    regs: [u64; 32],
    pc: u64,
    /// The cycle counter backing `rdcycle`. The functional core increments
    /// it once per instruction; timing models overwrite it.
    pub cycle: u64,
    /// Instructions retired (backs `rdinstret`).
    pub instret: u64,
    /// Guest-visible memory.
    pub memory: Memory,
    /// Captured `write` syscall output.
    pub console: Vec<u8>,
    /// Markers recorded by the `mark` syscall.
    pub markers: Vec<Marker>,
    /// Guest traps delivered so far (empty unless the guest armed `mtvec`).
    pub trap_log: Vec<TrapRecord>,
    coprocessor: Box<dyn Coprocessor>,
    scratch_csrs: std::collections::BTreeMap<u16, u64>,
}

/// RoCC busy-watchdog bound in cycles: if an accelerator response claims
/// this many busy cycles or more (including the [`crate::ROCC_HANG`] hang
/// sentinel), the core aborts the handshake instead of waiting forever. Far
/// above any legitimate command (the slowest, `DEC_CNV`, stays under 70
/// cycles) and far below any simulation budget.
const ROCC_WATCHDOG: u32 = 10_000;

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("pc", &format_args!("{:#x}", self.pc))
            .field("cycle", &self.cycle)
            .field("instret", &self.instret)
            .finish_non_exhaustive()
    }
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

impl Cpu {
    /// A core with empty memory and no coprocessor attached.
    #[must_use]
    pub fn new() -> Self {
        Cpu {
            regs: [0; 32],
            pc: 0,
            cycle: 0,
            instret: 0,
            memory: Memory::new(),
            console: Vec::new(),
            markers: Vec::new(),
            trap_log: Vec::new(),
            coprocessor: Box::new(NoCoprocessor),
            scratch_csrs: std::collections::BTreeMap::new(),
        }
    }

    /// Attaches an accelerator to the RoCC port.
    pub fn attach_coprocessor(&mut self, coprocessor: Box<dyn Coprocessor>) {
        self.coprocessor = coprocessor;
    }

    /// A snapshot of the full integer register file, indexed by register
    /// number (`x0` is always zero).
    #[must_use]
    pub fn registers(&self) -> [u64; 32] {
        self.regs
    }

    /// Reads a register (x0 reads as zero).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.number() as usize]
    }

    /// Writes a register (writes to x0 are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if r != Reg::ZERO {
            self.regs[r.number() as usize] = value;
        }
    }

    /// The program counter.
    #[must_use]
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Sets the program counter (e.g. to a program's entry point).
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// Executes one instruction.
    ///
    /// If the guest has armed M-mode trap delivery (nonzero `mtvec`),
    /// architectural faults — illegal instructions, access faults,
    /// accelerator timeouts — are delivered as [`Event::Trapped`] instead
    /// of erroring: `mepc`/`mcause`/`mtval` are written, the pc moves to
    /// the handler, and the faulting instruction does not retire. With
    /// `mtvec` zero (the reset value) faults surface to the host as
    /// before.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError`] on fetch/load/store faults, undecodable
    /// instructions, unknown syscalls, `ebreak`, or coprocessor faults,
    /// when trap delivery is unarmed or the fault is host-level
    /// (unknown syscalls never trap).
    pub fn step(&mut self) -> Result<Event, CpuError> {
        let pc = self.pc;
        match self.step_inner() {
            Ok(event) => Ok(event),
            Err(error) => {
                let mtvec = self.scratch_csrs.get(&csr::MTVEC).copied().unwrap_or(0);
                let Some((cause, tval)) = trap_cause(&error) else {
                    return Err(error);
                };
                if mtvec == 0 {
                    return Err(error);
                }
                // Precise trap: step_inner leaves no partial architectural
                // state on any error path, so mepc points at an instruction
                // that can be re-executed or skipped by the handler.
                self.scratch_csrs.insert(csr::MEPC, pc);
                self.scratch_csrs.insert(csr::MCAUSE, cause);
                self.scratch_csrs.insert(csr::MTVAL, tval);
                self.pc = mtvec & !0x3;
                self.cycle += 1;
                self.trap_log.push(TrapRecord { cause, epc: pc, tval });
                Ok(Event::Trapped { cause, epc: pc })
            }
        }
    }

    fn step_inner(&mut self) -> Result<Event, CpuError> {
        let pc = self.pc;
        if !pc.is_multiple_of(4) {
            return Err(CpuError::MisalignedPc(pc));
        }
        let Decoded { instr, facts } = self.memory.fetch(pc)?;
        let mut next_pc = pc.wrapping_add(4);
        let mut mem_access = None;
        let mut rocc = None;

        match instr {
            Instr::Lui { rd, imm20 } => {
                self.set_reg(rd, ((imm20 as i64) << 12) as u64);
            }
            Instr::Auipc { rd, imm20 } => {
                self.set_reg(rd, pc.wrapping_add(((imm20 as i64) << 12) as u64));
            }
            Instr::Jal { rd, offset } => {
                self.set_reg(rd, next_pc);
                next_pc = pc.wrapping_add(offset as i64 as u64);
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as i64 as u64) & !1;
                self.set_reg(rd, next_pc);
                next_pc = target;
            }
            Instr::Branch { op, rs1, rs2, offset } => {
                if op.taken(self.reg(rs1), self.reg(rs2)) {
                    next_pc = pc.wrapping_add(offset as i64 as u64);
                }
            }
            Instr::Load { op, rd, rs1, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as i64 as u64);
                let value = match op {
                    LoadOp::Lb => self.memory.read_u8(addr)? as i8 as i64 as u64,
                    LoadOp::Lbu => self.memory.read_u8(addr)?.into(),
                    LoadOp::Lh => self.memory.read_u16(addr)? as i16 as i64 as u64,
                    LoadOp::Lhu => self.memory.read_u16(addr)?.into(),
                    LoadOp::Lw => self.memory.read_u32(addr)? as i32 as i64 as u64,
                    LoadOp::Lwu => self.memory.read_u32(addr)?.into(),
                    LoadOp::Ld => self.memory.read_u64(addr)?,
                };
                self.set_reg(rd, value);
                mem_access = Some(MemAccess {
                    addr,
                    size: op.size(),
                    store: false,
                });
            }
            Instr::Store { op, rs2, rs1, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as i64 as u64);
                let value = self.reg(rs2);
                match op {
                    StoreOp::Sb => self.memory.write_u8(addr, value as u8)?,
                    StoreOp::Sh => self.memory.write_u16(addr, value as u16)?,
                    StoreOp::Sw => self.memory.write_u32(addr, value as u32)?,
                    StoreOp::Sd => self.memory.write_u64(addr, value)?,
                }
                mem_access = Some(MemAccess {
                    addr,
                    size: op.size(),
                    store: true,
                });
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                self.set_reg(rd, op.alu_op().eval(self.reg(rs1), imm as i64 as u64));
            }
            Instr::OpImm32 { op, rd, rs1, imm } => {
                self.set_reg(rd, op.alu_op().eval(self.reg(rs1), imm as i64 as u64));
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                self.set_reg(rd, op.eval(self.reg(rs1), self.reg(rs2)));
            }
            Instr::Op32 { op, rd, rs1, rs2 } => {
                self.set_reg(rd, op.eval(self.reg(rs1), self.reg(rs2)));
            }
            Instr::Fence => {}
            Instr::Ebreak => return Err(CpuError::Breakpoint(pc)),
            Instr::Mret => {
                next_pc = self.scratch_csrs.get(&csr::MEPC).copied().unwrap_or(0);
            }
            Instr::Ecall => {
                let nr = self.reg(Reg::A7);
                match nr {
                    syscall::EXIT => {
                        self.instret += 1;
                        self.cycle += 1;
                        return Ok(Event::Exited {
                            code: self.reg(Reg::A0) as i64,
                        });
                    }
                    syscall::WRITE => {
                        let buf = self.reg(Reg::A1);
                        let len = self.reg(Reg::A2);
                        let bytes = self.memory.read_bytes(buf, len as usize)?;
                        self.console.extend_from_slice(&bytes);
                        self.set_reg(Reg::A0, len);
                    }
                    syscall::MARK => {
                        self.markers.push(Marker {
                            id: self.reg(Reg::A0),
                            cycle: self.cycle,
                            instret: self.instret,
                        });
                    }
                    _ => return Err(CpuError::UnknownSyscall(nr)),
                }
            }
            Instr::Csr { op, rd, csr, rs1 } => {
                let old = self.read_csr(csr)?;
                let src = self.reg(rs1);
                self.write_csr_op(op, csr, old, src, rs1 != Reg::ZERO)?;
                self.set_reg(rd, old);
            }
            Instr::CsrImm { op, rd, csr, imm } => {
                let old = self.read_csr(csr)?;
                self.write_csr_op(op, csr, old, u64::from(imm), imm != 0)?;
                self.set_reg(rd, old);
            }
            Instr::Custom(rocc_instr) => {
                let cmd = RoccCommand {
                    instruction: rocc_instr,
                    rs1_value: if rocc_instr.xs1 {
                        self.reg(rocc_instr.rs1)
                    } else {
                        0
                    },
                    rs2_value: if rocc_instr.xs2 {
                        self.reg(rocc_instr.rs2)
                    } else {
                        0
                    },
                };
                let resp = self.coprocessor.execute(&cmd, &mut self.memory)?;
                if resp.busy_cycles >= ROCC_WATCHDOG {
                    // The response will never arrive (or not within the
                    // bound): abort the handshake instead of hanging the
                    // core, and tell the accelerator so it can recover.
                    self.coprocessor.watchdog_abort();
                    return Err(CpuError::RoccTimeout {
                        funct7: rocc_instr.funct7,
                        watchdog: ROCC_WATCHDOG,
                    });
                }
                if rocc_instr.xd {
                    let value = resp.rd_value.ok_or(CpuError::MissingRoccResponse {
                        funct7: rocc_instr.funct7,
                    })?;
                    self.set_reg(rocc_instr.rd, value);
                }
                rocc = Some(resp);
            }
        }

        self.pc = next_pc;
        self.instret += 1;
        self.cycle += 1;
        Ok(Event::Retired(Retired {
            pc,
            instr,
            facts,
            next_pc,
            mem_access,
            rocc,
        }))
    }

    fn read_csr(&self, number: u16) -> Result<u64, CpuError> {
        Ok(match number {
            csr::CYCLE | csr::TIME => self.cycle,
            csr::INSTRET => self.instret,
            csr::MHARTID => 0,
            _ => self.scratch_csrs.get(&number).copied().unwrap_or(0),
        })
    }

    fn write_csr_op(
        &mut self,
        op: CsrOp,
        number: u16,
        old: u64,
        src: u64,
        writes: bool,
    ) -> Result<(), CpuError> {
        // csrrs/csrrc with a zero source are pure reads and never trap.
        if !writes && matches!(op, CsrOp::Csrrs | CsrOp::Csrrc) {
            return Ok(());
        }
        match number {
            csr::CYCLE | csr::TIME | csr::INSTRET | csr::MHARTID => {
                Err(CpuError::ReadOnlyCsr(number))
            }
            _ => {
                let new = match op {
                    CsrOp::Csrrw => src,
                    CsrOp::Csrrs => old | src,
                    CsrOp::Csrrc => old & !src,
                };
                self.scratch_csrs.insert(number, new);
                Ok(())
            }
        }
    }

    /// Runs until exit or `max_instructions` steps; [`Simulator::run`]
    /// without the trait in scope.
    ///
    /// # Errors
    ///
    /// See [`Simulator::run`].
    pub fn run(&mut self, max_instructions: u64) -> Result<i64, CpuError> {
        Simulator::run(self, max_instructions)
    }

    /// Resets architectural state (registers, pc, counters, coprocessor)
    /// while keeping memory contents.
    pub fn reset(&mut self) {
        self.regs = [0; 32];
        self.pc = 0;
        self.cycle = 0;
        self.instret = 0;
        self.console.clear();
        self.markers.clear();
        self.trap_log.clear();
        self.scratch_csrs.clear();
        self.coprocessor.reset();
    }
}

impl Simulator for Cpu {
    fn label(&self) -> &'static str {
        "functional"
    }

    fn cpu(&self) -> &Cpu {
        self
    }

    fn cpu_mut(&mut self) -> &mut Cpu {
        self
    }

    #[inline]
    fn step(&mut self) -> Result<Event, CpuError> {
        Cpu::step(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::instr::{BranchOp, OpImm32Op, OpImmOp, OpOp};

    fn load(cpu: &mut Cpu, base: u64, prog: &[Instr]) {
        for (i, instr) in prog.iter().enumerate() {
            cpu.memory
                .write_u32(base + 4 * i as u64, instr.encode().unwrap())
                .unwrap();
        }
        cpu.set_pc(base);
    }

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::OpImm {
            op: OpImmOp::Addi,
            rd,
            rs1,
            imm,
        }
    }

    fn exit_seq() -> [Instr; 2] {
        [addi(Reg::A7, Reg::ZERO, 93), Instr::Ecall]
    }

    #[test]
    fn write_syscall_with_a_garbage_length_faults() {
        // `write(buf, -1)` with only the buffer's page mapped: a typed
        // fault at the next page, never a host allocation of the length.
        let mut cpu = Cpu::new();
        cpu.memory.write_u8(0x1000, b'x').unwrap();
        let prog = [
            addi(Reg::A0, Reg::ZERO, 1),
            Instr::Lui { rd: Reg::A1, imm20: 1 },
            addi(Reg::A2, Reg::ZERO, -1),
            addi(Reg::A7, Reg::ZERO, 64),
            Instr::Ecall,
        ];
        load(&mut cpu, 0x8000, &prog);
        assert_eq!(cpu.run(100), Err(CpuError::UnmappedAddress(0x2000)));
        assert!(cpu.console.is_empty());
    }

    #[test]
    fn arithmetic_loop_sums() {
        // Sum 1..=10 with a branch loop.
        let mut cpu = Cpu::new();
        let prog = vec![
            addi(Reg::T0, Reg::ZERO, 0),  // sum
            addi(Reg::T1, Reg::ZERO, 1),  // i
            addi(Reg::T2, Reg::ZERO, 10), // limit
            // loop:
            Instr::Op { op: OpOp::Add, rd: Reg::T0, rs1: Reg::T0, rs2: Reg::T1 },
            addi(Reg::T1, Reg::T1, 1),
            Instr::Branch { op: BranchOp::Bge, rs1: Reg::T2, rs2: Reg::T1, offset: -8 },
            addi(Reg::A0, Reg::T0, 0),
            addi(Reg::A7, Reg::ZERO, 93),
            Instr::Ecall,
        ];
        load(&mut cpu, 0x1000, &prog);
        assert_eq!(cpu.run(1000).unwrap(), 55);
    }

    #[test]
    fn memory_and_jal() {
        let mut cpu = Cpu::new();
        let mut prog = vec![
            Instr::Lui { rd: Reg::T0, imm20: 0x2 }, // t0 = 0x2000
            addi(Reg::T1, Reg::ZERO, 0x7F),
            Instr::Store { op: StoreOp::Sd, rs2: Reg::T1, rs1: Reg::T0, offset: 8 },
            Instr::Load { op: LoadOp::Ld, rd: Reg::A0, rs1: Reg::T0, offset: 8 },
        ];
        prog.extend(exit_seq());
        load(&mut cpu, 0x1000, &prog);
        assert_eq!(cpu.run(100).unwrap(), 0x7F);
    }

    #[test]
    fn signed_div_edge_cases() {
        let mut cpu = Cpu::new();
        // i64::MIN / -1 must wrap, not fault.
        cpu.set_reg(Reg::A1, i64::MIN as u64);
        cpu.set_reg(Reg::A2, -1i64 as u64);
        let mut prog = vec![Instr::Op {
            op: OpOp::Div,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        }];
        prog.extend(exit_seq());
        load(&mut cpu, 0x1000, &prog);
        assert_eq!(cpu.run(100).unwrap(), i64::MIN);
    }

    #[test]
    fn div_by_zero_semantics() {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::A1, 42);
        let mut prog = vec![
            Instr::Op { op: OpOp::Divu, rd: Reg::T0, rs1: Reg::A1, rs2: Reg::ZERO },
            Instr::Op { op: OpOp::Remu, rd: Reg::T1, rs1: Reg::A1, rs2: Reg::ZERO },
            // a0 = (t0 == all-ones && t1 == 42) ? 1 : 0, computed branchlessly:
            addi(Reg::T2, Reg::ZERO, -1),
            Instr::Op { op: OpOp::Xor, rd: Reg::T0, rs1: Reg::T0, rs2: Reg::T2 },
            Instr::Op { op: OpOp::Sltu, rd: Reg::T0, rs1: Reg::ZERO, rs2: Reg::T0 },
            addi(Reg::A0, Reg::T1, 0),
        ];
        prog.extend(exit_seq());
        load(&mut cpu, 0x1000, &prog);
        assert_eq!(cpu.run(100).unwrap(), 42);
    }

    #[test]
    fn word_ops_sign_extend() {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::A1, 0x7FFF_FFFF);
        let mut prog = vec![Instr::OpImm32 {
            op: OpImm32Op::Addiw,
            rd: Reg::A0,
            rs1: Reg::A1,
            imm: 1,
        }];
        prog.extend(exit_seq());
        load(&mut cpu, 0x1000, &prog);
        // 0x7FFFFFFF + 1 wraps to i32::MIN and sign-extends.
        assert_eq!(cpu.run(100).unwrap(), i32::MIN as i64);
    }

    #[test]
    fn write_syscall_captures_console() {
        let mut cpu = Cpu::new();
        cpu.memory.load_bytes(0x3000, b"hi!").unwrap();
        let mut prog = vec![
            addi(Reg::A0, Reg::ZERO, 1),
            Instr::Lui { rd: Reg::A1, imm20: 0x3 },
            addi(Reg::A2, Reg::ZERO, 3),
            addi(Reg::A7, Reg::ZERO, 64),
            Instr::Ecall,
        ];
        prog.extend(exit_seq());
        load(&mut cpu, 0x1000, &prog);
        cpu.run(100).unwrap();
        assert_eq!(cpu.console, b"hi!");
    }

    #[test]
    fn markers_record_counters() {
        let mut cpu = Cpu::new();
        let mut prog = vec![
            addi(Reg::A0, Reg::ZERO, 7),
            addi(Reg::A7, Reg::ZERO, 0x700),
            Instr::Ecall,
        ];
        prog.extend(exit_seq());
        load(&mut cpu, 0x1000, &prog);
        cpu.run(100).unwrap();
        assert_eq!(cpu.markers.len(), 1);
        assert_eq!(cpu.markers[0].id, 7);
        assert_eq!(cpu.markers[0].instret, 2);
    }

    #[test]
    fn rdcycle_reads_counter() {
        let mut cpu = Cpu::new();
        let mut prog = vec![
            Instr::NOP,
            Instr::NOP,
            Instr::Csr {
                op: CsrOp::Csrrs,
                rd: Reg::A0,
                csr: csr::CYCLE,
                rs1: Reg::ZERO,
            },
        ];
        prog.extend(exit_seq());
        load(&mut cpu, 0x1000, &prog);
        assert_eq!(cpu.run(100).unwrap(), 2);
    }

    #[test]
    fn csr_write_to_cycle_traps() {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::A1, 5);
        let prog = vec![Instr::Csr {
            op: CsrOp::Csrrw,
            rd: Reg::A0,
            csr: csr::CYCLE,
            rs1: Reg::A1,
        }];
        load(&mut cpu, 0x1000, &prog);
        assert!(matches!(cpu.step(), Err(CpuError::ReadOnlyCsr(0xC00))));
    }

    #[test]
    fn scratch_csr_set_clear() {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::A1, 0b1100);
        cpu.set_reg(Reg::A2, 0b0100);
        let mut prog = vec![
            Instr::Csr { op: CsrOp::Csrrw, rd: Reg::ZERO, csr: 0x800, rs1: Reg::A1 },
            Instr::Csr { op: CsrOp::Csrrc, rd: Reg::ZERO, csr: 0x800, rs1: Reg::A2 },
            Instr::Csr { op: CsrOp::Csrrs, rd: Reg::A0, csr: 0x800, rs1: Reg::ZERO },
        ];
        prog.extend(exit_seq());
        load(&mut cpu, 0x1000, &prog);
        assert_eq!(cpu.run(100).unwrap(), 0b1000);
    }

    #[test]
    fn ebreak_reports_breakpoint() {
        let mut cpu = Cpu::new();
        load(&mut cpu, 0x1000, &[Instr::Ebreak]);
        assert!(matches!(cpu.step(), Err(CpuError::Breakpoint(0x1000))));
    }

    #[test]
    fn unknown_syscall_faults() {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::A7, 999);
        load(&mut cpu, 0x1000, &[Instr::Ecall]);
        assert!(matches!(cpu.step(), Err(CpuError::UnknownSyscall(999))));
    }

    #[test]
    fn instruction_limit_enforced() {
        let mut cpu = Cpu::new();
        // Infinite loop: jal zero, 0.
        load(&mut cpu, 0x1000, &[Instr::Jal { rd: Reg::ZERO, offset: 0 }]);
        assert!(matches!(
            cpu.run(10),
            Err(CpuError::InstructionLimit(10))
        ));
    }

    #[test]
    fn armed_mtvec_turns_faults_into_guest_traps() {
        let mut cpu = Cpu::new();
        // Handler at 0x2000: just exit with code 77.
        let handler = [addi(Reg::A0, Reg::ZERO, 77), addi(Reg::A7, Reg::ZERO, 93), Instr::Ecall];
        load(&mut cpu, 0x2000, &handler);
        // Main at 0x1000: arm mtvec, then execute an undecodable word.
        cpu.set_reg(Reg::T0, 0x2000);
        let main = [Instr::Csr { op: CsrOp::Csrrw, rd: Reg::ZERO, csr: csr::MTVEC, rs1: Reg::T0 }];
        load(&mut cpu, 0x1000, &main);
        cpu.memory.write_u32(0x1004, 0xFFFF_FFFF).unwrap();
        cpu.set_pc(0x1000);

        assert!(matches!(cpu.step(), Ok(Event::Retired(_))));
        let trapped = cpu.step().unwrap();
        assert_eq!(
            trapped,
            Event::Trapped { cause: riscv_isa::csr::cause::ILLEGAL_INSTRUCTION, epc: 0x1004 }
        );
        assert_eq!(cpu.pc(), 0x2000);
        assert_eq!(cpu.trap_log.len(), 1);
        assert_eq!(cpu.trap_log[0].epc, 0x1004);
        // The faulting instruction did not retire.
        assert_eq!(cpu.instret, 1);
        assert_eq!(cpu.run(100).unwrap(), 77);
    }

    #[test]
    fn mret_returns_to_mepc() {
        let mut cpu = Cpu::new();
        // Handler at 0x2000: skip the faulting instruction and return.
        cpu.set_reg(Reg::T0, 0x2000);
        let main = [
            Instr::Csr { op: CsrOp::Csrrw, rd: Reg::ZERO, csr: csr::MTVEC, rs1: Reg::T0 },
            Instr::Ebreak, // traps (cause 3)
            addi(Reg::A0, Reg::ZERO, 5),
            addi(Reg::A7, Reg::ZERO, 93),
            Instr::Ecall,
        ];
        load(&mut cpu, 0x1000, &main);
        let handler = [
            // t1 = mepc + 4; mepc = t1; mret
            Instr::Csr { op: CsrOp::Csrrs, rd: Reg::T1, csr: csr::MEPC, rs1: Reg::ZERO },
            addi(Reg::T1, Reg::T1, 4),
            Instr::Csr { op: CsrOp::Csrrw, rd: Reg::ZERO, csr: csr::MEPC, rs1: Reg::T1 },
            Instr::Mret,
        ];
        for (i, instr) in handler.iter().enumerate() {
            cpu.memory
                .write_u32(0x2000 + 4 * i as u64, instr.encode().unwrap())
                .unwrap();
        }
        cpu.set_pc(0x1000);
        assert_eq!(cpu.run(100).unwrap(), 5);
        assert_eq!(cpu.trap_log.len(), 1);
        assert_eq!(cpu.trap_log[0].cause, riscv_isa::csr::cause::BREAKPOINT);
    }

    #[test]
    fn unknown_syscall_never_traps() {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::T0, 0x2000);
        cpu.set_reg(Reg::A7, 999);
        let main = [
            Instr::Csr { op: CsrOp::Csrrw, rd: Reg::ZERO, csr: csr::MTVEC, rs1: Reg::T0 },
            Instr::Ecall,
        ];
        load(&mut cpu, 0x1000, &main);
        cpu.step().unwrap();
        assert!(matches!(cpu.step(), Err(CpuError::UnknownSyscall(999))));
    }

    /// A coprocessor whose interface FSM is permanently wedged.
    struct WedgedCoproc {
        aborted: std::rc::Rc<std::cell::Cell<bool>>,
    }

    impl Coprocessor for WedgedCoproc {
        fn execute(
            &mut self,
            _cmd: &RoccCommand,
            _mem: &mut Memory,
        ) -> Result<RoccResponse, CpuError> {
            Ok(RoccResponse::hung())
        }
        fn watchdog_abort(&mut self) {
            self.aborted.set(true);
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn rocc_watchdog_bounds_a_hung_handshake() {
        use riscv_isa::rocc::{CustomOpcode, RoccInstruction};
        let aborted = std::rc::Rc::new(std::cell::Cell::new(false));
        let mut cpu = Cpu::new();
        cpu.attach_coprocessor(Box::new(WedgedCoproc { aborted: aborted.clone() }));
        let custom = Instr::Custom(RoccInstruction::reg_reg(
            CustomOpcode::Custom0,
            4,
            Reg::T2,
            Reg::T0,
            Reg::T1,
        ));
        load(&mut cpu, 0x1000, &[custom]);
        let result = cpu.step();
        assert!(
            matches!(result, Err(CpuError::RoccTimeout { funct7: 4, .. })),
            "got {result:?}"
        );
        assert!(aborted.get(), "watchdog must notify the accelerator");
        // With mtvec armed the same timeout becomes a guest trap.
        let aborted2 = std::rc::Rc::new(std::cell::Cell::new(false));
        let mut cpu = Cpu::new();
        cpu.attach_coprocessor(Box::new(WedgedCoproc { aborted: aborted2 }));
        cpu.set_reg(Reg::T0, 0x2000);
        let main = [
            Instr::Csr { op: CsrOp::Csrrw, rd: Reg::ZERO, csr: csr::MTVEC, rs1: Reg::T0 },
            custom,
        ];
        load(&mut cpu, 0x1000, &main);
        cpu.step().unwrap();
        assert_eq!(
            cpu.step().unwrap(),
            Event::Trapped { cause: riscv_isa::csr::cause::ROCC_TIMEOUT, epc: 0x1004 }
        );
    }

    /// `addi a0, a0, imm` — the instruction the patching tests rewrite.
    fn bump_a0(imm: i32) -> Instr {
        addi(Reg::A0, Reg::A0, imm)
    }

    fn word(instr: Instr) -> u64 {
        u64::from(instr.encode().unwrap())
    }

    #[test]
    fn guest_store_patches_a_decoded_instruction_on_the_same_page() {
        let mut cpu = Cpu::new();
        // Two passes over `target`; the second pass first patches it.
        let prog = vec![
            Instr::Branch { op: BranchOp::Beq, rs1: Reg::S1, rs2: Reg::ZERO, offset: 8 },
            Instr::Store { op: StoreOp::Sw, rs2: Reg::T1, rs1: Reg::T0, offset: 0 },
            addi(Reg::S1, Reg::S1, 1),
            bump_a0(1), // target, at 0x100c
            addi(Reg::T2, Reg::ZERO, 2),
            Instr::Branch { op: BranchOp::Blt, rs1: Reg::S1, rs2: Reg::T2, offset: -20 },
            addi(Reg::A7, Reg::ZERO, 93),
            Instr::Ecall,
        ];
        load(&mut cpu, 0x1000, &prog);
        cpu.set_reg(Reg::T0, 0x100C);
        cpu.set_reg(Reg::T1, word(bump_a0(100)));
        assert_eq!(cpu.run(100).unwrap(), 101);
    }

    #[test]
    fn guest_store_patches_an_executed_instruction_on_another_page() {
        let mut cpu = Cpu::new();
        let main = vec![
            Instr::Jal { rd: Reg::RA, offset: 0x1000 }, // call 0x2000
            Instr::Store { op: StoreOp::Sw, rs2: Reg::T1, rs1: Reg::T0, offset: 0 },
            Instr::Jal { rd: Reg::RA, offset: 0xFF8 }, // call 0x2000 again
            addi(Reg::A7, Reg::ZERO, 93),
            Instr::Ecall,
        ];
        let callee = [bump_a0(1), Instr::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 }];
        load(&mut cpu, 0x2000, &callee);
        load(&mut cpu, 0x1000, &main);
        cpu.set_reg(Reg::T0, 0x2000);
        cpu.set_reg(Reg::T1, word(bump_a0(100)));
        assert_eq!(cpu.run(100).unwrap(), 101);
    }

    #[test]
    fn harness_write_between_steps_takes_effect() {
        let mut cpu = Cpu::new();
        let mut prog = vec![bump_a0(1)];
        prog.extend(exit_seq());
        load(&mut cpu, 0x1000, &prog);
        cpu.step().unwrap();
        assert_eq!(cpu.reg(Reg::A0), 1);
        cpu.memory.write_u32(0x1000, bump_a0(100).encode().unwrap()).unwrap();
        cpu.set_pc(0x1000);
        assert_eq!(cpu.run(100).unwrap(), 101);
    }

    /// A coprocessor that stores the low word of `rs2` at address `rs1`.
    struct TextPatcher;

    impl Coprocessor for TextPatcher {
        fn execute(&mut self, cmd: &RoccCommand, mem: &mut Memory) -> Result<RoccResponse, CpuError> {
            mem.write_u32(cmd.rs1_value, cmd.rs2_value as u32)?;
            Ok(RoccResponse { rd_value: Some(0), ..RoccResponse::default() })
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn coprocessor_write_into_text_takes_effect() {
        use riscv_isa::rocc::{CustomOpcode, RoccInstruction};
        let mut cpu = Cpu::new();
        cpu.attach_coprocessor(Box::new(TextPatcher));
        let patch = RoccInstruction::reg_reg(CustomOpcode::Custom0, 1, Reg::ZERO, Reg::T0, Reg::T1);
        let prog = vec![
            bump_a0(1), // target, executed once before the patch
            Instr::Branch { op: BranchOp::Bne, rs1: Reg::S1, rs2: Reg::ZERO, offset: 16 },
            addi(Reg::S1, Reg::ZERO, 1),
            Instr::Custom(patch),
            Instr::Jal { rd: Reg::ZERO, offset: -16 },
            addi(Reg::A7, Reg::ZERO, 93),
            Instr::Ecall,
        ];
        load(&mut cpu, 0x1000, &prog);
        cpu.set_reg(Reg::T0, 0x1000);
        cpu.set_reg(Reg::T1, word(bump_a0(100)));
        assert_eq!(cpu.run(100).unwrap(), 101);
    }

    /// `a0 = value; exit` at 0x1000.
    fn exit_with(cpu: &mut Cpu, value: i32) {
        let mut prog = vec![addi(Reg::A0, Reg::ZERO, value)];
        prog.extend(exit_seq());
        load(cpu, 0x1000, &prog);
    }

    #[test]
    fn replacing_memory_wholesale_executes_the_new_code() {
        let mut cpu = Cpu::new();
        exit_with(&mut cpu, 1);
        assert_eq!(cpu.run(100).unwrap(), 1);
        let mut fresh = Cpu::new();
        exit_with(&mut fresh, 2);
        cpu.memory = std::mem::take(&mut fresh.memory);
        cpu.reset();
        cpu.set_pc(0x1000);
        assert_eq!(cpu.run(100).unwrap(), 2);
    }

    #[test]
    fn swapping_in_a_clone_patched_before_it_was_fetched_executes_the_patch() {
        let mut cpu = Cpu::new();
        exit_with(&mut cpu, 1);
        // The clone is taken, then patched, before the page is ever
        // fetched; the slots the run decodes belong to the original alone.
        let mut clone = cpu.memory.clone();
        clone.write_u32(0x1000, addi(Reg::A0, Reg::ZERO, 2).encode().unwrap()).unwrap();
        assert_eq!(cpu.run(100).unwrap(), 1);
        cpu.memory = clone;
        cpu.reset();
        cpu.set_pc(0x1000);
        assert_eq!(cpu.run(100).unwrap(), 2);
    }

    #[test]
    fn decoded_pages_are_reused_across_page_changes() {
        // A call ping-pongs between two pages; both stay decoded and the
        // program still sees stores to a data page as plain data.
        let mut cpu = Cpu::new();
        let main = vec![
            addi(Reg::S1, Reg::ZERO, 5),
            Instr::Jal { rd: Reg::RA, offset: 0x1000 - 4 }, // call 0x2000
            Instr::Store { op: StoreOp::Sd, rs2: Reg::A0, rs1: Reg::T0, offset: 0 },
            addi(Reg::S1, Reg::S1, -1),
            Instr::Branch { op: BranchOp::Bne, rs1: Reg::S1, rs2: Reg::ZERO, offset: -12 },
            Instr::Load { op: LoadOp::Ld, rd: Reg::A0, rs1: Reg::T0, offset: 0 },
            addi(Reg::A7, Reg::ZERO, 93),
            Instr::Ecall,
        ];
        let callee = [bump_a0(3), Instr::Jalr { rd: Reg::ZERO, rs1: Reg::RA, offset: 0 }];
        load(&mut cpu, 0x2000, &callee);
        load(&mut cpu, 0x1000, &main);
        cpu.set_reg(Reg::T0, 0x3000);
        assert_eq!(cpu.run(100).unwrap(), 15);
        assert_eq!(cpu.memory.decoded_pages(), [0x1, 0x2]);
        assert_eq!(cpu.memory.mapped_pages(), 3);
    }

    #[test]
    fn faulting_fetches_decode_no_pages() {
        // Wild jumps to distinct unmapped pages, each followed by a return
        // to the one code page: only that page is ever decoded.
        let mut cpu = Cpu::new();
        let mut prog = vec![Instr::NOP];
        prog.extend(exit_seq());
        load(&mut cpu, 0x1000, &prog);
        for i in 0..64 {
            let wild = 0x40_0000 + i * 0x1000;
            cpu.set_pc(wild);
            assert_eq!(cpu.step(), Err(CpuError::FetchFault(wild)));
            cpu.set_pc(0x1000);
            assert!(matches!(cpu.step(), Ok(Event::Retired(_))));
        }
        assert_eq!(cpu.memory.mapped_pages(), 1);
        assert_eq!(cpu.memory.decoded_pages(), [0x1], "only the mapped code page is decoded");
        assert_eq!(cpu.run(100).unwrap(), 0);
    }

    #[test]
    fn retirements_carry_the_decoded_operand_facts() {
        let mut cpu = Cpu::new();
        let prog = [
            Instr::Op { op: OpOp::Mul, rd: Reg::A0, rs1: Reg::A1, rs2: Reg::A2 },
            Instr::Store { op: StoreOp::Sd, rs2: Reg::A0, rs1: Reg::SP, offset: 0 },
        ];
        load(&mut cpu, 0x1000, &prog);
        cpu.set_reg(Reg::SP, 0x2000);
        // Twice through each: once decoded, once from the slot.
        for _ in 0..2 {
            for instr in prog {
                let Ok(Event::Retired(retired)) = cpu.step() else {
                    panic!("{instr} did not retire");
                };
                assert_eq!(retired.instr, instr);
                assert_eq!(retired.facts, instr.operand_facts());
            }
            cpu.set_pc(0x1000);
        }
    }

    #[test]
    fn x0_stays_zero() {
        let mut cpu = Cpu::new();
        let mut prog = vec![
            addi(Reg::ZERO, Reg::ZERO, 5),
            addi(Reg::A0, Reg::ZERO, 0),
        ];
        prog.extend(exit_seq());
        load(&mut cpu, 0x1000, &prog);
        assert_eq!(cpu.run(100).unwrap(), 0);
    }
}
