//! The functional RV64IM core.

use std::ops::ControlFlow;

use riscv_isa::instr::{
    BranchOp, CsrOp, LoadOp, Op32Op, OpImm32Op, OpImmOp, OpOp, OperandFacts, StoreOp,
};
use riscv_isa::rocc::RoccInstruction;
use riscv_isa::{csr, Op, Reg};

use crate::coproc::{Coprocessor, NoCoprocessor, RoccCommand, RoccResponse};
use crate::memory::Slot;
use crate::{CpuError, Memory, Simulator, Timing};

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
    /// The decoded instruction, in the flat form the core executed.
    pub op: Op,
    /// `op`'s operand and latency facts, computed when it was decoded.
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
/// for host-level conditions that never trap (unknown syscalls, the
/// instruction budget and the memory bound — those are simulation-harness
/// concerns, not architecture).
fn trap_cause(error: &CpuError) -> Option<(u64, u64)> {
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
        CpuError::UnknownSyscall(_) | CpuError::InstructionLimit(_) | CpuError::MemoryLimit(_) => {
            None
        }
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
/// Every clock is a [`Timing`]. The functional core's own counts one
/// cycle per step: per retirement, delivered trap and exit. A timing
/// model (like `rocket-sim`) charges its own, and either count is copied
/// to [`Cpu::cycle`], so guest `rdcycle` reads observe modelled time.
///
/// The core fetches decoded instructions from [`Cpu::memory`], which
/// decodes each word once and keeps it until that page is written, so
/// self-modifying code and harness patches always execute as written.
/// [`Cpu::step`] executes one instruction and [`Cpu::run`] a decoded block
/// at a time, through the same executor.
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
    /// The cycle counter backing `rdcycle`: the count of the [`Timing`]
    /// that charges the steps, copied here before and after each step and
    /// as each block of a run starts. The functional core's clock starts
    /// from the value here.
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
    /// (unknown syscalls and [`CpuError::MemoryLimit`] never trap).
    ///
    /// `#[inline]` so that it compiles into its caller, as a timing
    /// model's `step` does: out of line, a functional step cost more than
    /// a Rocket step, and twice what it costs inlined.
    #[inline]
    pub fn step(&mut self) -> Result<Event, CpuError> {
        self.step_with(&mut StepClock { cycle: self.cycle })
    }

    /// [`Cpu::step`], charging the step to `timing`: the step of a timing
    /// model.
    ///
    /// # Errors
    ///
    /// See [`Cpu::step`].
    #[inline]
    pub fn step_with<T: Timing>(&mut self, timing: &mut T) -> Result<Event, CpuError> {
        self.sync(timing);
        let pc = self.pc;
        let executed = self.fetch(pc).and_then(|slot| self.exec(&slot, pc));
        let event = self.charge(pc, executed, timing, |event| event)?;
        self.sync(timing);
        Ok(event)
    }

    /// [`Simulator::run`] a block at a time, charging every step to
    /// `timing`: the run of a timing model.
    ///
    /// Each fetch starts a block (see [`Memory`]) and the core executes
    /// its ops from their decoded slots without fetching again. A block
    /// stops early after a store or RoCC command that wrote its own page,
    /// whose slots that write dropped, after a delivered trap, and where
    /// the budget runs out. Every step is the one [`Cpu::step_with`]
    /// would take, charged by the same `timing` calls, so the result, the
    /// architectural state and the model's counters equal stepping's.
    /// `timing`'s cycle count is copied to [`Cpu::cycle`] as each block
    /// starts, which is where every instruction that reads it stands, and
    /// when the run ends.
    ///
    /// # Errors
    ///
    /// See [`Simulator::run`].
    pub fn run_with<T: Timing>(
        &mut self,
        max_instructions: u64,
        timing: &mut T,
    ) -> Result<i64, CpuError> {
        let result = self.run_blocks(max_instructions, timing);
        self.sync(timing);
        result
    }

    /// [`Cpu::run_with`] but for the final cycle copy.
    #[inline(always)]
    fn run_blocks<T: Timing>(
        &mut self,
        max_instructions: u64,
        timing: &mut T,
    ) -> Result<i64, CpuError> {
        let mut left = max_instructions;
        while left > 0 {
            self.sync(timing);
            let entry = self.pc;
            let mut slot = match self.fetch(entry) {
                Ok(slot) => slot,
                Err(error) => {
                    left -= 1;
                    self.charge(entry, Err(error), timing, drop)?;
                    continue;
                }
            };
            let end = left - u64::from(slot.block).min(left);
            loop {
                let pc = self.pc;
                left -= 1;
                let executed = self.exec(&slot, pc);
                match self.charge(pc, executed, timing, |event| match event {
                    Event::Retired(_) => ControlFlow::Continue(()),
                    Event::Exited { code } => ControlFlow::Break(Some(code)),
                    Event::Trapped { .. } => ControlFlow::Break(None),
                })? {
                    ControlFlow::Continue(()) => {}
                    ControlFlow::Break(Some(code)) => return Ok(code),
                    ControlFlow::Break(None) => break,
                }
                if left == end {
                    break;
                }
                match self.memory.next_in_block(self.pc) {
                    Some(next) => slot = next,
                    None => break,
                }
            }
        }
        Err(CpuError::InstructionLimit(max_instructions))
    }

    /// Copies `timing`'s cycle count to [`Cpu::cycle`].
    #[inline(always)]
    fn sync<T: Timing>(&mut self, timing: &T) {
        self.cycle = timing.cycle();
    }

    /// Charges one step, the instruction at `pc`, to `timing` and hands
    /// its event to `then`: the one charge dispatch behind
    /// [`Cpu::step_with`] and [`Cpu::run_with`]. `executed` is what
    /// [`Cpu::exec`] returned, or the error the fetch raised. An error is
    /// delivered to the guest's handler and charged as a trap if it can
    /// be (see [`Cpu::step`]), else returned uncharged.
    ///
    /// The shape is for the run loop's speed, measured in-process against
    /// the loop that matched each case itself. A retirement is charged and
    /// handed to `then` on a path of its own, where its kind is known, so
    /// the loop's branch on it folds away; a three-way match here cost the
    /// run path about 5%, and matching the returned event again about 8%
    /// more.
    #[inline(always)]
    fn charge<T: Timing, R>(
        &mut self,
        pc: u64,
        executed: Result<Event, CpuError>,
        timing: &mut T,
        then: impl FnOnce(Event) -> R,
    ) -> Result<R, CpuError> {
        let event = match executed {
            Ok(Event::Retired(retired)) => {
                timing.retired(&retired);
                return Ok(then(Event::Retired(retired)));
            }
            Ok(event) => event,
            Err(error) => self.trap(pc, error)?,
        };
        if let Event::Exited { .. } = event {
            timing.exited();
        } else {
            timing.trapped();
        }
        Ok(then(event))
    }

    /// The decoded slot at `pc`.
    #[inline]
    fn fetch(&mut self, pc: u64) -> Result<Slot, CpuError> {
        if !pc.is_multiple_of(4) {
            return Err(CpuError::MisalignedPc(pc));
        }
        self.memory.fetch(pc)
    }

    /// Delivers `error`, raised by the instruction at `pc`, to the guest's
    /// trap handler if one is armed and the error is architectural; else
    /// returns it.
    fn trap(&mut self, pc: u64, error: CpuError) -> Result<Event, CpuError> {
        let mtvec = self.scratch_csrs.get(&csr::MTVEC).copied().unwrap_or(0);
        let Some((cause, tval)) = trap_cause(&error) else {
            return Err(error);
        };
        if mtvec == 0 {
            return Err(error);
        }
        // Precise trap: `exec` leaves no partial architectural state on
        // any error path, so mepc points at an instruction that can be
        // re-executed or skipped by the handler.
        self.scratch_csrs.insert(csr::MEPC, pc);
        self.scratch_csrs.insert(csr::MCAUSE, cause);
        self.scratch_csrs.insert(csr::MTVAL, tval);
        self.pc = mtvec & !0x3;
        self.trap_log.push(TrapRecord { cause, epc: pc, tval });
        Ok(Event::Trapped { cause, epc: pc })
    }

    /// Register `r`'s value (`r` is below 32; `x0` reads 0).
    #[inline(always)]
    fn x(&self, r: u8) -> u64 {
        self.regs[usize::from(r & 31)]
    }

    /// Writes register `rd` (`rd` is below 32), discarding writes to `x0`.
    #[inline(always)]
    fn write(&mut self, rd: u8, value: u64) {
        if rd != 0 {
            self.regs[usize::from(rd & 31)] = value;
        }
    }

    /// `rd = op(rs1, rs2)`.
    #[inline(always)]
    fn alu(&mut self, op: OpOp, rd: u8, rs1: u8, rs2: u8) {
        self.write(rd, op.eval(self.x(rs1), self.x(rs2)));
    }

    /// `rd = op(rs1, rs2)` on words.
    #[inline(always)]
    fn alu32(&mut self, op: Op32Op, rd: u8, rs1: u8, rs2: u8) {
        self.write(rd, op.eval(self.x(rs1), self.x(rs2)));
    }

    /// `rd = op(rs1, imm)`.
    #[inline(always)]
    fn alu_imm(&mut self, op: OpOp, rd: u8, rs1: u8, imm: i32) {
        self.write(rd, op.eval(self.x(rs1), imm as i64 as u64));
    }

    /// `rd = op(rs1, imm)` on words.
    #[inline(always)]
    fn alu_imm32(&mut self, op: Op32Op, rd: u8, rs1: u8, imm: i32) {
        self.write(rd, op.eval(self.x(rs1), imm as i64 as u64));
    }

    /// The pc after branch `op` at `pc`.
    #[inline(always)]
    fn branch(&self, op: BranchOp, rs1: u8, rs2: u8, pc: u64, offset: i32) -> u64 {
        if op.taken(self.x(rs1), self.x(rs2)) {
            pc.wrapping_add(offset as i64 as u64)
        } else {
            pc.wrapping_add(4)
        }
    }

    /// Load `op` into `rd` from `rs1 + offset`.
    #[inline(always)]
    fn load(&mut self, op: LoadOp, rd: u8, rs1: u8, offset: i32) -> Result<MemAccess, CpuError> {
        let addr = self.x(rs1).wrapping_add(offset as i64 as u64);
        let value = match op {
            LoadOp::Lb => self.memory.read_u8(addr)? as i8 as i64 as u64,
            LoadOp::Lbu => self.memory.read_u8(addr)?.into(),
            LoadOp::Lh => self.memory.read_u16(addr)? as i16 as i64 as u64,
            LoadOp::Lhu => self.memory.read_u16(addr)?.into(),
            LoadOp::Lw => self.memory.read_u32(addr)? as i32 as i64 as u64,
            LoadOp::Lwu => self.memory.read_u32(addr)?.into(),
            LoadOp::Ld => self.memory.read_u64(addr)?,
        };
        self.write(rd, value);
        Ok(MemAccess {
            addr,
            size: op.size(),
            store: false,
        })
    }

    /// Store `op` of `rs2` to `rs1 + offset`.
    #[inline(always)]
    fn store(
        &mut self,
        op: StoreOp,
        rs1: u8,
        rs2: u8,
        offset: i32,
    ) -> Result<MemAccess, CpuError> {
        let addr = self.x(rs1).wrapping_add(offset as i64 as u64);
        let value = self.x(rs2);
        match op {
            StoreOp::Sb => self.memory.write_u8(addr, value as u8)?,
            StoreOp::Sh => self.memory.write_u16(addr, value as u16)?,
            StoreOp::Sw => self.memory.write_u32(addr, value as u32)?,
            StoreOp::Sd => self.memory.write_u64(addr, value)?,
        }
        Ok(MemAccess {
            addr,
            size: op.size(),
            store: true,
        })
    }

    /// CSR `op` on CSR `number`, reading the old value into `rd`; `writes`
    /// is false for the forms that leave the CSR alone.
    fn csr(
        &mut self,
        op: CsrOp,
        rd: u8,
        number: u16,
        src: u64,
        writes: bool,
    ) -> Result<(), CpuError> {
        let old = self.read_csr(number)?;
        self.write_csr_op(op, number, old, src, writes)?;
        self.write(rd, old);
        Ok(())
    }

    /// Executes `slot`'s op, the instruction at `pc`: the one executor
    /// behind both [`Cpu::step_with`] and [`Cpu::run_with`]. What each
    /// integer op computes is [`riscv_isa::alu`]'s, called with the op
    /// fixed per arm. Returns [`Event::Retired`] or [`Event::Exited`]; on
    /// an error no architectural state has changed.
    #[inline(always)]
    fn exec(&mut self, slot: &Slot, pc: u64) -> Result<Event, CpuError> {
        let mut next = pc.wrapping_add(4);
        let mut mem = None;
        match slot.op {
            Op::Lui { rd, imm } => self.write(rd, imm as i64 as u64),
            Op::Auipc { rd, imm } => self.write(rd, pc.wrapping_add(imm as i64 as u64)),
            Op::Jal { rd, offset } => {
                self.write(rd, next);
                next = pc.wrapping_add(offset as i64 as u64);
            }
            Op::Jalr { rd, rs1, offset } => {
                let target = self.x(rs1).wrapping_add(offset as i64 as u64) & !1;
                self.write(rd, next);
                next = target;
            }
            Op::Beq { rs1, rs2, offset } => next = self.branch(BranchOp::Beq, rs1, rs2, pc, offset),
            Op::Bne { rs1, rs2, offset } => next = self.branch(BranchOp::Bne, rs1, rs2, pc, offset),
            Op::Blt { rs1, rs2, offset } => next = self.branch(BranchOp::Blt, rs1, rs2, pc, offset),
            Op::Bge { rs1, rs2, offset } => next = self.branch(BranchOp::Bge, rs1, rs2, pc, offset),
            Op::Bltu { rs1, rs2, offset } => {
                next = self.branch(BranchOp::Bltu, rs1, rs2, pc, offset);
            }
            Op::Bgeu { rs1, rs2, offset } => {
                next = self.branch(BranchOp::Bgeu, rs1, rs2, pc, offset);
            }
            Op::Lb { rd, rs1, offset } => mem = Some(self.load(LoadOp::Lb, rd, rs1, offset)?),
            Op::Lh { rd, rs1, offset } => mem = Some(self.load(LoadOp::Lh, rd, rs1, offset)?),
            Op::Lw { rd, rs1, offset } => mem = Some(self.load(LoadOp::Lw, rd, rs1, offset)?),
            Op::Ld { rd, rs1, offset } => mem = Some(self.load(LoadOp::Ld, rd, rs1, offset)?),
            Op::Lbu { rd, rs1, offset } => mem = Some(self.load(LoadOp::Lbu, rd, rs1, offset)?),
            Op::Lhu { rd, rs1, offset } => mem = Some(self.load(LoadOp::Lhu, rd, rs1, offset)?),
            Op::Lwu { rd, rs1, offset } => mem = Some(self.load(LoadOp::Lwu, rd, rs1, offset)?),
            Op::Sb { rs1, rs2, offset } => mem = Some(self.store(StoreOp::Sb, rs1, rs2, offset)?),
            Op::Sh { rs1, rs2, offset } => mem = Some(self.store(StoreOp::Sh, rs1, rs2, offset)?),
            Op::Sw { rs1, rs2, offset } => mem = Some(self.store(StoreOp::Sw, rs1, rs2, offset)?),
            Op::Sd { rs1, rs2, offset } => mem = Some(self.store(StoreOp::Sd, rs1, rs2, offset)?),
            Op::Addi { rd, rs1, imm } => self.alu_imm(OpImmOp::Addi.alu_op(), rd, rs1, imm),
            Op::Slti { rd, rs1, imm } => self.alu_imm(OpImmOp::Slti.alu_op(), rd, rs1, imm),
            Op::Sltiu { rd, rs1, imm } => self.alu_imm(OpImmOp::Sltiu.alu_op(), rd, rs1, imm),
            Op::Xori { rd, rs1, imm } => self.alu_imm(OpImmOp::Xori.alu_op(), rd, rs1, imm),
            Op::Ori { rd, rs1, imm } => self.alu_imm(OpImmOp::Ori.alu_op(), rd, rs1, imm),
            Op::Andi { rd, rs1, imm } => self.alu_imm(OpImmOp::Andi.alu_op(), rd, rs1, imm),
            Op::Slli { rd, rs1, imm } => self.alu_imm(OpImmOp::Slli.alu_op(), rd, rs1, imm),
            Op::Srli { rd, rs1, imm } => self.alu_imm(OpImmOp::Srli.alu_op(), rd, rs1, imm),
            Op::Srai { rd, rs1, imm } => self.alu_imm(OpImmOp::Srai.alu_op(), rd, rs1, imm),
            Op::Addiw { rd, rs1, imm } => self.alu_imm32(OpImm32Op::Addiw.alu_op(), rd, rs1, imm),
            Op::Slliw { rd, rs1, imm } => self.alu_imm32(OpImm32Op::Slliw.alu_op(), rd, rs1, imm),
            Op::Srliw { rd, rs1, imm } => self.alu_imm32(OpImm32Op::Srliw.alu_op(), rd, rs1, imm),
            Op::Sraiw { rd, rs1, imm } => self.alu_imm32(OpImm32Op::Sraiw.alu_op(), rd, rs1, imm),
            Op::Add { rd, rs1, rs2 } => self.alu(OpOp::Add, rd, rs1, rs2),
            Op::Sub { rd, rs1, rs2 } => self.alu(OpOp::Sub, rd, rs1, rs2),
            Op::Sll { rd, rs1, rs2 } => self.alu(OpOp::Sll, rd, rs1, rs2),
            Op::Slt { rd, rs1, rs2 } => self.alu(OpOp::Slt, rd, rs1, rs2),
            Op::Sltu { rd, rs1, rs2 } => self.alu(OpOp::Sltu, rd, rs1, rs2),
            Op::Xor { rd, rs1, rs2 } => self.alu(OpOp::Xor, rd, rs1, rs2),
            Op::Srl { rd, rs1, rs2 } => self.alu(OpOp::Srl, rd, rs1, rs2),
            Op::Sra { rd, rs1, rs2 } => self.alu(OpOp::Sra, rd, rs1, rs2),
            Op::Or { rd, rs1, rs2 } => self.alu(OpOp::Or, rd, rs1, rs2),
            Op::And { rd, rs1, rs2 } => self.alu(OpOp::And, rd, rs1, rs2),
            Op::Mul { rd, rs1, rs2 } => self.alu(OpOp::Mul, rd, rs1, rs2),
            Op::Mulh { rd, rs1, rs2 } => self.alu(OpOp::Mulh, rd, rs1, rs2),
            Op::Mulhsu { rd, rs1, rs2 } => self.alu(OpOp::Mulhsu, rd, rs1, rs2),
            Op::Mulhu { rd, rs1, rs2 } => self.alu(OpOp::Mulhu, rd, rs1, rs2),
            Op::Div { rd, rs1, rs2 } => self.alu(OpOp::Div, rd, rs1, rs2),
            Op::Divu { rd, rs1, rs2 } => self.alu(OpOp::Divu, rd, rs1, rs2),
            Op::Rem { rd, rs1, rs2 } => self.alu(OpOp::Rem, rd, rs1, rs2),
            Op::Remu { rd, rs1, rs2 } => self.alu(OpOp::Remu, rd, rs1, rs2),
            Op::Addw { rd, rs1, rs2 } => self.alu32(Op32Op::Addw, rd, rs1, rs2),
            Op::Subw { rd, rs1, rs2 } => self.alu32(Op32Op::Subw, rd, rs1, rs2),
            Op::Sllw { rd, rs1, rs2 } => self.alu32(Op32Op::Sllw, rd, rs1, rs2),
            Op::Srlw { rd, rs1, rs2 } => self.alu32(Op32Op::Srlw, rd, rs1, rs2),
            Op::Sraw { rd, rs1, rs2 } => self.alu32(Op32Op::Sraw, rd, rs1, rs2),
            Op::Mulw { rd, rs1, rs2 } => self.alu32(Op32Op::Mulw, rd, rs1, rs2),
            Op::Divw { rd, rs1, rs2 } => self.alu32(Op32Op::Divw, rd, rs1, rs2),
            Op::Divuw { rd, rs1, rs2 } => self.alu32(Op32Op::Divuw, rd, rs1, rs2),
            Op::Remw { rd, rs1, rs2 } => self.alu32(Op32Op::Remw, rd, rs1, rs2),
            Op::Remuw { rd, rs1, rs2 } => self.alu32(Op32Op::Remuw, rd, rs1, rs2),
            Op::Fence => {}
            Op::Ebreak => return Err(CpuError::Breakpoint(pc)),
            Op::Mret => {
                next = self.scratch_csrs.get(&csr::MEPC).copied().unwrap_or(0);
            }
            Op::Ecall => {
                let nr = self.reg(Reg::A7);
                match nr {
                    syscall::EXIT => {
                        self.instret += 1;
                        return Ok(Event::Exited { code: self.reg(Reg::A0) as i64 });
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
            Op::Csrrw { rd, rs1, csr } => self.csr(CsrOp::Csrrw, rd, csr, self.x(rs1), rs1 != 0)?,
            Op::Csrrs { rd, rs1, csr } => self.csr(CsrOp::Csrrs, rd, csr, self.x(rs1), rs1 != 0)?,
            Op::Csrrc { rd, rs1, csr } => self.csr(CsrOp::Csrrc, rd, csr, self.x(rs1), rs1 != 0)?,
            Op::Csrrwi { rd, imm, csr } => self.csr(CsrOp::Csrrw, rd, csr, imm.into(), imm != 0)?,
            Op::Csrrsi { rd, imm, csr } => self.csr(CsrOp::Csrrs, rd, csr, imm.into(), imm != 0)?,
            Op::Csrrci { rd, imm, csr } => self.csr(CsrOp::Csrrc, rd, csr, imm.into(), imm != 0)?,
            Op::Custom(rocc_instr) => {
                let response = self.rocc(rocc_instr)?;
                return Ok(self.retire(slot, pc, next, None, Some(response)));
            }
        }
        Ok(self.retire(slot, pc, next, mem, None))
    }

    /// Retires `slot`'s op at `pc`: moves to `next` and counts it.
    ///
    /// The RoCC arm retires on its own. `rocc`'s tag also encodes which
    /// [`Event`] variant a value is, so every other op's retirement then
    /// carries a constant there and the charge that follows knows the
    /// kind on the common path; with one shared tail the run path was
    /// about 15% slower.
    #[inline(always)]
    fn retire(
        &mut self,
        slot: &Slot,
        pc: u64,
        next: u64,
        mem_access: Option<MemAccess>,
        rocc: Option<RoccResponse>,
    ) -> Event {
        self.pc = next;
        self.instret += 1;
        Event::Retired(Retired {
            pc,
            op: slot.op,
            facts: slot.facts,
            next_pc: next,
            mem_access,
            rocc,
        })
    }

    /// Sends custom instruction `rocc_instr` to the coprocessor and writes
    /// its response to `rd` if `xd` is set. Out of line: one in thirteen
    /// of the busiest guest's instructions is a command, and the
    /// accelerator's own work dwarfs a call.
    #[inline(never)]
    fn rocc(&mut self, rocc_instr: RoccInstruction) -> Result<RoccResponse, CpuError> {
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
            // The response will never arrive (or not within the bound):
            // abort the handshake instead of hanging the core, and tell
            // the accelerator so it can recover.
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
        Ok(resp)
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

    /// Runs until exit or `max_instructions` steps, a block at a time;
    /// [`Simulator::run`] without the trait in scope.
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

    fn run(&mut self, max_instructions: u64) -> Result<i64, CpuError> {
        self.run_with(max_instructions, &mut StepClock { cycle: self.cycle })
    }
}

/// The functional core's clock: one cycle per step, a retirement, a
/// delivered trap or the exit.
struct StepClock {
    cycle: u64,
}

impl Timing for StepClock {
    #[inline(always)]
    fn cycle(&self) -> u64 {
        self.cycle
    }

    #[inline(always)]
    fn retired(&mut self, _: &Retired) {
        self.cycle += 1;
    }

    #[inline(always)]
    fn trapped(&mut self) {
        self.cycle += 1;
    }

    #[inline(always)]
    fn exited(&mut self) {
        self.cycle += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::instr::{BranchOp, OpImm32Op, OpImmOp, OpOp};
    use riscv_isa::Instr;

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
        let mut prog = vec![
            addi(Reg::A0, Reg::ZERO, 7),
            addi(Reg::A7, Reg::ZERO, 0x700),
            Instr::Ecall,
        ];
        prog.extend(exit_seq());
        // Run, and stepped: the functional clock counts one cycle per
        // step either way, so the marker reads the two steps before it
        // and the exit leaves five.
        for run in [true, false] {
            let mut cpu = Cpu::new();
            load(&mut cpu, 0x1000, &prog);
            if run {
                cpu.run(100).unwrap();
            } else {
                assert_eq!(step_k(&mut cpu, 100, Cpu::step), Ok(7));
            }
            assert_eq!(cpu.markers, [Marker { id: 7, cycle: 2, instret: 2 }], "run {run}");
            assert_eq!((cpu.cycle, cpu.instret), (5, 5), "run {run}");
        }
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
        // The functional clock starts from `Cpu::cycle`.
        cpu.reset();
        cpu.cycle = 1000;
        cpu.set_pc(0x1000);
        assert_eq!(cpu.run(100).unwrap(), 1002);
        assert_eq!(cpu.cycle, 1005);
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
        assert_eq!(cpu.memory.pages().count(), 3);
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
        assert_eq!(cpu.memory.pages().count(), 1);
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
                assert_eq!(retired.op, Op::from(instr));
                assert_eq!(retired.facts, instr.operand_facts());
            }
            cpu.set_pc(0x1000);
        }
    }

    /// Every flat op does what its family op computes in `riscv_isa::alu`,
    /// with the operands, immediates and widths of its `Instr`.
    #[test]
    fn every_op_computes_what_its_family_op_does() {
        use riscv_isa::instr::Op32Op;
        let (rd, rs1, rs2) = (Reg::A0, Reg::A1, Reg::A2);
        let one = |instr: Instr, a: u64, b: u64| {
            let mut cpu = Cpu::new();
            cpu.set_reg(rs1, a);
            cpu.set_reg(rs2, b);
            cpu.memory.write_u64(0x2000, 0x8081_8283_8485_8687).unwrap();
            load(&mut cpu, 0x1000, &[instr]);
            cpu.step().unwrap();
            cpu
        };
        let operands = [
            (0, 0),
            (5, 3),
            (u64::MAX, 1),
            (i64::MIN as u64, u64::MAX),
            (0x1234_5678_9ABC_DEF0, 0xFEDC_BA98_7654_3210),
            (7, 64 + 3),
        ];
        for (a, b) in operands {
            for (op, ..) in OpOp::TABLE {
                let cpu = one(Instr::Op { op, rd, rs1, rs2 }, a, b);
                assert_eq!(cpu.reg(rd), op.eval(a, b), "{op:?}({a:#x}, {b:#x})");
            }
            for (op, ..) in Op32Op::TABLE {
                let cpu = one(Instr::Op32 { op, rd, rs1, rs2 }, a, b);
                assert_eq!(cpu.reg(rd), op.eval(a, b), "{op:?}({a:#x}, {b:#x})");
            }
            for (op, ..) in BranchOp::TABLE {
                let cpu = one(Instr::Branch { op, rs1, rs2, offset: -16 }, a, b);
                let next = if op.taken(a, b) { 0x0FF0 } else { 0x1004 };
                assert_eq!(cpu.pc(), next, "{op:?}({a:#x}, {b:#x})");
            }
            for (op, _, _, shift) in OpImmOp::TABLE {
                let imms: &[i32] = match shift {
                    Some(_) => &[0, 1, 31, 63],
                    None => &[-2048, -1, 0, 7, 2047],
                };
                for &imm in imms {
                    let cpu = one(Instr::OpImm { op, rd, rs1, imm }, a, b);
                    let expected = op.alu_op().eval(a, imm as i64 as u64);
                    assert_eq!(cpu.reg(rd), expected, "{op:?}({a:#x}, {imm})");
                }
            }
            for (op, _, _, shift) in OpImm32Op::TABLE {
                let imms: &[i32] = match shift {
                    Some(_) => &[0, 1, 31],
                    None => &[-2048, -1, 0, 7, 2047],
                };
                for &imm in imms {
                    let cpu = one(Instr::OpImm32 { op, rd, rs1, imm }, a, b);
                    let expected = op.alu_op().eval(a, imm as i64 as u64);
                    assert_eq!(cpu.reg(rd), expected, "{op:?}({a:#x}, {imm})");
                }
            }
            for (op, ..) in StoreOp::TABLE {
                let cpu = one(Instr::Store { op, rs2, rs1, offset: 8 }, 0x3000, b);
                let mask = u64::MAX >> (64 - 8 * op.size());
                assert_eq!(cpu.memory.read_u64(0x3008), Ok(b & mask), "{op:?}({b:#x})");
            }
        }
        for (op, expected) in [
            (LoadOp::Lb, 0xFFFF_FFFF_FFFF_FF87),
            (LoadOp::Lh, 0xFFFF_FFFF_FFFF_8687),
            (LoadOp::Lw, 0xFFFF_FFFF_8485_8687),
            (LoadOp::Ld, 0x8081_8283_8485_8687),
            (LoadOp::Lbu, 0x87),
            (LoadOp::Lhu, 0x8687),
            (LoadOp::Lwu, 0x8485_8687),
        ] {
            let cpu = one(Instr::Load { op, rd, rs1, offset: -8 }, 0x2008, 0);
            assert_eq!(cpu.reg(rd), expected, "{op:?}");
        }
        let lui = one(Instr::Lui { rd, imm20: -1 }, 0, 0);
        assert_eq!(lui.reg(rd), (-4096i64) as u64);
        let auipc = one(Instr::Auipc { rd, imm20: 0x80000 }, 0, 0);
        assert_eq!(auipc.reg(rd), 0x1000u64.wrapping_add(0xFFFF_FFFF_8000_0000));
        let jal = one(Instr::Jal { rd, offset: -0x1000 }, 0, 0);
        assert_eq!((jal.pc(), jal.reg(rd)), (0, 0x1004));
        let jalr = one(Instr::Jalr { rd, rs1, offset: -3 }, 0x2005, 0);
        assert_eq!((jalr.pc(), jalr.reg(rd)), (0x2002, 0x1004));
    }

    /// A timing model that logs every charge and keeps a cycle count of
    /// its own, so two runs can be compared charge by charge.
    #[derive(Debug, Default, PartialEq)]
    struct ChargeLog {
        cycles: u64,
        charges: Vec<(char, u64)>,
    }

    impl Timing for ChargeLog {
        fn cycle(&self) -> u64 {
            self.cycles
        }
        fn retired(&mut self, retired: &Retired) {
            self.cycles += 3;
            self.charges.push(('r', retired.pc));
        }
        fn trapped(&mut self) {
            self.cycles += 5;
            self.charges.push(('t', 0));
        }
        fn exited(&mut self) {
            self.cycles += 1;
            self.charges.push(('x', 0));
        }
    }

    /// Everything a run leaves in the core.
    fn state(cpu: &Cpu) -> (u64, [u64; 32], u64, u64, Vec<TrapRecord>, Vec<Marker>) {
        (
            cpu.pc(),
            cpu.registers(),
            cpu.cycle,
            cpu.instret,
            cpu.trap_log.clone(),
            cpu.markers.clone(),
        )
    }

    /// `k` calls of `step`, as [`Simulator::run`]'s result.
    fn step_k(
        cpu: &mut Cpu,
        k: u64,
        mut step: impl FnMut(&mut Cpu) -> Result<Event, CpuError>,
    ) -> Result<i64, CpuError> {
        for _ in 0..k {
            if let Event::Exited { code } = step(cpu)? {
                return Ok(code);
            }
        }
        Err(CpuError::InstructionLimit(k))
    }

    /// A block that faults on a load in its middle, then a word that does
    /// not decode, then a cycle-count read; with `armed` the handler skips
    /// each faulting instruction and returns.
    fn faulting_block(armed: bool) -> Cpu {
        let mut cpu = Cpu::new();
        let main = [
            Instr::Csr { op: CsrOp::Csrrw, rd: Reg::ZERO, csr: csr::MTVEC, rs1: Reg::T0 },
            addi(Reg::A0, Reg::ZERO, 1),
            addi(Reg::A1, Reg::ZERO, 2),
            Instr::Load { op: LoadOp::Ld, rd: Reg::A2, rs1: Reg::T1, offset: 8 },
            addi(Reg::A0, Reg::A0, 3),
            Instr::NOP, // overwritten with a word that does not decode
            Instr::Csr { op: CsrOp::Csrrs, rd: Reg::A4, csr: csr::CYCLE, rs1: Reg::ZERO },
            addi(Reg::A0, Reg::A0, 0),
            addi(Reg::A7, Reg::ZERO, 93),
            Instr::Ecall,
        ];
        let handler = [
            addi(Reg::A3, Reg::ZERO, 7),
            Instr::Csr { op: CsrOp::Csrrs, rd: Reg::T2, csr: csr::MEPC, rs1: Reg::ZERO },
            addi(Reg::T2, Reg::T2, 4),
            Instr::Csr { op: CsrOp::Csrrw, rd: Reg::ZERO, csr: csr::MEPC, rs1: Reg::T2 },
            Instr::Mret,
        ];
        load(&mut cpu, 0x2000, &handler);
        load(&mut cpu, 0x1000, &main);
        cpu.memory.write_u32(0x1014, 0xFFFF_FFFF).unwrap();
        cpu.set_reg(Reg::T0, if armed { 0x2000 } else { 0 });
        cpu.set_reg(Reg::T1, 0x9000);
        cpu
    }

    #[test]
    fn every_budget_stops_run_where_stepping_stops() {
        for armed in [false, true] {
            let full = if armed { 20 } else { 4 };
            for k in 0..=full + 2 {
                // Every step is one cycle of the functional clock: each of
                // the `k` steps of a cut run, the 20 steps to the exit, and
                // the three retirements before the unarmed fault, which is
                // not charged.
                let (expected, cycles) = match (armed, k) {
                    (false, 4..) => (Err(CpuError::UnmappedAddress(0x9008)), 3),
                    (true, 20..) => (Ok(4), 20),
                    _ => (Err(CpuError::InstructionLimit(k)), k),
                };
                // The functional core's own clock.
                let mut ran = faulting_block(armed);
                let mut stepped = faulting_block(armed);
                let result = ran.run(k);
                assert_eq!(result, expected, "armed {armed}, k {k}");
                assert_eq!(ran.cycle, cycles, "armed {armed}, k {k}");
                assert_eq!(result, step_k(&mut stepped, k, Cpu::step), "armed {armed}, k {k}");
                assert_eq!(state(&ran), state(&stepped), "armed {armed}, k {k}");
                // A timing model's clock, charge by charge.
                let (mut ran, mut ran_log) = (faulting_block(armed), ChargeLog::default());
                let (mut stepped, mut stepped_log) = (faulting_block(armed), ChargeLog::default());
                let timed = ran.run_with(k, &mut ran_log);
                assert_eq!(timed, result, "armed {armed}, k {k}");
                let stepped_timed = step_k(&mut stepped, k, |cpu| cpu.step_with(&mut stepped_log));
                assert_eq!(timed, stepped_timed, "armed {armed}, k {k}");
                assert_eq!(state(&ran), state(&stepped), "armed {armed}, k {k}");
                assert_eq!(ran_log, stepped_log, "armed {armed}, k {k}");
            }
        }
        // Armed, the load and the word each trap once, and `rdcycle` reads
        // the model's count at the start of its own block: 14 retirements
        // and the two traps.
        let mut cpu = faulting_block(true);
        let mut log = ChargeLog::default();
        assert_eq!(cpu.run_with(100, &mut log), Ok(4));
        let causes = cpu.trap_log.iter().map(|trap| (trap.cause, trap.epc));
        let expected = [
            (riscv_isa::csr::cause::LOAD_FAULT, 0x100C),
            (riscv_isa::csr::cause::ILLEGAL_INSTRUCTION, 0x1014),
        ];
        assert!(causes.eq(expected), "{:?}", cpu.trap_log);
        assert_eq!(cpu.reg(Reg::A3), 7);
        assert_eq!(cpu.reg(Reg::A4), 3 * 14 + 5 * 2);
        // On the functional clock the same read counts the 16 steps before
        // it, run or stepped.
        let mut ran = faulting_block(true);
        let mut stepped = faulting_block(true);
        assert_eq!(ran.run(100), Ok(4));
        assert_eq!(step_k(&mut stepped, 100, Cpu::step), Ok(4));
        assert_eq!((ran.reg(Reg::A4), stepped.reg(Reg::A4)), (16, 16));
    }

    #[test]
    fn an_event_is_at_most_80_bytes() {
        // Every step returns one; it is copied out of `exec` and the
        // charge on both paths.
        assert!(std::mem::size_of::<Event>() <= 80, "{}", std::mem::size_of::<Event>());
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
