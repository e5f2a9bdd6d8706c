//! The lockstep comparator: defines the canonical retirement record two
//! simulators must agree on, steps two simulators through the same program,
//! compares their retirement streams, and reports the first divergence with
//! full context.

use riscv_isa::instr::Instr;
use riscv_isa::{csr, Op, Reg};
use riscv_sim::{Cpu, CpuError, Event, MemAccess, Memory, Retired, Simulator};

/// Default number of pre-divergence retirements kept as context.
pub const DEFAULT_CONTEXT: usize = 8;

/// A data-memory effect of one retired instruction, with the transferred
/// value — unlike [`MemAccess`] (which the cache models consume and which
/// only carries the address), this is the architectural view the
/// differential checker compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemEffect {
    /// Effective address.
    pub addr: u64,
    /// Access size in bytes.
    pub size: u64,
    /// True for stores.
    pub store: bool,
    /// The value now held at `addr` (the stored value for stores, the raw
    /// bytes that were loaded for loads), zero-extended to 64 bits.
    pub value: u64,
}

/// The canonical record of one retired instruction: the architectural
/// effects every simulator must agree on, independent of its timing model.
///
/// Records are identical across the functional, Rocket-like and atomic
/// simulators for the same program, with one documented exception: the
/// destination value of a `rdcycle`/`rdtime` CSR read reflects each timing
/// model's own cycle count ([`canonical`] masks it). `rdinstret` values are
/// identical everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetirementRecord {
    /// Retirement sequence number (the value of `instret` after this
    /// instruction, i.e. 1 for the first retirement).
    pub seq: u64,
    /// Address of the retired instruction.
    pub pc: u64,
    /// The decoded instruction, in the flat form the simulators execute.
    pub op: Op,
    /// Address of the next instruction to execute.
    pub next_pc: u64,
    /// Destination-register writeback, if any: `(register, value after)`.
    pub rd_write: Option<(Reg, u64)>,
    /// Data-memory effect, if any.
    pub mem: Option<MemEffect>,
    /// The accelerator's `rd` value, if the instruction was a RoCC command
    /// with `xd` set. Timing fields of the response (busy cycles, memory
    /// traffic) are deliberately excluded — they are not architectural.
    pub rocc_rd: Option<u64>,
}

impl MemEffect {
    /// The effect of `access`, read back from `memory` after the access's
    /// step: the value now held at its address.
    #[inline]
    fn after(memory: &Memory, access: MemAccess) -> MemEffect {
        MemEffect {
            addr: access.addr,
            size: access.size,
            store: access.store,
            value: read_sized(memory, access.addr, access.size),
        }
    }
}

impl RetirementRecord {
    /// Builds the canonical record for `retired`, reading the post-step
    /// architectural state out of `cpu`. Must be called after the step that
    /// produced `retired` and before the next one.
    #[inline]
    #[must_use]
    pub fn capture(cpu: &Cpu, retired: &Retired) -> RetirementRecord {
        let mem = retired
            .mem_access
            .map(|access| MemEffect::after(&cpu.memory, access));
        RetirementRecord {
            seq: cpu.instret,
            pc: retired.pc,
            op: retired.op,
            next_pc: retired.next_pc,
            rd_write: retired.facts.dest().map(|reg| (reg, cpu.reg(reg))),
            mem,
            rocc_rd: retired.rocc.and_then(|resp| resp.rd_value),
        }
    }
}

impl std::fmt::Display for RetirementRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{:<6} {:#010x}  {}", self.seq, self.pc, Instr::from(self.op))?;
        if let Some((reg, value)) = self.rd_write {
            write!(f, "  {reg} <- {value:#x}")?;
        }
        if let Some(mem) = self.mem {
            let dir = if mem.store { "<-" } else { "->" };
            write!(f, "  [{:#x}] {dir} {:#x}", mem.addr, mem.value)?;
        }
        if let Some(rocc_rd) = self.rocc_rd {
            write!(f, "  rocc {rocc_rd:#x}")?;
        }
        Ok(())
    }
}

/// Reads `size` bytes at `addr` zero-extended to 64 bits; the access was
/// just performed by the instruction being recorded, so faults cannot occur.
fn read_sized(memory: &Memory, addr: u64, size: u64) -> u64 {
    let value = match size {
        1 => memory.read_u8(addr).map(u64::from),
        2 => memory.read_u16(addr).map(u64::from),
        4 => memory.read_u32(addr).map(u64::from),
        _ => memory.read_u64(addr),
    };
    value.unwrap_or(0)
}

/// What one simulator did at one lockstep position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction retired.
    Retired(RetirementRecord),
    /// The program exited.
    Exited {
        /// The exit code.
        code: i64,
    },
    /// A fault was delivered to the guest's `mtvec` handler instead of
    /// killing the run.
    Trapped {
        /// The `mcause` value written.
        cause: u64,
        /// The `mepc` value written (the faulting pc).
        epc: u64,
    },
    /// The step faulted.
    Fault(CpuError),
}

impl std::fmt::Display for StepOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepOutcome::Retired(record) => write!(f, "{record}"),
            StepOutcome::Exited { code } => write!(f, "exited with code {code}"),
            StepOutcome::Trapped { cause, epc } => {
                write!(f, "trapped to handler (mcause={cause}, mepc={epc:#x})")
            }
            StepOutcome::Fault(error) => write!(f, "fault: {error}"),
        }
    }
}

/// One differing register between the two final (or divergence-time)
/// register files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegDelta {
    /// The register.
    pub reg: Reg,
    /// Its value on the first simulator.
    pub a_value: u64,
    /// Its value on the second simulator.
    pub b_value: u64,
}

/// A full divergence report: where the streams split, what each side did,
/// how the register files differ, and the shared history leading up to it.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Lockstep position (0-based count of retirements before this one).
    pub step: u64,
    /// Address of the divergent retirement (the first simulator's if it
    /// retired, otherwise the second's, otherwise the first's current pc).
    pub pc: u64,
    /// Label of the first simulator.
    pub a_label: &'static str,
    /// Label of the second simulator.
    pub b_label: &'static str,
    /// What the first simulator did.
    pub a: StepOutcome,
    /// What the second simulator did.
    pub b: StepOutcome,
    /// Registers whose post-step values differ.
    pub reg_delta: Vec<RegDelta>,
    /// Memory effects, when the two sides' differ: `(first, second)`.
    pub mem_delta: Option<(Option<MemEffect>, Option<MemEffect>)>,
    /// The last retirements before the divergence — identical on both sides
    /// by construction, so one copy suffices.
    pub context: Vec<RetirementRecord>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "lockstep divergence at retirement #{} (pc {:#x}) between `{}` and `{}`:",
            self.step, self.pc, self.a_label, self.b_label
        )?;
        writeln!(f, "  {:<12} {}", self.a_label, self.a)?;
        writeln!(f, "  {:<12} {}", self.b_label, self.b)?;
        if !self.reg_delta.is_empty() {
            writeln!(f, "  register delta:")?;
            for delta in &self.reg_delta {
                writeln!(
                    f,
                    "    {:<5} {} {:#x} | {} {:#x}",
                    delta.reg.to_string(),
                    self.a_label,
                    delta.a_value,
                    self.b_label,
                    delta.b_value
                )?;
            }
        }
        if let Some((a_mem, b_mem)) = &self.mem_delta {
            writeln!(
                f,
                "  memory delta: {} {:?} | {} {:?}",
                self.a_label, a_mem, self.b_label, b_mem
            )?;
        }
        if !self.context.is_empty() {
            writeln!(f, "  last {} retirements before divergence:", self.context.len())?;
            for record in &self.context {
                writeln!(f, "    {record}")?;
            }
        }
        Ok(())
    }
}

/// Why an agreeing lockstep run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// Both programs exited with this code.
    Exited(i64),
    /// Both simulators faulted identically — architectural agreement.
    MatchingFault(CpuError),
    /// The step budget ran out with the streams still matching.
    BudgetExhausted,
}

/// The result of a lockstep run.
#[derive(Debug, Clone)]
pub enum LockstepOutcome {
    /// The retirement streams and, when both programs exited, the final
    /// state (registers, console output, markers) matched.
    Agreement {
        /// Instructions retired in lockstep.
        instructions: u64,
        /// How the run ended.
        termination: Termination,
    },
    /// The streams split; here is where and how.
    Divergence(Box<Divergence>),
}

impl LockstepOutcome {
    /// True if the run agreed to completion.
    #[must_use]
    pub fn is_agreement(&self) -> bool {
        matches!(self, LockstepOutcome::Agreement { .. })
    }

    /// The divergence report, if the run diverged.
    #[must_use]
    pub fn divergence(&self) -> Option<&Divergence> {
        match self {
            LockstepOutcome::Agreement { .. } => None,
            LockstepOutcome::Divergence(divergence) => Some(divergence),
        }
    }
}

/// Knobs for a lockstep run.
#[derive(Debug, Clone, Copy)]
pub struct LockstepOptions {
    /// Step budget before giving up with [`Termination::BudgetExhausted`].
    pub max_instructions: u64,
    /// Pre-divergence retirements to keep as context.
    pub context: usize,
}

impl Default for LockstepOptions {
    fn default() -> Self {
        LockstepOptions {
            max_instructions: 2_000_000,
            context: DEFAULT_CONTEXT,
        }
    }
}

/// True if `op` reads the cycle/time counter — the one value that
/// legitimately differs across timing models.
fn is_cycle_read(op: &Op) -> bool {
    use Op::*;
    match *op {
        Csrrw { csr: n, .. } | Csrrs { csr: n, .. } | Csrrc { csr: n, .. }
        | Csrrwi { csr: n, .. } | Csrrsi { csr: n, .. } | Csrrci { csr: n, .. } => {
            matches!(n, csr::CYCLE | csr::TIME)
        }
        _ => false,
    }
}

/// The comparable value of a destination write by `op`: zero for a
/// cycle/time read, `value` for everything else.
fn masked_rd_value(op: &Op, value: u64) -> u64 {
    if is_cycle_read(op) {
        0
    } else {
        value
    }
}

/// Canonicalizes a record for comparison: the destination value of a
/// `rdcycle`/`rdtime` read is each timing model's own cycle count, which
/// legitimately differs across simulators, so it is masked to zero.
/// `rdinstret` is identical everywhere and stays comparable.
///
/// Masking covers the read itself; values *derived* from a cycle read by
/// later arithmetic are not tracked and will be reported as divergences.
/// The evaluation guests never compute on cycle values (they delimit
/// measurement regions with the `mark` syscall), and the fuzzer clears a
/// register immediately after reading `rdcycle` into it.
#[must_use]
pub fn canonical(mut record: RetirementRecord) -> RetirementRecord {
    if let Some((reg, value)) = record.rd_write {
        record.rd_write = Some((reg, masked_rd_value(&record.op, value)));
    }
    record
}

/// True if `canonical(RetirementRecord::capture(cpu, retired))` would equal
/// `record`, checked field by field without building it. `record` is the
/// other simulator's canonical record of the same lockstep step.
///
/// The pattern names every field of [`RetirementRecord`], so a field added
/// there does not compile here until it is compared; each field is read
/// from `cpu` and `retired` the way `capture` reads it.
#[inline]
fn agrees(record: &RetirementRecord, cpu: &Cpu, retired: &Retired) -> bool {
    let RetirementRecord {
        seq,
        pc,
        op,
        next_pc,
        rd_write,
        mem,
        rocc_rd,
    } = *record;
    seq == cpu.instret
        && pc == retired.pc
        && next_pc == retired.next_pc
        && op == retired.op
        // Equal ops write the same destination register, if any.
        && rd_write.is_none_or(|(reg, value)| masked_rd_value(&op, cpu.reg(reg)) == value)
        && mem == retired.mem_access.map(|access| MemEffect::after(&cpu.memory, access))
        && rocc_rd == retired.rocc.and_then(|response| response.rd_value)
}

/// The last `capacity` records pushed. The buffer grows to at most
/// `capacity` entries, then each push overwrites the oldest.
struct ContextRing {
    records: Vec<RetirementRecord>,
    capacity: usize,
    /// Index of the oldest record once the buffer is full.
    oldest: usize,
}

impl ContextRing {
    fn new(capacity: usize) -> Self {
        ContextRing {
            records: Vec::new(),
            capacity,
            oldest: 0,
        }
    }

    #[inline]
    fn push(&mut self, record: RetirementRecord) {
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else if self.capacity > 0 {
            self.records[self.oldest] = record;
            self.oldest += 1;
            if self.oldest == self.capacity {
                self.oldest = 0;
            }
        }
    }

    /// The records, oldest first.
    fn to_vec(&self) -> Vec<RetirementRecord> {
        let (newer, older) = self.records.split_at(self.oldest);
        older.iter().chain(newer).copied().collect()
    }
}

fn register_delta(a: &Cpu, b: &Cpu) -> Vec<RegDelta> {
    let (ra, rb) = (a.registers(), b.registers());
    (0..32)
        .filter(|&i| ra[i] != rb[i])
        .map(|i| RegDelta {
            reg: Reg::new(i as u8),
            a_value: ra[i],
            b_value: rb[i],
        })
        .collect()
}

fn outcome_of(result: Result<Event, CpuError>, cpu: &Cpu) -> StepOutcome {
    match result {
        Ok(Event::Retired(retired)) => {
            StepOutcome::Retired(RetirementRecord::capture(cpu, &retired))
        }
        Ok(Event::Exited { code }) => StepOutcome::Exited { code },
        Ok(Event::Trapped { cause, epc }) => StepOutcome::Trapped { cause, epc },
        Err(error) => StepOutcome::Fault(error),
    }
}

fn divergence_pc(a: &StepOutcome, b: &StepOutcome, fallback: u64) -> u64 {
    match (a, b) {
        (StepOutcome::Retired(record), _) | (_, StepOutcome::Retired(record)) => record.pc,
        _ => fallback,
    }
}

/// Runs two simulators in lockstep over whatever programs are already
/// loaded into them, comparing canonical retirement streams step by step.
///
/// Both simulators must have been loaded with the same program (see
/// [`crate::load_program`]). A fault on both sides with the same error is
/// architectural agreement; anything asymmetric is a divergence. When both
/// exit with the same code, their final register files, console output and
/// markers are compared too.
///
/// Each step where both sides retire builds one canonical record, the
/// first simulator's, for the context, and checks the second simulator's
/// retirement against it in place. The per-side [`StepOutcome`]s are built
/// only when that check fails or a side does anything but retire.
pub fn run_lockstep(
    a: &mut dyn Simulator,
    b: &mut dyn Simulator,
    options: &LockstepOptions,
) -> LockstepOutcome {
    let mut context = ContextRing::new(options.context);
    // Registers whose current value came straight from a cycle/time read;
    // they hold each timing model's own count and are excluded from the
    // final-state register comparison.
    let mut cycle_tainted = [false; 32];

    for step in 0..options.max_instructions {
        let result_a = a.step();
        let result_b = b.step();
        if let (Ok(Event::Retired(retired_a)), Ok(Event::Retired(retired_b))) =
            (&result_a, &result_b)
        {
            let record = canonical(RetirementRecord::capture(a.cpu(), retired_a));
            if agrees(&record, b.cpu(), retired_b) {
                if let Some((reg, _)) = record.rd_write {
                    cycle_tainted[reg.number() as usize] = is_cycle_read(&record.op);
                }
                context.push(record);
                continue;
            }
        }

        let oa = outcome_of(result_a, a.cpu());
        let ob = outcome_of(result_b, b.cpu());
        match (&oa, &ob) {
            (StepOutcome::Exited { code: ca }, StepOutcome::Exited { code: cb }) if ca == cb => {
                if let Some(outcome) =
                    final_state_divergence(step, a, b, &oa, &ob, &context, &cycle_tainted)
                {
                    return outcome;
                }
                return LockstepOutcome::Agreement {
                    instructions: step + 1,
                    termination: Termination::Exited(*ca),
                };
            }
            (
                StepOutcome::Trapped { cause: ca, epc: ea },
                StepOutcome::Trapped { cause: cb, epc: eb },
            ) if ca == cb && ea == eb => {
                // Identical trap delivery on both sides: not a retirement,
                // the lockstep run simply continues inside the handler.
            }
            (StepOutcome::Fault(ea), StepOutcome::Fault(eb)) if ea == eb => {
                return LockstepOutcome::Agreement {
                    instructions: step,
                    termination: Termination::MatchingFault(*ea),
                };
            }
            _ => {
                debug_assert!(
                    !matches!((&oa, &ob), (StepOutcome::Retired(ra), StepOutcome::Retired(rb))
                        if canonical(*ra) == canonical(*rb)),
                    "`agrees` rejected equal canonical records"
                );
                return divergence(step, a, b, oa, ob, &context);
            }
        }
    }
    LockstepOutcome::Agreement {
        instructions: options.max_instructions,
        termination: Termination::BudgetExhausted,
    }
}

/// The report for a step at which the two sides did different things.
fn divergence(
    step: u64,
    a: &dyn Simulator,
    b: &dyn Simulator,
    oa: StepOutcome,
    ob: StepOutcome,
    context: &ContextRing,
) -> LockstepOutcome {
    let mem_delta = match (&oa, &ob) {
        (StepOutcome::Retired(ra), StepOutcome::Retired(rb)) if ra.mem != rb.mem => {
            Some((ra.mem, rb.mem))
        }
        _ => None,
    };
    LockstepOutcome::Divergence(Box::new(Divergence {
        step,
        pc: divergence_pc(&oa, &ob, a.cpu().pc()),
        a_label: a.label(),
        b_label: b.label(),
        reg_delta: register_delta(a.cpu(), b.cpu()),
        mem_delta,
        a: oa,
        b: ob,
        context: context.to_vec(),
    }))
}

/// After a matching exit, checks final architectural state: register files,
/// console output, and markers (ids and instruction counts; marker cycle
/// counts are timing and excluded). Registers whose last write was a
/// cycle/time read hold each timing model's own count and are skipped.
fn final_state_divergence(
    step: u64,
    a: &dyn Simulator,
    b: &dyn Simulator,
    oa: &StepOutcome,
    ob: &StepOutcome,
    context: &ContextRing,
    cycle_tainted: &[bool; 32],
) -> Option<LockstepOutcome> {
    let mut reg_delta = register_delta(a.cpu(), b.cpu());
    reg_delta.retain(|delta| !cycle_tainted[delta.reg.number() as usize]);
    let console_match = a.cpu().console == b.cpu().console;
    let markers_match = a.cpu().markers.len() == b.cpu().markers.len()
        && a.cpu()
            .markers
            .iter()
            .zip(&b.cpu().markers)
            .all(|(ma, mb)| ma.id == mb.id && ma.instret == mb.instret);
    if reg_delta.is_empty() && console_match && markers_match {
        return None;
    }
    Some(LockstepOutcome::Divergence(Box::new(Divergence {
        step,
        pc: a.cpu().pc(),
        a_label: a.label(),
        b_label: b.label(),
        a: oa.clone(),
        b: ob.clone(),
        reg_delta,
        mem_delta: None,
        context: context.to_vec(),
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::instr::{LoadOp, OpImmOp, StoreOp};

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::OpImm { op: OpImmOp::Addi, rd, rs1, imm }
    }

    #[test]
    fn captured_records_are_the_canonical_stream() {
        let mut cpu = Cpu::new();
        let mut prog = vec![
            addi(Reg::T0, Reg::ZERO, 7),
            Instr::Lui { rd: Reg::T1, imm20: 0x2 }, // t1 = 0x2000
            Instr::Store { op: StoreOp::Sd, rs2: Reg::T0, rs1: Reg::T1, offset: 0 },
            Instr::Load { op: LoadOp::Ld, rd: Reg::A0, rs1: Reg::T1, offset: 0 },
        ];
        prog.extend([addi(Reg::A7, Reg::ZERO, 93), Instr::Ecall]);
        for (i, instr) in prog.iter().enumerate() {
            cpu.memory.write_u32(0x1000 + 4 * i as u64, instr.encode().unwrap()).unwrap();
        }
        cpu.set_pc(0x1000);
        let mut stream = Vec::new();
        let code = loop {
            match cpu.step().unwrap() {
                Event::Retired(retired) => stream.push(RetirementRecord::capture(&cpu, &retired)),
                Event::Exited { code } => break code,
                Event::Trapped { .. } => panic!("unexpected trap"),
            }
        };
        assert_eq!(code, 7);
        // The exiting ecall retires without a record; everything else streams.
        assert_eq!(stream.len(), prog.len() - 1);
        assert_eq!(stream[0].seq, 1);
        assert_eq!(stream[0].pc, 0x1000);
        assert_eq!(stream[0].rd_write, Some((Reg::T0, 7)));
        let store = &stream[2];
        assert_eq!(
            store.mem,
            Some(MemEffect { addr: 0x2000, size: 8, store: true, value: 7 })
        );
        let load_rec = &stream[3];
        assert_eq!(load_rec.rd_write, Some((Reg::A0, 7)));
        assert_eq!(
            load_rec.mem,
            Some(MemEffect { addr: 0x2000, size: 8, store: false, value: 7 })
        );
    }
}
