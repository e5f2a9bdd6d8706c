//! The lockstep comparator: steps two simulators through the same program,
//! compares their canonical retirement streams, and reports the first
//! divergence with full context.

use std::collections::VecDeque;

use riscv_isa::instr::Instr;
use riscv_isa::{csr, Reg};
use riscv_sim::{Cpu, CpuError, Event, RetirementRecord, Simulator};

/// Default number of pre-divergence retirements kept as context.
pub const DEFAULT_CONTEXT: usize = 8;

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
    pub mem_delta: Option<(Option<riscv_sim::MemEffect>, Option<riscv_sim::MemEffect>)>,
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

/// The CSR number an instruction reads, if it is a CSR instruction.
fn csr_number(instr: &Instr) -> Option<u16> {
    match *instr {
        Instr::Csr { csr, .. } | Instr::CsrImm { csr, .. } => Some(csr),
        _ => None,
    }
}

/// True if the instruction reads the cycle/time counter — the one value
/// that legitimately differs across timing models.
fn is_cycle_read(instr: &Instr) -> bool {
    matches!(csr_number(instr), Some(number) if matches!(number, csr::CYCLE | csr::TIME))
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
    if is_cycle_read(&record.instr) {
        if let Some((reg, _)) = record.rd_write {
            record.rd_write = Some((reg, 0));
        }
    }
    record
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
pub fn run_lockstep(
    a: &mut dyn Simulator,
    b: &mut dyn Simulator,
    options: &LockstepOptions,
) -> LockstepOutcome {
    let mut context: VecDeque<RetirementRecord> = VecDeque::with_capacity(options.context.max(1));
    // Registers whose current value came straight from a cycle/time read;
    // they hold each timing model's own count and are excluded from the
    // final-state register comparison.
    let mut cycle_tainted = [false; 32];
    let divergence = |step: u64,
                      a: &dyn Simulator,
                      b: &dyn Simulator,
                      oa: StepOutcome,
                      ob: StepOutcome,
                      context: &VecDeque<RetirementRecord>| {
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
            context: context.iter().copied().collect(),
        }))
    };

    for step in 0..options.max_instructions {
        let oa = outcome_of(a.step(), a.cpu());
        let ob = outcome_of(b.step(), b.cpu());
        match (&oa, &ob) {
            (StepOutcome::Retired(ra), StepOutcome::Retired(rb)) => {
                let (ca, cb) = (canonical(*ra), canonical(*rb));
                if ca != cb {
                    return divergence(step, a, b, oa, ob, &context);
                }
                if let Some((reg, _)) = ca.rd_write {
                    cycle_tainted[reg.number() as usize] = is_cycle_read(&ca.instr);
                }
                if context.len() == options.context {
                    context.pop_front();
                }
                if options.context > 0 {
                    context.push_back(ca);
                }
            }
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
            _ => return divergence(step, a, b, oa, ob, &context),
        }
    }
    LockstepOutcome::Agreement {
        instructions: options.max_instructions,
        termination: Termination::BudgetExhausted,
    }
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
    context: &VecDeque<RetirementRecord>,
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
        context: context.iter().copied().collect(),
    })))
}
