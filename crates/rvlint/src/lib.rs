//! `rvlint` — static CFG/dataflow analysis and RoCC-protocol typestate
//! checking for assembled kernels.
//!
//! The analyzer works on [`riscv_asm::Program`] machine code (not source
//! text), so it checks exactly what the simulators execute:
//!
//! * **CFG recovery** ([`cfg`](mod@cfg)) — instruction-granularity control flow
//!   with resolved calls, returns, address-taken roots (trap handlers),
//!   and the exit-syscall convention.
//! * **Classic dataflow** ([`dataflow`]) — may-initialized registers
//!   (definite uninitialized-read detection), liveness (dead `STAT`
//!   results), a reaching-definitions query, and unreachable-code
//!   detection from the CFG.
//! * **RoCC protocol typestate** ([`typestate`]) — walks every path
//!   through the accelerator-protocol lattice, flagging compute commands
//!   issued without their `CLR_ALL`/`WR`/`LD` setup, `DEC_ADC` with an
//!   undefined carry latch, accelerator reuse after an observed error
//!   without `CLR_ALL` recovery, dead `CLR_ALL`s, and unconsumed `STAT`
//!   reads.
//! * **BCD abstract-digit analysis** ([`bcd`]) — a per-nibble
//!   {valid-BCD, maybe-invalid, unknown} lattice over registers and data
//!   regions, flagging operands that are statically *not* packed BCD.
//!
//! Every diagnostic carries the pc, the decoded instruction, a
//! symbol+line location, and a path witness: a concrete control-flow path
//! from an entry point that exhibits the violation.

pub mod bcd;
pub mod cfg;
pub mod dataflow;
pub mod typestate;

use std::fmt;

use riscv_asm::Program;
use riscv_isa::instr::LoadOp;
use riscv_isa::{Instr, Reg};
use rocc::{DecimalFunct, ACC_INDEX};

use bcd::BcdValues;
use cfg::Cfg;
use dataflow::{reaching_defs, reg_bit, RegFlow, ENTRY_DEFINED};
use typestate::{accel_command, required_written, rocc_fields, Typestate};

/// What kind of defect a diagnostic reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// A register is read but initialized on no path from any entry.
    UninitializedRead,
    /// Code not reachable from the entry or any address-taken root.
    UnreachableCode,
    /// A custom-0 command with a funct7 the accelerator does not define.
    UnknownAccelFunct,
    /// A command reads accelerator state no path has set up.
    MissingAccelSetup,
    /// `DEC_ADC` consumes the carry latch before anything defined it.
    UndefinedCarry,
    /// A command is issued on a path that observed an error (nonzero
    /// `STAT`) without an intervening `CLR_ALL`.
    ReuseAfterError,
    /// A `STAT` result is written to a register that is never read.
    DeadStat,
    /// A `CLR_ALL` on an accelerator that is already freshly cleared.
    RedundantClrAll,
    /// An operand that must be packed BCD (or a digit) definitely is not.
    NonBcdOperand,
    /// An indirect jump whose target the analyzer cannot resolve.
    UnresolvedIndirectJump,
}

impl Lint {
    /// Stable machine-readable code.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Lint::UninitializedRead => "uninitialized-read",
            Lint::UnreachableCode => "unreachable-code",
            Lint::UnknownAccelFunct => "unknown-accel-funct",
            Lint::MissingAccelSetup => "missing-accel-setup",
            Lint::UndefinedCarry => "undefined-carry",
            Lint::ReuseAfterError => "reuse-after-error",
            Lint::DeadStat => "dead-stat",
            Lint::RedundantClrAll => "redundant-clr-all",
            Lint::NonBcdOperand => "non-bcd-operand",
            Lint::UnresolvedIndirectJump => "unresolved-indirect-jump",
        }
    }
}

/// Whether a finding gates (Error) or merely informs (Info — e.g. an
/// unreachable *labeled* routine, which is usually just unused library
/// code shipped with every kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A defect: the CI gate fails on these.
    Error,
    /// Informational only.
    Info,
}

/// One step of a path witness.
#[derive(Debug, Clone)]
pub struct WitnessStep {
    /// Program counter of the step.
    pub pc: u64,
    /// Human-readable `pc <symbol+off> (line N)` anchor.
    pub location: String,
}

/// A single finding with its machine-readable anchor and path witness.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The defect class.
    pub lint: Lint,
    /// Error (gating) or Info.
    pub severity: Severity,
    /// Program counter of the offending instruction.
    pub pc: u64,
    /// Disassembly of the offending instruction.
    pub instruction: String,
    /// `pc <symbol+off> (line N)` anchor.
    pub location: String,
    /// What is wrong, in one sentence.
    pub message: String,
    /// A concrete control-flow path from an entry point that exhibits the
    /// violation (control-transfer points only). Empty for findings that
    /// are path-free by nature (unreachable code).
    pub witness: Vec<WitnessStep>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.severity {
            Severity::Error => "error",
            Severity::Info => "info",
        };
        write!(
            f,
            "{tag}[{}] at {}: `{}` — {}",
            self.code(),
            self.location,
            self.instruction,
            self.message
        )?;
        if !self.witness.is_empty() {
            write!(f, "\n    path:")?;
            for step in &self.witness {
                write!(f, "\n      {}", step.location)?;
            }
        }
        Ok(())
    }
}

impl Diagnostic {
    /// The lint's stable code.
    #[must_use]
    pub fn code(&self) -> &'static str {
        self.lint.code()
    }
}

/// Aggregate counts for the analyzed program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Text words decoded.
    pub instructions: usize,
    /// Instructions reachable from an entry point.
    pub reachable_instructions: usize,
    /// Reachable basic blocks.
    pub basic_blocks: usize,
    /// Recovered function entry points.
    pub functions: usize,
    /// Reachable accelerator (custom-0) commands.
    pub accel_commands: usize,
}

/// The result of [`analyze`]: diagnostics (errors first, then by pc) plus
/// program statistics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, gating errors first.
    pub diagnostics: Vec<Diagnostic>,
    /// Aggregate counts.
    pub stats: Stats,
}

impl Report {
    /// Gating (Error-severity) findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// True if there are no gating findings.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} instructions ({} reachable), {} blocks, {} functions, {} accelerator commands",
            self.stats.instructions,
            self.stats.reachable_instructions,
            self.stats.basic_blocks,
            self.stats.functions,
            self.stats.accel_commands
        )?;
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        let errors = self.errors().count();
        write!(
            f,
            "{errors} error(s), {} note(s)",
            self.diagnostics.len() - errors
        )
    }
}

/// Names an internal accelerator register for messages.
fn internal_reg_name(index: usize) -> String {
    if index == ACC_INDEX {
        "acc".to_string()
    } else {
        format!("r{index}")
    }
}

fn internal_reg_list(mask: u16) -> String {
    (0..16)
        .filter(|&i| mask & (1 << i) != 0)
        .map(internal_reg_name)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Compresses a full instruction-index path to its control-transfer
/// points and renders each as a located step.
fn render_witness(cfg: &Cfg, program: &Program, path: &[u32]) -> Vec<WitnessStep> {
    let mut kept: Vec<u32> = Vec::new();
    for (k, &idx) in path.iter().enumerate() {
        let is_edge = k == 0
            || k == path.len() - 1
            || path[k - 1] + 1 != idx
            || path.get(k + 1).is_some_and(|&next| idx + 1 != next);
        if is_edge && kept.last() != Some(&idx) {
            kept.push(idx);
        }
    }
    kept.iter()
        .map(|&idx| {
            let pc = cfg.pc(idx);
            WitnessStep {
                pc,
                location: program.location(pc),
            }
        })
        .collect()
}

/// A witness path from the analysis roots to `target` avoiding
/// `avoid`-instructions, falling back to any path if the avoiding search
/// fails (precision loss in a must-analysis).
fn witness_to(
    cfg: &Cfg,
    program: &Program,
    target: u32,
    avoid: &dyn Fn(u32) -> bool,
) -> Vec<WitnessStep> {
    let roots = cfg.roots();
    let path = cfg
        .witness_path(&roots, target, avoid)
        .or_else(|| cfg.witness_path(&roots, target, &|_| false))
        .unwrap_or_default();
    render_witness(cfg, program, &path)
}

/// Runs every analysis over `program` and collects the findings.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn analyze(program: &Program) -> Report {
    let cfg = Cfg::build(program);
    let mut flow_roots = vec![(cfg.entry, ENTRY_DEFINED)];
    flow_roots.extend(cfg.secondary_roots.iter().map(|&r| (r, u32::MAX)));
    let flow = RegFlow::solve(&cfg, &flow_roots);
    let typestate = Typestate::solve(&cfg);
    let values = BcdValues::solve(&cfg, program);

    let mut diagnostics = Vec::new();
    let mut push = |lint: Lint, severity: Severity, idx: u32, message: String, witness| {
        let pc = cfg.pc(idx);
        diagnostics.push(Diagnostic {
            lint,
            severity,
            pc,
            instruction: cfg.instrs[idx as usize]
                .as_ref()
                .map_or_else(|| ".word".to_string(), ToString::to_string),
            location: program.location(pc),
            message,
            witness,
        });
    };

    // --- unreachable code -------------------------------------------------
    let mut i = 0usize;
    while i < cfg.len() {
        if cfg.reachable[i] || cfg.instrs[i].is_none() {
            i += 1;
            continue;
        }
        let start = i;
        while i < cfg.len() && !cfg.reachable[i] && cfg.instrs[i].is_some() {
            i += 1;
        }
        // Skip alignment padding; anchor the run at its first real
        // instruction.
        let Some(first) = (start..i).find(|&k| cfg.instrs[k] != Some(Instr::NOP)) else {
            continue;
        };
        let pc = cfg.pc(first as u32);
        let labeled = program.nearest_symbol(pc).is_some_and(|(_, off)| off == 0);
        let count = i - first;
        if labeled {
            push(
                Lint::UnreachableCode,
                Severity::Info,
                first as u32,
                format!(
                    "{count} instruction(s) of labeled code are unreachable — \
                     an unused library routine for this kernel configuration"
                ),
                Vec::new(),
            );
        } else {
            push(
                Lint::UnreachableCode,
                Severity::Error,
                first as u32,
                format!(
                    "{count} unlabeled instruction(s) cannot be reached from the entry \
                     or any address-taken root"
                ),
                Vec::new(),
            );
        }
    }

    // --- uninitialized register reads ------------------------------------
    for idx in 0..cfg.len() as u32 {
        if !cfg.reachable[idx as usize] {
            continue;
        }
        let Some(instr) = &cfg.instrs[idx as usize] else {
            continue;
        };
        let init = flow.may_init_in[idx as usize];
        for (slot, src) in instr.sources().into_iter().enumerate() {
            let Some(reg) = src else { continue };
            if reg == Reg::ZERO || init & reg_bit(reg) != 0 {
                continue;
            }
            // Spilling callee-saved registers to the stack on entry is
            // standard ABI traffic, not a use of the value.
            if slot == 1 && matches!(instr, Instr::Store { rs1: Reg::SP, .. }) {
                continue;
            }
            push(
                Lint::UninitializedRead,
                Severity::Error,
                idx,
                format!("reads {reg}, which no execution path has initialized"),
                witness_to(&cfg, program, idx, &|_| false),
            );
        }
    }

    // --- unresolved indirect jumps ----------------------------------------
    for &idx in &cfg.unresolved_indirect {
        if cfg.reachable[idx as usize] {
            push(
                Lint::UnresolvedIndirectJump,
                Severity::Info,
                idx,
                "indirect jump target is not statically resolvable; \
                 paths through it are not analyzed"
                    .to_string(),
                witness_to(&cfg, program, idx, &|_| false),
            );
        }
    }

    // --- protocol typestate + BCD operand checks --------------------------
    let mut accel_commands = 0usize;
    for idx in 0..cfg.len() as u32 {
        if !cfg.reachable[idx as usize] {
            continue;
        }
        let Some(instr) = &cfg.instrs[idx as usize] else {
            continue;
        };
        let Some(rocc) = accel_command(instr) else {
            continue;
        };
        accel_commands += 1;
        let Some(state) = typestate.states[idx as usize] else {
            continue;
        };
        let Some(funct) = DecimalFunct::from_funct7(rocc.funct7) else {
            push(
                Lint::UnknownAccelFunct,
                Severity::Error,
                idx,
                format!(
                    "funct7 {} names no accelerator command; \
                     the accelerator will latch a command error",
                    rocc.funct7
                ),
                witness_to(&cfg, program, idx, &|_| false),
            );
            continue;
        };
        let fields = rocc_fields(rocc);

        if state.error && !funct.serviced_in_error() {
            let avoid_clr = |k: u32| {
                cfg.instrs[k as usize]
                    .as_ref()
                    .and_then(accel_command)
                    .and_then(|r| DecimalFunct::from_funct7(r.funct7))
                    == Some(DecimalFunct::ClrAll)
            };
            push(
                Lint::ReuseAfterError,
                Severity::Error,
                idx,
                format!(
                    "{} is issued on a path that observed a nonzero STAT \
                     (accelerator error) without an intervening CLR_ALL; \
                     the sticky Error state will not service it",
                    funct.name()
                ),
                witness_to(&cfg, program, idx, &avoid_clr),
            );
        }

        let reads = funct.regs_read(fields);
        let missing_init = reads & !state.init;
        if missing_init != 0 {
            let avoid = |k: u32| {
                cfg.instrs[k as usize]
                    .as_ref()
                    .and_then(accel_command)
                    .and_then(|r| {
                        DecimalFunct::from_funct7(r.funct7)
                            .map(|f| f.regs_written(rocc_fields(r)) & missing_init != 0)
                    })
                    .unwrap_or(false)
            };
            push(
                Lint::MissingAccelSetup,
                Severity::Error,
                idx,
                format!(
                    "{} reads internal register(s) {} that no path has initialized \
                     (no CLR_ALL or write reaches this command)",
                    funct.name(),
                    internal_reg_list(missing_init)
                ),
                witness_to(&cfg, program, idx, &avoid),
            );
        }

        let missing_written = required_written(funct, fields) & !state.written & !missing_init;
        if missing_written != 0 {
            let avoid = |k: u32| {
                cfg.instrs[k as usize]
                    .as_ref()
                    .and_then(accel_command)
                    .and_then(|r| {
                        DecimalFunct::from_funct7(r.funct7).map(|f| {
                            f != DecimalFunct::ClrAll
                                && f.regs_written(rocc_fields(r)) & missing_written != 0
                        })
                    })
                    .unwrap_or(false)
            };
            push(
                Lint::MissingAccelSetup,
                Severity::Error,
                idx,
                format!(
                    "{} consumes operand register(s) {} that hold no deposited data \
                     since the last CLR_ALL (missing WR/LD setup)",
                    funct.name(),
                    internal_reg_list(missing_written)
                ),
                witness_to(&cfg, program, idx, &avoid),
            );
        }

        if funct.reads_carry() && !state.carry {
            let avoid = |k: u32| {
                cfg.instrs[k as usize]
                    .as_ref()
                    .and_then(accel_command)
                    .and_then(|r| {
                        DecimalFunct::from_funct7(r.funct7).map(DecimalFunct::defines_carry)
                    })
                    .unwrap_or(false)
            };
            push(
                Lint::UndefinedCarry,
                Severity::Error,
                idx,
                format!(
                    "{} consumes the carry latch, but a path reaches it on which \
                     no command has defined the carry",
                    funct.name()
                ),
                witness_to(&cfg, program, idx, &avoid),
            );
        }

        if funct == DecimalFunct::ClrAll && state.clean {
            push(
                Lint::RedundantClrAll,
                Severity::Error,
                idx,
                "CLR_ALL on an accelerator that every path leaves freshly cleared \
                 and untouched — dead command"
                    .to_string(),
                witness_to(&cfg, program, idx, &|_| false),
            );
        }

        if funct == DecimalFunct::Stat
            && rocc.xd
            && rocc.rd != Reg::ZERO
            && flow.live_out[idx as usize] & reg_bit(rocc.rd) == 0
        {
            push(
                Lint::DeadStat,
                Severity::Error,
                idx,
                format!(
                    "STAT result in {} is never consumed — the error check \
                     this read implies is missing",
                    rocc.rd
                ),
                witness_to(&cfg, program, idx, &|_| false),
            );
        }

        // BCD operand classification.
        let (bcd_rs1, bcd_rs2) = funct.bcd_operands();
        for (wanted, present, reg) in [
            (bcd_rs1, rocc.xs1, rocc.rs1),
            (bcd_rs2, rocc.xs2, rocc.rs2),
        ] {
            if !wanted || !present {
                continue;
            }
            let value = values.value_at(idx, reg);
            let bad = value.invalid_nibbles();
            if bad.is_empty() {
                continue;
            }
            let shown = value
                .as_const()
                .map_or_else(String::new, |c| format!(" (= {c:#x})"));
            let origin = reaching_defs(&cfg, idx, reg)
                .first()
                .map_or_else(String::new, |&d| {
                    format!("; defined at {}", program.location(cfg.pc(d)))
                });
            push(
                Lint::NonBcdOperand,
                Severity::Error,
                idx,
                format!(
                    "{} requires packed BCD in {reg}{shown}, but nibble(s) {bad:?} \
                     can never hold a decimal digit{origin}",
                    funct.name()
                ),
                witness_to(&cfg, program, idx, &|_| false),
            );
        }
        if funct.digit_operand() && rocc.xs1 {
            let value = values.value_at(idx, rocc.rs1);
            let nonzero_upper = value.nibs[1..]
                .iter()
                .any(|n| matches!(n, bcd::Nib::Known(v) if *v > 0));
            if value.nibs[0].definitely_invalid() || nonzero_upper {
                let shown = value
                    .as_const()
                    .map_or_else(String::new, |c| format!(" (= {c:#x})"));
                push(
                    Lint::NonBcdOperand,
                    Severity::Error,
                    idx,
                    format!(
                        "{} takes a single decimal digit in {}{shown}, \
                         which is statically not 0–9",
                        funct.name(),
                        rocc.rs1
                    ),
                    witness_to(&cfg, program, idx, &|_| false),
                );
            }
        }
        if funct == DecimalFunct::Ld && rocc.xs1 {
            if let Some(addr) = values.value_at(idx, rocc.rs1).as_const() {
                if let Some((region, value)) = values.region_load(program, addr, LoadOp::Ld) {
                    let bad = value.invalid_nibbles();
                    if !bad.is_empty() {
                        push(
                            Lint::NonBcdOperand,
                            Severity::Error,
                            idx,
                            format!(
                                "LD pulls an operand from data region `{region}`, \
                                 whose contents are statically not packed BCD \
                                 (nibble(s) {bad:?})"
                            ),
                            witness_to(&cfg, program, idx, &|_| false),
                        );
                    }
                }
            }
        }
    }

    diagnostics.sort_by_key(|d| (d.severity, d.pc));
    let stats = Stats {
        instructions: cfg.len(),
        reachable_instructions: cfg.reachable.iter().filter(|&&r| r).count(),
        basic_blocks: cfg.block_count(),
        functions: cfg.functions.len(),
        accel_commands,
    };
    Report { diagnostics, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(source: &str) -> Report {
        let program = riscv_asm::assemble(source).expect("fixture assembles");
        analyze(&program)
    }

    #[test]
    fn clean_straight_line_program() {
        let report = lint(
            "start:\n\
             \tli a0, 5\n\
             \tli a1, 7\n\
             \tadd a2, a0, a1\n\
             \tli a7, 93\n\
             \tecall\n",
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn detects_uninitialized_read() {
        let report = lint(
            "start:\n\
             \tadd a2, a0, a1\n\
             \tli a7, 93\n\
             \tecall\n",
        );
        let uninit: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.lint == Lint::UninitializedRead)
            .collect();
        assert_eq!(uninit.len(), 2, "{report}");
        assert!(uninit[0].message.contains("a0"), "{report}");
    }

    #[test]
    fn detects_unreachable_code() {
        let report = lint(
            "start:\n\
             \tli a7, 93\n\
             \tecall\n\
             \tli a0, 1\n\
             \tli a1, 2\n",
        );
        let dead: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.lint == Lint::UnreachableCode)
            .collect();
        assert_eq!(dead.len(), 1, "{report}");
        assert_eq!(dead[0].severity, Severity::Error);
        assert!(dead[0].message.contains("2 unlabeled"), "{report}");
    }

    #[test]
    fn labeled_unreachable_code_is_info() {
        let report = lint(
            "start:\n\
             \tli a7, 93\n\
             \tecall\n\
             helper:\n\
             \tadd a0, a0, a0\n\
             \tret\n",
        );
        let dead: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.lint == Lint::UnreachableCode)
            .collect();
        assert_eq!(dead.len(), 1, "{report}");
        assert_eq!(dead[0].severity, Severity::Info);
        assert!(report.is_clean(), "{report}");
    }
}
