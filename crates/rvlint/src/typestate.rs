//! RoCC-protocol typestate checking.
//!
//! The accelerator's architectural contract (the Fig. 5 FSM plus the PR-2
//! sticky-Error extension) is abstracted into a small product lattice
//! propagated over every CFG path:
//!
//! * `init`/`written` — *must* masks over the internal register file:
//!   which registers are initialized (by `CLR_ALL` or any write) and which
//!   hold explicitly deposited data since the last `CLR_ALL`. The
//!   deeper-offload compute commands require their explicitly-addressed
//!   operands in `written` (multiplying a merely-cleared register is
//!   almost certainly a protocol bug), and every read in `init`.
//! * `carry` — *must*: the carry latch is defined (`DEC_ADC` consumes it).
//! * `clean` — *must*: the accelerator is freshly cleared and untouched,
//!   so another `CLR_ALL` is dead.
//! * `error` — *may*: a path exists on which guest code *observed* a
//!   nonzero `STAT` (took the error direction of a branch on a
//!   `STAT`-tainted register) and has not yet issued `CLR_ALL`. Issuing
//!   any command the Error state does not service on such a path is a
//!   reuse-after-error bug.
//! * `taint` — *may* mask over core registers currently holding a `STAT`
//!   result, feeding both the `error` refinement and the dead-`STAT`
//!   (result never consumed) check via liveness.
//!
//! Commands' register effects and protocol facts come from
//! [`DecimalFunct`]'s row ([`rocc::FunctSpec`]), not a re-transcription of
//! the accelerator match.

use std::collections::VecDeque;

use riscv_isa::instr::BranchOp;
use riscv_isa::rocc::{CustomOpcode, RoccInstruction};
use riscv_isa::{Instr, Reg};
use rocc::{DecimalFunct, ACC_INDEX};

use crate::cfg::Cfg;
use crate::dataflow::reg_bit;

/// The abstract accelerator-protocol state at a program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelState {
    /// Must-initialized internal registers.
    pub init: u16,
    /// Must-deposited internal registers since the last `CLR_ALL`.
    pub written: u16,
    /// The carry latch is defined on every path.
    pub carry: bool,
    /// Freshly cleared and untouched on every path.
    pub clean: bool,
    /// Some path observed an accelerator error without clearing it.
    pub error: bool,
    /// Core registers that may hold a `STAT` result.
    pub taint: u32,
}

impl AccelState {
    /// The state at the program entry: nothing initialized, carry
    /// undefined, no error observed.
    pub const ENTRY: AccelState = AccelState {
        init: 0,
        written: 0,
        carry: false,
        clean: false,
        error: false,
        taint: 0,
    };

    /// The state assumed at address-taken roots (trap handlers): their
    /// callers are outside the recovered graph, so everything that would
    /// produce a *must*-style finding is assumed established.
    pub const UNKNOWN_CALLER: AccelState = AccelState {
        init: u16::MAX,
        written: u16::MAX,
        carry: true,
        clean: false,
        error: false,
        taint: 0,
    };

    fn join(self, other: AccelState) -> AccelState {
        AccelState {
            init: self.init & other.init,
            written: self.written & other.written,
            carry: self.carry && other.carry,
            clean: self.clean && other.clean,
            error: self.error || other.error,
            taint: self.taint | other.taint,
        }
    }
}

/// Decoded operand fields of a RoCC instruction, as
/// [`DecimalFunct::regs_read`] expects them.
#[must_use]
pub fn rocc_fields(rocc: &RoccInstruction) -> (u8, u8, u8) {
    (rocc.rd.number(), rocc.rs1.number(), rocc.rs2.number())
}

/// The accelerator command carried by `instr`, if it is a custom-0
/// instruction (the opcode the decimal accelerator listens on).
#[must_use]
pub fn accel_command(instr: &Instr) -> Option<&RoccInstruction> {
    match instr {
        Instr::Custom(rocc) if rocc.opcode == CustomOpcode::Custom0 => Some(rocc),
        _ => None,
    }
}

/// Internal registers a command must hold *deposited* data in (beyond
/// mere initialization): the registers other than the accumulator that a
/// [`rocc::FunctSpec::consumes_deposited`] command reads. The accumulator
/// and `DEC_ACCUM`'s digit-indexed addends are legitimately consumed in
/// their cleared state, so they only require `init`.
#[must_use]
pub fn required_written(funct: DecimalFunct, fields: (u8, u8, u8)) -> u16 {
    if funct.spec().consumes_deposited {
        funct.regs_read(fields) & !(1u16 << ACC_INDEX)
    } else {
        0
    }
}

/// Solved typestate facts: the joined abstract state at each reachable
/// instruction (`None` where unreachable).
pub struct Typestate {
    /// Per-instruction in-state.
    pub states: Vec<Option<AccelState>>,
}

impl Typestate {
    /// Propagates the protocol lattice to a fixpoint over the CFG.
    #[must_use]
    pub fn solve(cfg: &Cfg) -> Typestate {
        let n = cfg.len();
        let mut states: Vec<Option<AccelState>> = vec![None; n];
        let mut queue = VecDeque::new();
        let mut on_queue = vec![false; n];
        let mut seed = |i: u32, s: AccelState| {
            states[i as usize] = Some(match states[i as usize] {
                Some(old) => old.join(s),
                None => s,
            });
            on_queue[i as usize] = true;
            queue.push_back(i);
        };
        seed(cfg.entry, AccelState::ENTRY);
        for &r in &cfg.secondary_roots.clone() {
            seed(r, AccelState::UNKNOWN_CALLER);
        }
        while let Some(i) = queue.pop_front() {
            on_queue[i as usize] = false;
            let Some(s) = states[i as usize] else { continue };
            for (t, out) in successor_states(cfg, i, s) {
                let merged = match states[t as usize] {
                    Some(old) => old.join(out),
                    None => out,
                };
                if states[t as usize] != Some(merged) {
                    states[t as usize] = Some(merged);
                    if !std::mem::replace(&mut on_queue[t as usize], true) {
                        queue.push_back(t);
                    }
                }
            }
        }
        Typestate { states }
    }
}

/// The out-state along each successor edge of instruction `i`, applying
/// the command transfer function and the error-path refinement on
/// branches that test a `STAT`-tainted register against zero.
fn successor_states(cfg: &Cfg, i: u32, s: AccelState) -> Vec<(u32, AccelState)> {
    let Some(instr) = &cfg.instrs[i as usize] else {
        return Vec::new();
    };
    let base = transfer(instr, s);

    if let Instr::Branch {
        op: op @ (BranchOp::Bne | BranchOp::Beq),
        rs1,
        rs2,
        offset,
    } = instr
    {
        let tested = match (*rs1, *rs2) {
            (r, Reg::ZERO) | (Reg::ZERO, r) if r != Reg::ZERO && s.taint & reg_bit(r) != 0 => {
                Some(r)
            }
            _ => None,
        };
        if tested.is_some() {
            // `bnez stat` jumps on error; `beqz stat` falls through on it.
            let taken_pc = cfg.pc(i).wrapping_add(*offset as i64 as u64);
            let error_state = AccelState {
                error: true,
                ..base
            };
            return cfg.succs[i as usize]
                .iter()
                .map(|&t| {
                    let is_taken = u64::from(t) * 4 + cfg.base == taken_pc;
                    let errors_here = match op {
                        BranchOp::Bne => is_taken,
                        _ => !is_taken,
                    };
                    (t, if errors_here { error_state } else { base })
                })
                .collect();
        }
    }

    cfg.succs[i as usize].iter().map(|&t| (t, base)).collect()
}

/// The command/instruction transfer function (successor-independent part).
fn transfer(instr: &Instr, mut s: AccelState) -> AccelState {
    if let Some(rocc) = accel_command(instr) {
        if let Some(funct) = DecimalFunct::from_funct7(rocc.funct7) {
            let fields = rocc_fields(rocc);
            if funct == DecimalFunct::ClrAll {
                s.init = u16::MAX;
                s.written = 0;
                s.carry = true;
                s.clean = true;
                s.error = false;
            } else {
                let written = funct.regs_written(fields);
                s.init |= written;
                s.written |= written;
                if funct.spec().defines_carry {
                    s.carry = true;
                }
                if funct.spec().mutates_state {
                    s.clean = false;
                }
            }
            if rocc.xd && rocc.rd != Reg::ZERO {
                if funct == DecimalFunct::Stat {
                    s.taint |= reg_bit(rocc.rd);
                } else {
                    s.taint &= !reg_bit(rocc.rd);
                }
            }
            return s;
        }
    }
    if let Some(rd) = instr.dest() {
        s.taint &= !reg_bit(rd);
    }
    s
}
