//! Abstract packed-BCD digit analysis.
//!
//! Each core register is tracked as 16 abstract nibbles over the lattice
//!
//! ```text
//!        Any            (maybe-invalid: nothing known)
//!       /   \
//!    Digit   Known(v>9) (some decimal digit 0-9 / a concrete nibble)
//!       \   /
//!     Known(v<=9)       (a concrete digit)
//! ```
//!
//! Constants (immediates, `lui`/`auipc` materializations, link addresses)
//! are exact, and operations on constants fold through the core's own ALU
//! ([`OpOp::eval`] and its word and immediate forms); `andi`/`ori`/`xori`
//! and shifts by multiples of four operate per-nibble, so the standard BCD
//! pack/unpack idioms (`andi x, 15` digit extraction, shift-and-or packing)
//! stay precise. Loads pull from per-data-symbol region summaries: each
//! region joins its initial bytes with every store the program can perform
//! into it, so the DPD↔BCD lookup tables yield `Digit` nibbles while
//! runtime scratch (e.g. the multiplicand-multiples table) degrades to
//! `Any`. A store through a statically-unknown non-stack pointer
//! conservatively clobbers every *writable* region (zero-initialized
//! scratch or any region already stored to) — constant tables are assumed
//! not to be overwritten, the usual const-table assumption for
//! executable-only analysis.
//!
//! The checker flags only *definitely* invalid operands — a nibble that is
//! `Known(v)` with `v > 9` on some reaching path — never `Any`.

use std::collections::VecDeque;

use riscv_asm::Program;
use riscv_isa::instr::{LoadOp, OpImmOp, OpOp};
use riscv_isa::{Instr, Reg};

use crate::cfg::Cfg;

/// One abstract nibble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nib {
    /// Exactly this 4-bit value.
    Known(u8),
    /// Some decimal digit 0–9 (valid BCD, value unknown).
    Digit,
    /// Nothing known (maybe-invalid).
    Any,
}

impl Nib {
    /// Least upper bound.
    #[must_use]
    pub fn join(self, other: Nib) -> Nib {
        match (self, other) {
            (a, b) if a == b => a,
            (Nib::Known(a), Nib::Known(b)) if a <= 9 && b <= 9 => Nib::Digit,
            (Nib::Known(v), Nib::Digit) | (Nib::Digit, Nib::Known(v)) if v <= 9 => Nib::Digit,
            _ => Nib::Any,
        }
    }

    /// True if this nibble can never hold a decimal digit.
    #[must_use]
    pub fn definitely_invalid(self) -> bool {
        matches!(self, Nib::Known(v) if v > 9)
    }

    fn and(self, other: Nib) -> Nib {
        match (self, other) {
            (Nib::Known(a), Nib::Known(b)) => Nib::Known(a & b),
            (Nib::Known(0), _) | (_, Nib::Known(0)) => Nib::Known(0),
            // Masking can only lower the value, so a digit stays a digit
            // and anything masked below ten becomes one.
            (Nib::Digit, _) | (_, Nib::Digit) => Nib::Digit,
            (Nib::Any, Nib::Known(m)) | (Nib::Known(m), Nib::Any) if m <= 9 => Nib::Digit,
            _ => Nib::Any,
        }
    }

    fn or(self, other: Nib) -> Nib {
        match (self, other) {
            (Nib::Known(a), Nib::Known(b)) => Nib::Known(a | b),
            (Nib::Known(0), v) | (v, Nib::Known(0)) => v,
            _ => Nib::Any,
        }
    }

    fn xor(self, other: Nib) -> Nib {
        match (self, other) {
            (Nib::Known(a), Nib::Known(b)) => Nib::Known(a ^ b),
            (Nib::Known(0), v) | (v, Nib::Known(0)) => v,
            _ => Nib::Any,
        }
    }
}

/// An abstract 64-bit value: 16 nibbles, least significant first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsVal {
    /// Nibble lattice elements, `nibs[0]` = bits 3:0.
    pub nibs: [Nib; 16],
}

impl AbsVal {
    /// The completely unknown value.
    pub const ANY: AbsVal = AbsVal {
        nibs: [Nib::Any; 16],
    };

    /// An exact constant.
    #[must_use]
    pub fn constant(value: u64) -> AbsVal {
        let mut nibs = [Nib::Known(0); 16];
        for (i, nib) in nibs.iter_mut().enumerate() {
            *nib = Nib::Known(((value >> (4 * i)) & 0xF) as u8);
        }
        AbsVal { nibs }
    }

    /// The exact value, if every nibble is known.
    #[must_use]
    pub fn as_const(&self) -> Option<u64> {
        let mut value = 0u64;
        for (i, nib) in self.nibs.iter().enumerate() {
            match nib {
                Nib::Known(v) => value |= u64::from(*v) << (4 * i),
                _ => return None,
            }
        }
        Some(value)
    }

    /// Nibble-wise least upper bound.
    #[must_use]
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        let mut nibs = self.nibs;
        for (n, o) in nibs.iter_mut().zip(&other.nibs) {
            *n = n.join(*o);
        }
        AbsVal { nibs }
    }

    fn map2(&self, other: &AbsVal, f: impl Fn(Nib, Nib) -> Nib) -> AbsVal {
        let mut nibs = [Nib::Any; 16];
        for (i, nib) in nibs.iter_mut().enumerate() {
            *nib = f(self.nibs[i], other.nibs[i]);
        }
        AbsVal { nibs }
    }

    /// Left shift by a multiple of four bits: nibbles slide up, zeros fill.
    fn shift_left_nibbles(&self, count: usize) -> AbsVal {
        let count = count.min(16);
        let mut nibs = [Nib::Known(0); 16];
        nibs[count..].copy_from_slice(&self.nibs[..16 - count]);
        AbsVal { nibs }
    }

    fn shift_right_nibbles(&self, count: usize) -> AbsVal {
        let count = count.min(16);
        let mut nibs = [Nib::Known(0); 16];
        nibs[..16 - count].copy_from_slice(&self.nibs[count..]);
        AbsVal { nibs }
    }

    /// The nibble positions that are definitely not decimal digits.
    #[must_use]
    pub fn invalid_nibbles(&self) -> Vec<usize> {
        self.nibs
            .iter()
            .enumerate()
            .filter(|(_, n)| n.definitely_invalid())
            .map(|(i, _)| i)
            .collect()
    }
}

/// A `.data` region between two consecutive data symbols.
struct Region {
    name: String,
    start: u64,
    end: u64,
    /// Join of (low, high) nibbles over every byte the region may hold.
    summary: (Nib, Nib),
    /// Zero-initialized scratch, or already observed as a store target:
    /// eligible for clobbering by stores through unknown pointers.
    writable: bool,
}

impl Region {
    fn absorb_byte(&mut self, lo: Nib, hi: Nib) -> bool {
        let merged = (self.summary.0.join(lo), self.summary.1.join(hi));
        let changed = merged != self.summary;
        self.summary = merged;
        changed
    }

    /// The abstract value of a `size`-byte load from this region.
    /// `signed` loads whose sign bit may be set lose their upper nibbles.
    fn load(&self, size: usize, signed: bool) -> AbsVal {
        let (lo, hi) = self.summary;
        let mut nibs = [Nib::Known(0); 16];
        for byte in 0..size {
            nibs[2 * byte] = lo;
            nibs[2 * byte + 1] = hi;
        }
        if signed && size < 8 && !matches!(hi, Nib::Known(v) if v <= 7) {
            for nib in nibs.iter_mut().skip(2 * size) {
                *nib = Nib::Any;
            }
        }
        AbsVal { nibs }
    }
}

fn build_regions(program: &Program) -> Vec<Region> {
    let data_base = program.data.base;
    let data_end = data_base + program.data.data.len() as u64;
    let mut starts: Vec<(&str, u64)> = program
        .symbols
        .iter()
        .filter(|&(_, &addr)| addr >= data_base && addr < data_end)
        .map(|(name, &addr)| (name.as_str(), addr))
        .collect();
    starts.sort_by_key(|&(_, addr)| addr);
    let mut regions = Vec::with_capacity(starts.len());
    for (i, &(name, start)) in starts.iter().enumerate() {
        let end = starts.get(i + 1).map_or(data_end, |&(_, next)| next);
        let bytes = &program.data.data[(start - data_base) as usize..(end - data_base) as usize];
        let mut summary: Option<(Nib, Nib)> = None;
        for &b in bytes {
            let lo = Nib::Known(b & 0xF);
            let hi = Nib::Known(b >> 4);
            summary = Some(match summary {
                Some((slo, shi)) => (slo.join(lo), shi.join(hi)),
                None => (lo, hi),
            });
        }
        regions.push(Region {
            name: name.to_string(),
            start,
            end,
            summary: summary.unwrap_or((Nib::Known(0), Nib::Known(0))),
            writable: bytes.iter().all(|&b| b == 0),
        });
    }
    regions
}

/// Solved BCD value facts: the abstract register file at each reachable
/// instruction (`None` where unreachable).
pub struct BcdValues {
    /// Per-instruction in-state, indexed by register number.
    pub states: Vec<Option<Box<[AbsVal; 32]>>>,
    /// Data-region names and their final summaries, for diagnostics.
    pub region_notes: Vec<(String, Nib, Nib)>,
}

impl BcdValues {
    /// The abstract value `instr`'s operand register holds on entry to
    /// instruction `i` (`ANY` when untracked).
    #[must_use]
    pub fn value_at(&self, i: u32, reg: Reg) -> AbsVal {
        if reg == Reg::ZERO {
            return AbsVal::constant(0);
        }
        self.states[i as usize]
            .as_ref()
            .map_or(AbsVal::ANY, |s| s[reg.number() as usize])
    }

    /// The summary of the data region a constant address falls in.
    #[must_use]
    pub fn region_load(&self, program: &Program, addr: u64, op: LoadOp) -> Option<(String, AbsVal)> {
        let regions = build_regions(program);
        let region = regions.iter().find(|r| addr >= r.start && addr < r.end)?;
        // Re-apply the final summaries computed during solving.
        let (name, lo, hi) = self
            .region_notes
            .iter()
            .find(|(name, _, _)| *name == region.name)?;
        let summarized = Region {
            name: name.clone(),
            start: region.start,
            end: region.end,
            summary: (*lo, *hi),
            writable: region.writable,
        };
        let signed = matches!(op, LoadOp::Lb | LoadOp::Lh | LoadOp::Lw);
        Some((name.clone(), summarized.load(op.size() as usize, signed)))
    }

    /// Propagates the nibble lattice to a fixpoint. Region summaries and
    /// register values depend on each other, so the register fixpoint runs
    /// inside an outer loop that re-applies every store until the
    /// summaries stabilize (the summary lattice is tiny, so this takes a
    /// handful of rounds at most).
    #[must_use]
    pub fn solve(cfg: &Cfg, program: &Program) -> BcdValues {
        let mut regions = build_regions(program);
        let mut states = solve_registers(cfg, &regions);
        for _round in 0..8 {
            let mut changed = false;
            let mut wild_store = false;
            for i in 0..cfg.len() as u32 {
                let Some(Instr::Store { op, rs2, rs1, offset }) = cfg.instrs[i as usize] else {
                    continue;
                };
                if !cfg.reachable[i as usize] {
                    continue;
                }
                let Some(state) = &states[i as usize] else { continue };
                let value = if rs2 == Reg::ZERO {
                    AbsVal::constant(0)
                } else {
                    state[rs2.number() as usize]
                };
                let base = if rs1 == Reg::ZERO {
                    AbsVal::constant(0)
                } else {
                    state[rs1.number() as usize]
                };
                match base.as_const() {
                    Some(b) => {
                        let addr = b.wrapping_add(offset as i64 as u64);
                        let size = op.size() as usize;
                        if let Some(region) =
                            regions.iter_mut().find(|r| addr >= r.start && addr < r.end)
                        {
                            region.writable = true;
                            for byte in 0..size {
                                let lo = value.nibs[(2 * byte).min(15)];
                                let hi = value.nibs[(2 * byte + 1).min(15)];
                                changed |= region.absorb_byte(lo, hi);
                            }
                        }
                    }
                    // Stack traffic is not data-region traffic: the stack
                    // lives outside the data segment by construction.
                    None if rs1 == Reg::SP => {}
                    None => wild_store = true,
                }
            }
            if wild_store {
                for region in regions.iter_mut().filter(|r| r.writable) {
                    changed |= region.absorb_byte(Nib::Any, Nib::Any);
                }
            }
            if !changed {
                break;
            }
            states = solve_registers(cfg, &regions);
        }
        let region_notes = regions
            .iter()
            .map(|r| (r.name.clone(), r.summary.0, r.summary.1))
            .collect();
        BcdValues {
            states,
            region_notes,
        }
    }
}

type RegVals = Box<[AbsVal; 32]>;

fn join_into(dst: &mut RegVals, src: &RegVals) -> bool {
    let mut changed = false;
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        let merged = d.join(s);
        if merged != *d {
            *d = merged;
            changed = true;
        }
    }
    changed
}

fn solve_registers(cfg: &Cfg, regions: &[Region]) -> Vec<Option<RegVals>> {
    let n = cfg.len();
    let mut states: Vec<Option<RegVals>> = vec![None; n];
    let mut queue = VecDeque::new();
    let mut on_queue = vec![false; n];
    let mut top: RegVals = Box::new([AbsVal::ANY; 32]);
    top[Reg::ZERO.number() as usize] = AbsVal::constant(0);
    for root in cfg.roots() {
        states[root as usize] = Some(top.clone());
        if !std::mem::replace(&mut on_queue[root as usize], true) {
            queue.push_back(root);
        }
    }
    while let Some(i) = queue.pop_front() {
        on_queue[i as usize] = false;
        let Some(state) = &states[i as usize] else { continue };
        let mut out = state.clone();
        if let Some(instr) = &cfg.instrs[i as usize] {
            apply(instr, cfg.pc(i), &mut out, regions);
        }
        for &t in &cfg.succs[i as usize] {
            let changed = match &mut states[t as usize] {
                Some(existing) => join_into(existing, &out),
                slot @ None => {
                    *slot = Some(out.clone());
                    true
                }
            };
            if changed && !std::mem::replace(&mut on_queue[t as usize], true) {
                queue.push_back(t);
            }
        }
    }
    states
}

#[allow(clippy::too_many_lines)]
fn apply(instr: &Instr, pc: u64, state: &mut RegVals, regions: &[Region]) {
    let read = |state: &RegVals, reg: Reg| -> AbsVal {
        if reg == Reg::ZERO {
            AbsVal::constant(0)
        } else {
            state[reg.number() as usize]
        }
    };
    let write = |state: &mut RegVals, reg: Reg, val: AbsVal| {
        if reg != Reg::ZERO {
            state[reg.number() as usize] = val;
        }
    };
    match *instr {
        Instr::Lui { rd, imm20 } => {
            write(state, rd, AbsVal::constant(((i64::from(imm20)) << 12) as u64));
        }
        Instr::Auipc { rd, imm20 } => {
            write(
                state,
                rd,
                AbsVal::constant(pc.wrapping_add(((i64::from(imm20)) << 12) as u64)),
            );
        }
        Instr::Jal { rd, .. } | Instr::Jalr { rd, .. } => {
            write(state, rd, AbsVal::constant(pc.wrapping_add(4)));
        }
        Instr::OpImm { op, rd, rs1, imm } => {
            let a = read(state, rs1);
            let imm_val = imm as i64 as u64;
            let result = if let Some(c) = a.as_const() {
                AbsVal::constant(op.alu_op().eval(c, imm_val))
            } else {
                let b = AbsVal::constant(imm_val);
                match op {
                    OpImmOp::Addi if imm == 0 => a,
                    OpImmOp::Andi => a.map2(&b, Nib::and),
                    OpImmOp::Ori => a.map2(&b, Nib::or),
                    OpImmOp::Xori => a.map2(&b, Nib::xor),
                    OpImmOp::Slli if imm & 3 == 0 && (0..64).contains(&imm) => {
                        a.shift_left_nibbles((imm / 4) as usize)
                    }
                    OpImmOp::Srli if imm & 3 == 0 && (0..64).contains(&imm) => {
                        a.shift_right_nibbles((imm / 4) as usize)
                    }
                    OpImmOp::Slti | OpImmOp::Sltiu => {
                        let mut nibs = [Nib::Known(0); 16];
                        nibs[0] = Nib::Digit;
                        AbsVal { nibs }
                    }
                    _ => AbsVal::ANY,
                }
            };
            write(state, rd, result);
        }
        Instr::OpImm32 { op, rd, rs1, imm } => {
            let a = read(state, rs1);
            let result = match a.as_const() {
                Some(c) => AbsVal::constant(op.alu_op().eval(c, imm as i64 as u64)),
                None => AbsVal::ANY,
            };
            write(state, rd, result);
        }
        Instr::Op { op, rd, rs1, rs2 } => {
            let a = read(state, rs1);
            let b = read(state, rs2);
            let result = match (a.as_const(), b.as_const()) {
                (Some(ca), Some(cb)) => AbsVal::constant(op.eval(ca, cb)),
                _ => match op {
                    OpOp::And => a.map2(&b, Nib::and),
                    OpOp::Or => a.map2(&b, Nib::or),
                    OpOp::Xor => a.map2(&b, Nib::xor),
                    OpOp::Slt | OpOp::Sltu => {
                        let mut nibs = [Nib::Known(0); 16];
                        nibs[0] = Nib::Digit;
                        AbsVal { nibs }
                    }
                    _ => AbsVal::ANY,
                },
            };
            write(state, rd, result);
        }
        Instr::Op32 { op, rd, rs1, rs2 } => {
            let a = read(state, rs1);
            let b = read(state, rs2);
            let result = match (a.as_const(), b.as_const()) {
                (Some(ca), Some(cb)) => AbsVal::constant(op.eval(ca, cb)),
                _ => AbsVal::ANY,
            };
            write(state, rd, result);
        }
        Instr::Load { op, rd, rs1, offset } => {
            let base = read(state, rs1);
            let result = match base.as_const() {
                Some(b) => {
                    let addr = b.wrapping_add(offset as i64 as u64);
                    match regions.iter().find(|r| addr >= r.start && addr < r.end) {
                        Some(region) => {
                            let signed = matches!(op, LoadOp::Lb | LoadOp::Lh | LoadOp::Lw);
                            region.load(op.size() as usize, signed)
                        }
                        None => AbsVal::ANY,
                    }
                }
                None => AbsVal::ANY,
            };
            write(state, rd, result);
        }
        Instr::Store { .. } => {
            // Stores are folded into the region summaries by the outer
            // fixpoint in `BcdValues::solve`.
        }
        Instr::Csr { rd, .. } | Instr::CsrImm { rd, .. } => write(state, rd, AbsVal::ANY),
        Instr::Custom(rocc) => {
            if rocc.xd {
                write(state, rocc.rd, AbsVal::ANY);
            }
        }
        Instr::Ecall => {
            // Syscall return convention: a0 may be clobbered.
            write(state, Reg::A0, AbsVal::ANY);
        }
        Instr::Branch { .. } | Instr::Fence | Instr::Ebreak | Instr::Mret => {}
    }
}
