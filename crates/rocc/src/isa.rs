//! The decimal accelerator's instruction set (paper Table II, plus the
//! extension functions the deeper-offload methods use).
//!
//! Each function is declared once, as one row of the table below: its
//! funct7 code, name, description, execution-unit busy cycles, interface-FSM
//! serve state and protocol facts ([`FunctSpec`]). The enum,
//! [`DecimalFunct::ALL`] and [`DecimalFunct::spec`] are generated from the
//! rows. What a function computes is the accelerator's execution unit, and
//! `lockstep`'s software model re-states it independently.

use std::fmt;

use crate::accelerator::ACC_INDEX;
use crate::fsm::FsmState;

/// One accelerator function's facts, apart from what it computes: its row
/// of the function table, read through [`DecimalFunct::spec`].
///
/// The protocol facts describe `DecimalAccelerator`'s architectural
/// contract; static checkers (`rvlint`) derive their typestate automaton
/// from them instead of re-transcribing the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctSpec {
    /// The instruction's name as the paper spells it.
    pub name: &'static str,
    /// One-line description (Table II wording where applicable).
    pub description: &'static str,
    /// Execution-unit busy cycles, excluding the core-side
    /// dispatch/response handshake the pipeline model charges. `None` for
    /// `DEC_CNV`, whose shift-and-add-3 takes one cycle per significant
    /// input bit (`bcd::convert::double_dabble`).
    pub busy_cycles: Option<u32>,
    /// The interface-FSM state that serves the command (Fig. 5).
    pub serve_state: FsmState,
    /// The sticky Error state still services the command (everything else
    /// answers benignly and stays latched).
    pub serviced_in_error: bool,
    /// The command leaves the carry latch defined (writes it, or clears it
    /// as part of `CLR_ALL`).
    pub defines_carry: bool,
    /// The command consumes the latched carry.
    pub reads_carry: bool,
    /// The command mutates accelerator-internal state (register file,
    /// accumulator, carry latch or binary scratch), breaking the "freshly
    /// cleared, untouched" condition a redundant-`CLR_ALL` check relies on.
    pub mutates_state: bool,
    /// Core-register operands (`rs1`, `rs2`) that must hold packed BCD.
    pub bcd_operands: (bool, bool),
    /// `rs1` carries a single decimal digit (0–9), checked as a digit
    /// rather than as 16 nibbles.
    pub digit_operand: bool,
    /// The internal registers the command reads, apart from the
    /// accumulator, must hold deposited data (a write or a result since
    /// the last `CLR_ALL`), not merely cleared registers: multiplying a
    /// cleared register is almost certainly a protocol bug.
    pub consumes_deposited: bool,
}

impl FunctSpec {
    /// A row with the given name, description, busy cycles and serve
    /// state that mutates state and has no other fact; rows override the
    /// facts that differ.
    const fn row(
        name: &'static str,
        description: &'static str,
        busy_cycles: Option<u32>,
        serve_state: FsmState,
    ) -> FunctSpec {
        FunctSpec {
            name,
            description,
            busy_cycles,
            serve_state,
            serviced_in_error: false,
            defines_carry: false,
            reads_carry: false,
            mutates_state: true,
            bcd_operands: (false, false),
            digit_operand: false,
            consumes_deposited: false,
        }
    }
}

/// The FSM state a row names: `Execute` carries the row's own function.
macro_rules! serve_state {
    (Execute, $variant:ident) => {
        FsmState::Execute(DecimalFunct::$variant)
    };
    ($state:ident, $variant:ident) => {
        FsmState::$state
    };
}

/// Generates [`DecimalFunct`], [`DecimalFunct::ALL`] and the spec table
/// from one row per function: `Variant = funct7, name, description, busy
/// cycles, serve state { facts that differ from FunctSpec::row }`.
macro_rules! decimal_functs {
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident = $code:literal, $name:literal, $description:literal,
        $busy:expr, $serve:ident { $($fact:ident: $value:tt),* $(,)? };
    )*) => {
        /// The accelerator functions selected by `funct7` of a custom-0
        /// instruction.
        ///
        /// Values 0–8 are the paper's Table II codes verbatim (`CLR_ALL`'s
        /// code appears in its Table III). Values 9–12 are this framework's
        /// extensions: `DEC_ADC` serves Method-1 and Method-1-FT, `DEC_ADD_R`
        /// Method-2, `DEC_MULD` Method-3 and `STAT` Method-1-FT. The paper's
        /// framework explicitly invites adding such instructions ("any such
        /// hardware component can be integrated into the design").
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum DecimalFunct {
            $($(#[doc = $doc])* $variant = $code,)*
        }

        impl DecimalFunct {
            /// All functions, in funct7 order.
            pub const ALL: [DecimalFunct; [$($code),*].len()] = [$(DecimalFunct::$variant),*];

            const SPECS: &'static [FunctSpec] = &[$(FunctSpec {
                $($fact: $value,)*
                ..FunctSpec::row($name, $description, $busy, serve_state!($serve, $variant))
            }),*];
        }
    };
}

decimal_functs! {
    /// Write a 64-bit half of an accelerator register from a core register.
    /// `rs2` field addresses the target: low 4 bits select the register,
    /// bit 4 selects the half.
    Wr = 0b000_0000, "WR", "Write a value to a register in Rocket core",
        Some(1), Write { bcd_operands: (true, false) };
    /// Read a 64-bit half of an accelerator register into a core register.
    /// `rs1` field addresses the source like [`DecimalFunct::Wr`].
    Rd = 0b000_0001, "RD", "Read a value from a register in Rocket core",
        Some(1), Read { mutates_state: false };
    /// Load a 64-bit value from memory (address in core `rs1`) into an
    /// accelerator register half addressed by the `rs2` field, over the RoCC
    /// memory interface.
    Ld = 0b000_0010, "LD", "Load a value from a memory",
        Some(2), Write {};
    /// Binary accumulate (the classic Rocket tutorial accumulator): adds the
    /// core `rs1` value into a binary scratch register and returns the new
    /// value.
    Accum = 0b000_0011, "ACCUM", "Accumulate a value into a register in Rocket core",
        Some(1), Accum {};
    /// BCD addition of two core register values through the BCD-CLA;
    /// the result goes to the core `rd` and the carry-out is latched.
    DecAdd = 0b000_0100, "DEC_ADD", "Add two BCD numbers",
        // One pass through the BCD-CLA.
        Some(1), Execute { defines_carry: true, bcd_operands: (true, true) };
    /// Clear all accelerator state.
    ClrAll = 0b000_0101, "CLR_ALL", "Clear all accelerator state",
        Some(1), Clear { serviced_in_error: true, defines_carry: true, mutates_state: false };
    /// Convert a binary number in core `rs1` to BCD (low 16 digits to `rd`),
    /// modelling a shift-and-add-3 sequential circuit.
    DecCnv = 0b000_0110, "DEC_CNV", "Convert binary number to corresponding BCD",
        // Shift-and-add-3: one cycle per significant input bit.
        None, Execute {};
    /// Full BCD coefficient multiply: `acc = reg[rs1 field] × reg[rs2
    /// field]` (up to 32 digits). The Method-4 design point.
    DecMul = 0b000_0111, "DEC_MUL", "Multiply two BCD numbers",
        // Iterative over sixteen multiplier digits plus setup/drain.
        Some(18), Execute { consumes_deposited: true };
    /// Decimal accumulate step: `acc = acc × 10 + reg[digit]` where the
    /// digit (0–9) arrives in core `rs1`. The Method-2 inner loop.
    DecAccum = 0b000_1000, "DEC_ACCUM", "Accumulate BCD numbers stored in internal registers",
        // Two chained CLA passes over the 128-bit width.
        Some(2), Execute { defines_carry: true, digit_operand: true };
    /// BCD addition with the latched carry as carry-in, for chaining 64-bit
    /// halves of wide values (extension).
    DecAdc = 0b000_1001, "DEC_ADC", "Add two BCD numbers with the latched carry-in",
        Some(1), Execute { defines_carry: true, reads_carry: true, bcd_operands: (true, true) };
    /// Register-file-addressed wide BCD add: `reg[rd field] = reg[rs1 field]
    /// + reg[rs2 field]` at full 128-bit width (extension).
    DecAddR = 0b000_1010, "DEC_ADD_R", "Wide BCD add of two internal registers",
        // Two chained CLA passes over the 128-bit width.
        Some(2), Execute { defines_carry: true, consumes_deposited: true };
    /// Digit multiply-accumulate: `acc = acc × 10 + reg[1] × digit` with the
    /// digit in core `rs1`. The Method-3 inner loop (extension).
    DecMulD = 0b000_1011, "DEC_MULD", "Multiply internal register by a digit and accumulate",
        // The parallel 2X/4X/8X generators (paid for in area) compose the
        // multiple in one pass, then the wide accumulate takes the second
        // cycle.
        Some(2), Execute { defines_carry: true, digit_operand: true, consumes_deposited: true };
    /// Read the accelerator's status/cause word into the core `rd`
    /// (extension; serviced even in the sticky `Error` state — see
    /// [`crate::AccelStatus`] for the wire format).
    Stat = 0b000_1100, "STAT", "Read the accelerator status/cause word",
        Some(1), Read { serviced_in_error: true, mutates_state: false };
}

// `from_funct7` and `spec` index by funct7: the rows count up from 0.
const _: () = {
    let mut i = 0;
    while i < DecimalFunct::ALL.len() {
        assert!(DecimalFunct::ALL[i] as usize == i, "funct7 order");
        i += 1;
    }
};

impl DecimalFunct {
    /// The funct7 encoding.
    #[must_use]
    pub fn funct7(self) -> u8 {
        self as u8
    }

    /// Decodes a funct7 value.
    #[must_use]
    pub fn from_funct7(funct7: u8) -> Option<DecimalFunct> {
        DecimalFunct::ALL.get(usize::from(funct7)).copied()
    }

    /// The function's row: name, description, busy cycles, serve state and
    /// protocol facts.
    #[must_use]
    pub fn spec(self) -> &'static FunctSpec {
        &DecimalFunct::SPECS[self as usize]
    }

    /// True for functions the paper's Table II lists (as opposed to this
    /// framework's extensions).
    #[must_use]
    pub fn in_paper_table2(self) -> bool {
        self.funct7() <= DecimalFunct::DecAccum.funct7()
    }

    /// Internal register-file registers the command reads, as a 16-bit
    /// mask over the register index space. `fields` carries the decoded
    /// `(rd_field, rs1_field, rs2_field)` operand fields of the concrete
    /// instruction (register-file addresses for the register-addressed
    /// commands). `DEC_ACCUM`'s addend register is selected by a runtime
    /// digit, so it conservatively reads registers 0–9.
    #[must_use]
    pub fn regs_read(self, fields: (u8, u8, u8)) -> u16 {
        let (_, rs1_field, rs2_field) = fields;
        let bit = |field: u8| 1u16 << decode_reg_address(field).0;
        let acc = 1u16 << ACC_INDEX;
        match self {
            DecimalFunct::Rd => bit(rs1_field),
            DecimalFunct::DecMul | DecimalFunct::DecAddR => bit(rs1_field) | bit(rs2_field),
            DecimalFunct::DecAccum => acc | 0x03FF,
            DecimalFunct::DecMulD => acc | (1 << 1),
            _ => 0,
        }
    }

    /// Internal register-file registers the command writes, as a mask like
    /// [`DecimalFunct::regs_read`]. `CLR_ALL` defines every register (to
    /// zero) and is reported as writing all sixteen.
    #[must_use]
    pub fn regs_written(self, fields: (u8, u8, u8)) -> u16 {
        let (rd_field, _, rs2_field) = fields;
        let bit = |field: u8| 1u16 << decode_reg_address(field).0;
        let acc = 1u16 << ACC_INDEX;
        match self {
            DecimalFunct::Wr | DecimalFunct::Ld => bit(rs2_field),
            DecimalFunct::DecAddR => bit(rd_field),
            DecimalFunct::DecCnv
            | DecimalFunct::DecMul
            | DecimalFunct::DecAccum
            | DecimalFunct::DecMulD => acc,
            DecimalFunct::ClrAll => 0xFFFF,
            _ => 0,
        }
    }
}

impl fmt::Display for DecimalFunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

/// Decodes a register-file address field: `(register index, half)` where
/// half 0 is bits 63:0 and half 1 is bits 127:64.
#[must_use]
pub fn decode_reg_address(field: u8) -> (usize, usize) {
    ((field & 0xF) as usize, ((field >> 4) & 1) as usize)
}

/// Encodes a register-file address field from `(register index, half)`.
///
/// # Panics
///
/// Panics if `index > 15` or `half > 1`.
#[must_use]
pub fn encode_reg_address(index: usize, half: usize) -> u8 {
    assert!(index < 16, "register index {index} out of range");
    assert!(half < 2, "half {half} out of range");
    ((half as u8) << 4) | index as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_funct7_values() {
        // Table II of the paper.
        assert_eq!(DecimalFunct::Wr.funct7(), 0b000_0000);
        assert_eq!(DecimalFunct::Rd.funct7(), 0b000_0001);
        assert_eq!(DecimalFunct::Ld.funct7(), 0b000_0010);
        assert_eq!(DecimalFunct::Accum.funct7(), 0b000_0011);
        assert_eq!(DecimalFunct::DecAdd.funct7(), 0b000_0100);
        assert_eq!(DecimalFunct::ClrAll.funct7(), 0b000_0101);
        assert_eq!(DecimalFunct::DecCnv.funct7(), 0b000_0110);
        assert_eq!(DecimalFunct::DecMul.funct7(), 0b000_0111);
        assert_eq!(DecimalFunct::DecAccum.funct7(), 0b000_1000);
    }

    #[test]
    fn funct7_roundtrip() {
        for f in DecimalFunct::ALL {
            assert_eq!(DecimalFunct::from_funct7(f.funct7()), Some(f));
        }
        for code in 0..=u8::MAX {
            let searched = DecimalFunct::ALL.into_iter().find(|f| f.funct7() == code);
            assert_eq!(DecimalFunct::from_funct7(code), searched, "{code}");
        }
    }

    #[test]
    fn paper_subset_flag() {
        assert!(DecimalFunct::DecAdd.in_paper_table2());
        assert!(DecimalFunct::DecAccum.in_paper_table2());
        assert!(!DecimalFunct::DecAdc.in_paper_table2());
        assert!(!DecimalFunct::Stat.in_paper_table2());
    }

    #[test]
    fn typestate_metadata_matches_accelerator_contract() {
        use DecimalFunct as F;
        // Error-state servicing mirrors `DecimalAccelerator::command`.
        for f in F::ALL {
            assert_eq!(
                f.spec().serviced_in_error,
                matches!(f, F::Stat | F::ClrAll),
                "{f}"
            );
        }
        // Only DEC_ADC consumes the latch; every carry consumer's
        // producers are the BCD adders plus CLR_ALL's clear.
        assert!(F::DecAdc.spec().reads_carry);
        assert!(F::DecAdd.spec().defines_carry && F::ClrAll.spec().defines_carry);
        assert!(!F::Wr.spec().defines_carry && !F::Stat.spec().reads_carry);
        // Register-file dataflow for the concrete kernel encodings.
        let acc = 1u16 << ACC_INDEX;
        assert_eq!(F::Wr.regs_written((0, 0, 1)), 1 << 1);
        assert_eq!(F::Ld.regs_written((0, 0, 0x12)), 1 << 2);
        assert_eq!(F::DecMul.regs_read((0, 1, 2)), (1 << 1) | (1 << 2));
        assert_eq!(F::DecMul.regs_written((0, 1, 2)), acc);
        assert_eq!(F::DecAddR.regs_written((3, 1, 2)), 1 << 3);
        assert_eq!(F::DecMulD.regs_read((0, 0, 0)), acc | (1 << 1));
        assert_eq!(F::DecAccum.regs_read((0, 0, 0)), acc | 0x03FF);
        assert_eq!(F::ClrAll.regs_written((0, 0, 0)), 0xFFFF);
        // Half-addressed fields land on the same register index.
        assert_eq!(F::Rd.regs_read((0, 0x1F, 0)), acc);
        // Operand classes.
        assert_eq!(F::DecAdd.spec().bcd_operands, (true, true));
        assert_eq!(F::Wr.spec().bcd_operands, (true, false));
        assert!(F::DecAccum.spec().digit_operand && F::DecMulD.spec().digit_operand);
        assert!(!F::DecAdd.spec().digit_operand);
        // State mutation: reads don't dirty, writes do.
        assert!(!F::Rd.spec().mutates_state && !F::Stat.spec().mutates_state);
        assert!(F::Wr.spec().mutates_state && F::Accum.spec().mutates_state);
        // Deposited operands: the explicitly addressed multiplicands.
        let deposited: Vec<F> = F::ALL
            .into_iter()
            .filter(|f| f.spec().consumes_deposited)
            .collect();
        assert_eq!(deposited, [F::DecMul, F::DecAddR, F::DecMulD]);
    }

    #[test]
    fn reg_address_roundtrip() {
        for index in 0..16 {
            for half in 0..2 {
                assert_eq!(
                    decode_reg_address(encode_reg_address(index, half)),
                    (index, half)
                );
            }
        }
    }
}
