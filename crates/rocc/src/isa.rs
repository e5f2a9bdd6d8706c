//! The decimal accelerator's instruction set (paper Table II, plus the
//! extension functions the deeper-offload methods use).

use std::fmt;

use crate::accelerator::ACC_INDEX;

/// The accelerator functions selected by `funct7` of a custom-0 instruction.
///
/// Values 0–8 are the paper's Table II codes verbatim (`CLR_ALL`'s code
/// appears in its Table III). Values 9–11 are this framework's extensions,
/// used by the Method-2/3/4 design points; the paper's framework explicitly
/// invites adding such instructions ("any such hardware component can be
/// integrated into the design").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum DecimalFunct {
    /// Write a 64-bit half of an accelerator register from a core register.
    /// `rs2` field addresses the target: low 4 bits select the register,
    /// bit 4 selects the half.
    Wr = 0b000_0000,
    /// Read a 64-bit half of an accelerator register into a core register.
    /// `rs1` field addresses the source like [`DecimalFunct::Wr`].
    Rd = 0b000_0001,
    /// Load a 64-bit value from memory (address in core `rs1`) into an
    /// accelerator register half addressed by the `rs2` field, over the RoCC
    /// memory interface.
    Ld = 0b000_0010,
    /// Binary accumulate (the classic Rocket tutorial accumulator): adds the
    /// core `rs1` value into a binary scratch register and returns the new
    /// value.
    Accum = 0b000_0011,
    /// BCD addition of two core register values through the BCD-CLA;
    /// the result goes to the core `rd` and the carry-out is latched.
    DecAdd = 0b000_0100,
    /// Clear all accelerator state.
    ClrAll = 0b000_0101,
    /// Convert a binary number in core `rs1` to BCD (low 16 digits to `rd`),
    /// modelling a shift-and-add-3 sequential circuit.
    DecCnv = 0b000_0110,
    /// Full BCD coefficient multiply: `acc = reg[rs1 field] × reg[rs2
    /// field]` (up to 32 digits). The Method-4 design point.
    DecMul = 0b000_0111,
    /// Decimal accumulate step: `acc = acc × 10 + reg[digit]` where the
    /// digit (0–9) arrives in core `rs1`. The Method-2 inner loop.
    DecAccum = 0b000_1000,
    /// BCD addition with the latched carry as carry-in, for chaining 64-bit
    /// halves of wide values (extension).
    DecAdc = 0b000_1001,
    /// Register-file-addressed wide BCD add: `reg[rd field] = reg[rs1 field]
    /// + reg[rs2 field]` at full 128-bit width (extension).
    DecAddR = 0b000_1010,
    /// Digit multiply-accumulate: `acc = acc × 10 + reg[1] × digit` with the
    /// digit in core `rs1`. The Method-3 inner loop (extension).
    DecMulD = 0b000_1011,
    /// Read the accelerator's status/cause word into the core `rd`
    /// (extension; serviced even in the sticky `Error` state — see
    /// [`crate::AccelStatus`] for the wire format).
    Stat = 0b000_1100,
}

impl DecimalFunct {
    /// All functions, in funct7 order.
    pub const ALL: [DecimalFunct; 13] = [
        DecimalFunct::Wr,
        DecimalFunct::Rd,
        DecimalFunct::Ld,
        DecimalFunct::Accum,
        DecimalFunct::DecAdd,
        DecimalFunct::ClrAll,
        DecimalFunct::DecCnv,
        DecimalFunct::DecMul,
        DecimalFunct::DecAccum,
        DecimalFunct::DecAdc,
        DecimalFunct::DecAddR,
        DecimalFunct::DecMulD,
        DecimalFunct::Stat,
    ];

    /// The funct7 encoding.
    #[must_use]
    pub fn funct7(self) -> u8 {
        self as u8
    }

    /// Decodes a funct7 value.
    #[must_use]
    pub fn from_funct7(funct7: u8) -> Option<DecimalFunct> {
        DecimalFunct::ALL
            .into_iter()
            .find(|f| f.funct7() == funct7)
    }

    /// The instruction's name as the paper spells it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DecimalFunct::Wr => "WR",
            DecimalFunct::Rd => "RD",
            DecimalFunct::Ld => "LD",
            DecimalFunct::Accum => "ACCUM",
            DecimalFunct::DecAdd => "DEC_ADD",
            DecimalFunct::ClrAll => "CLR_ALL",
            DecimalFunct::DecCnv => "DEC_CNV",
            DecimalFunct::DecMul => "DEC_MUL",
            DecimalFunct::DecAccum => "DEC_ACCUM",
            DecimalFunct::DecAdc => "DEC_ADC",
            DecimalFunct::DecAddR => "DEC_ADD_R",
            DecimalFunct::DecMulD => "DEC_MULD",
            DecimalFunct::Stat => "STAT",
        }
    }

    /// One-line description (Table II wording where applicable).
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            DecimalFunct::Wr => "Write a value to a register in Rocket core",
            DecimalFunct::Rd => "Read a value from a register in Rocket core",
            DecimalFunct::Ld => "Load a value from a memory",
            DecimalFunct::Accum => "Accumulate a value into a register in Rocket core",
            DecimalFunct::DecAdd => "Add two BCD numbers",
            DecimalFunct::ClrAll => "Clear all accelerator state",
            DecimalFunct::DecCnv => "Convert binary number to corresponding BCD",
            DecimalFunct::DecMul => "Multiply two BCD numbers",
            DecimalFunct::DecAccum => "Accumulate BCD numbers stored in internal registers",
            DecimalFunct::DecAdc => "Add two BCD numbers with the latched carry-in",
            DecimalFunct::DecAddR => "Wide BCD add of two internal registers",
            DecimalFunct::DecMulD => "Multiply internal register by a digit and accumulate",
            DecimalFunct::Stat => "Read the accelerator status/cause word",
        }
    }

    /// True for functions the paper's Table II lists (as opposed to this
    /// framework's extensions).
    #[must_use]
    pub fn in_paper_table2(self) -> bool {
        self.funct7() <= DecimalFunct::DecAccum.funct7()
    }

    // ---- protocol/typestate metadata (consumed by `rvlint`) ------------
    //
    // These describe the architectural contract of `DecimalAccelerator`:
    // which commands the sticky Error state still services, which touch
    // the carry latch, and which internal registers each command reads
    // and writes. Static checkers derive their typestate automaton from
    // these instead of duplicating the `accelerator.rs` match.

    /// True if the sticky Error state still services this command
    /// (everything else answers benignly and stays latched).
    #[must_use]
    pub fn serviced_in_error(self) -> bool {
        matches!(self, DecimalFunct::Stat | DecimalFunct::ClrAll)
    }

    /// True if the command leaves the carry latch in a defined state
    /// (writes it, or clears it as part of `CLR_ALL`).
    #[must_use]
    pub fn defines_carry(self) -> bool {
        matches!(
            self,
            DecimalFunct::DecAdd
                | DecimalFunct::DecAdc
                | DecimalFunct::DecAccum
                | DecimalFunct::DecAddR
                | DecimalFunct::DecMulD
                | DecimalFunct::ClrAll
        )
    }

    /// True if the command consumes the latched carry (`DEC_ADC` only).
    #[must_use]
    pub fn reads_carry(self) -> bool {
        self == DecimalFunct::DecAdc
    }

    /// True if the command mutates accelerator-internal state (register
    /// file, accumulator, carry latch, or binary scratch) — i.e. breaks
    /// the "freshly cleared, untouched" condition a redundant `CLR_ALL`
    /// check relies on.
    #[must_use]
    pub fn mutates_state(self) -> bool {
        !matches!(
            self,
            DecimalFunct::Rd | DecimalFunct::Stat | DecimalFunct::ClrAll
        )
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

    /// Core-register operands (`rs1`, `rs2`) that must hold packed-BCD
    /// data, as a pair of booleans. `DEC_ACCUM`/`DEC_MULD` take a single
    /// digit in `rs1` (checked separately as a digit, not 16 nibbles).
    #[must_use]
    pub fn bcd_operands(self) -> (bool, bool) {
        match self {
            DecimalFunct::DecAdd | DecimalFunct::DecAdc => (true, true),
            DecimalFunct::Wr => (true, false),
            _ => (false, false),
        }
    }

    /// True if `rs1` carries a single decimal digit (0–9).
    #[must_use]
    pub fn digit_operand(self) -> bool {
        matches!(self, DecimalFunct::DecAccum | DecimalFunct::DecMulD)
    }
}

impl fmt::Display for DecimalFunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
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
        assert_eq!(DecimalFunct::from_funct7(0x7F), None);
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
                f.serviced_in_error(),
                matches!(f, F::Stat | F::ClrAll),
                "{f}"
            );
        }
        // Only DEC_ADC consumes the latch; every carry consumer's
        // producers are the BCD adders plus CLR_ALL's clear.
        assert!(F::DecAdc.reads_carry());
        assert!(F::DecAdd.defines_carry() && F::ClrAll.defines_carry());
        assert!(!F::Wr.defines_carry() && !F::Stat.reads_carry());
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
        assert_eq!(F::DecAdd.bcd_operands(), (true, true));
        assert_eq!(F::Wr.bcd_operands(), (true, false));
        assert!(F::DecAccum.digit_operand() && F::DecMulD.digit_operand());
        assert!(!F::DecAdd.digit_operand());
        // State mutation: reads don't dirty, writes do.
        assert!(!F::Rd.mutates_state() && !F::Stat.mutates_state());
        assert!(F::Wr.mutates_state() && F::Accum.mutates_state());
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
