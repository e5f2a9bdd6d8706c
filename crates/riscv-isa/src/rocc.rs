//! RoCC custom-instruction encoding (paper Fig. 3 and Table III).
//!
//! A RoCC instruction uses one of the four `custom-0..3` major opcodes. The
//! `funct7` field selects the accelerator function; `xd`, `xs1` and `xs2`
//! say whether `rd`, `rs1` and `rs2` name Rocket-core integer registers
//! (value exchanged, synchronization required) or accelerator-internal
//! register addresses.

use std::fmt;

use crate::{DecodeError, Reg};

/// The four major opcodes reserved for custom instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CustomOpcode {
    /// `custom-0` (0b0001011) — the opcode the decimal accelerator uses.
    #[default]
    Custom0,
    /// `custom-1` (0b0101011).
    Custom1,
    /// `custom-2` (0b1011011).
    Custom2,
    /// `custom-3` (0b1111011).
    Custom3,
}

impl CustomOpcode {
    /// `(opcode, mnemonic, 7-bit opcode value)` per opcode, in declaration
    /// order.
    pub const TABLE: [(CustomOpcode, &'static str, u32); 4] = [
        (CustomOpcode::Custom0, "custom0", 0b000_1011),
        (CustomOpcode::Custom1, "custom1", 0b010_1011),
        (CustomOpcode::Custom2, "custom2", 0b101_1011),
        (CustomOpcode::Custom3, "custom3", 0b111_1011),
    ];

    /// The 7-bit opcode value.
    #[must_use]
    pub fn bits(self) -> u32 {
        Self::TABLE[self as usize].2
    }

    /// Maps a 7-bit opcode back, if it is a custom opcode.
    #[must_use]
    pub fn from_bits(bits: u32) -> Option<CustomOpcode> {
        Self::TABLE.iter().find_map(|&(op, _, b)| (b == bits).then_some(op))
    }
}

impl fmt::Display for CustomOpcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(Self::TABLE[*self as usize].1)
    }
}

/// One RoCC instruction: `funct7 | rs2 | rs1 | xd xs1 xs2 | rd | opcode`
/// (Fig. 3 of the paper; field widths 7/5/5/1/1/1/5/7).
///
/// # Example
///
/// The paper's `DEC_ADD` example — funct7 `0000100`, sources `x10`/`x11`,
/// destination `x12`, all exchange flags set. The paper prints this as
/// `0x08A5F617`, using `0010111` as the custom-0 opcode; that bit pattern is
/// actually `AUIPC`'s major opcode (a typo in the paper — GCC and Spike
/// would misassemble it). With the architecturally correct custom-0 opcode
/// (`0001011`) the same fields encode to `0x08A5F60B`, which is what this
/// crate produces; every other field matches the paper bit for bit.
///
/// ```
/// use riscv_isa::rocc::{CustomOpcode, RoccInstruction};
/// use riscv_isa::Reg;
///
/// let dec_add = RoccInstruction {
///     opcode: CustomOpcode::Custom0,
///     funct7: 0b0000100,
///     rd: Reg::A2,
///     rs1: Reg::A1,
///     rs2: Reg::A0,
///     xd: true,
///     xs1: true,
///     xs2: true,
/// };
/// assert_eq!(dec_add.encode(), 0x08A5_F60B);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoccInstruction {
    /// Which custom major opcode carries the instruction.
    pub opcode: CustomOpcode,
    /// The accelerator function selector (7 bits).
    pub funct7: u8,
    /// Destination register (core register if `xd`, else an accelerator
    /// register-file address).
    pub rd: Reg,
    /// First source register.
    pub rs1: Reg,
    /// Second source register.
    pub rs2: Reg,
    /// `rd` names a core register: the core waits for the response.
    pub xd: bool,
    /// `rs1` names a core register: its value travels with the command.
    pub xs1: bool,
    /// `rs2` names a core register: its value travels with the command.
    pub xs2: bool,
}

impl RoccInstruction {
    /// Builds a fully-synchronized register instruction (`xd = xs1 = xs2 =
    /// true`), the common shape for compute commands like `DEC_ADD`.
    #[must_use]
    pub fn reg_reg(opcode: CustomOpcode, funct7: u8, rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        RoccInstruction {
            opcode,
            funct7,
            rd,
            rs1,
            rs2,
            xd: true,
            xs1: true,
            xs2: true,
        }
    }

    /// Encodes into the 32-bit instruction word.
    ///
    /// # Panics
    ///
    /// Panics if `funct7` does not fit in seven bits.
    #[must_use]
    pub fn encode(&self) -> u32 {
        assert!(self.funct7 < 0x80, "funct7 {:#x} exceeds 7 bits", self.funct7);
        (u32::from(self.funct7) << 25)
            | (u32::from(self.rs2) << 20)
            | (u32::from(self.rs1) << 15)
            | (u32::from(self.xd) << 14)
            | (u32::from(self.xs1) << 13)
            | (u32::from(self.xs2) << 12)
            | (u32::from(self.rd) << 7)
            | self.opcode.bits()
    }

    /// Decodes from a 32-bit instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the major opcode is not custom-0..3.
    pub fn decode(word: u32) -> Result<Self, DecodeError> {
        let opcode =
            CustomOpcode::from_bits(word & 0x7F).ok_or(DecodeError::Unrecognized(word))?;
        Ok(RoccInstruction {
            opcode,
            funct7: ((word >> 25) & 0x7F) as u8,
            rs2: Reg::new(((word >> 20) & 0x1F) as u8),
            rs1: Reg::new(((word >> 15) & 0x1F) as u8),
            xd: (word >> 14) & 1 == 1,
            xs1: (word >> 13) & 1 == 1,
            xs2: (word >> 12) & 1 == 1,
            rd: Reg::new(((word >> 7) & 0x1F) as u8),
        })
    }

    /// Renders the bit-field layout of Fig. 3 for this instruction, for the
    /// encoding-table report.
    #[must_use]
    pub fn field_layout(&self) -> String {
        format!(
            "funct7={:07b} rs2={:05b} rs1={:05b} xd={} xs1={} xs2={} rd={:05b} opcode={:07b}",
            self.funct7,
            self.rs2.number(),
            self.rs1.number(),
            u8::from(self.xd),
            u8::from(self.xs1),
            u8::from(self.xs2),
            self.rd.number(),
            self.opcode.bits(),
        )
    }
}

/// The assembler's syntax, `custom0 4, a2, a1, a0, 1, 1, 1`: the opcode,
/// then funct7, `rd`, `rs1`, `rs2`, `xd`, `xs1` and `xs2`.
impl fmt::Display for RoccInstruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}, {}, {}, {}, {}, {}, {}",
            self.opcode,
            self.funct7,
            self.rd,
            self.rs1,
            self.rs2,
            u8::from(self.xd),
            u8::from(self.xs1),
            u8::from(self.xs2),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dec_add_encoding() {
        // Table III / Section IV-B print "0x08A5F617", whose opcode bits
        // collide with AUIPC; with the spec custom-0 opcode the identical
        // field values give 0x08A5F60B. All non-opcode fields match the
        // paper's hex exactly.
        let i = RoccInstruction::reg_reg(CustomOpcode::Custom0, 0b0000100, Reg::A2, Reg::A1, Reg::A0);
        assert_eq!(i.encode(), 0x08A5_F60B);
        assert_eq!(i.encode() >> 7, 0x08A5_F617u32 >> 7, "fields above the opcode match the paper");
        assert_eq!(RoccInstruction::decode(0x08A5_F60B).unwrap(), i);
    }

    #[test]
    fn custom_opcode_values() {
        assert_eq!(CustomOpcode::Custom0.bits(), 0b000_1011);
        assert_eq!(CustomOpcode::Custom3.bits(), 0b111_1011);
        assert_eq!(CustomOpcode::from_bits(0b010_1011), Some(CustomOpcode::Custom1));
        assert_eq!(CustomOpcode::from_bits(0b0110011), None);
    }

    #[test]
    fn roundtrip_all_flag_combinations() {
        for flags in 0..8u8 {
            let i = RoccInstruction {
                opcode: CustomOpcode::Custom2,
                funct7: 0x55,
                rd: Reg::T3,
                rs1: Reg::S5,
                rs2: Reg::A7,
                xd: flags & 4 != 0,
                xs1: flags & 2 != 0,
                xs2: flags & 1 != 0,
            };
            assert_eq!(RoccInstruction::decode(i.encode()).unwrap(), i);
        }
    }

    #[test]
    fn decode_rejects_non_custom() {
        assert!(RoccInstruction::decode(0x0000_0033).is_err()); // OP opcode
    }

    #[test]
    fn field_layout_readable() {
        let i = RoccInstruction::reg_reg(CustomOpcode::Custom0, 4, Reg::A2, Reg::A1, Reg::A0);
        assert_eq!(
            i.field_layout(),
            "funct7=0000100 rs2=01010 rs1=01011 xd=1 xs1=1 xs2=1 rd=01100 opcode=0001011"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds 7 bits")]
    fn oversized_funct7_panics() {
        let i = RoccInstruction {
            funct7: 0x80,
            ..RoccInstruction::reg_reg(CustomOpcode::Custom0, 0, Reg::A0, Reg::A0, Reg::A0)
        };
        let _ = i.encode();
    }
}
