//! Packed BCD-8421 arithmetic and hardware-model components.
//!
//! This crate provides the decimal digit-level substrate used throughout the
//! co-design evaluation framework:
//!
//! * [`Bcd64`] — sixteen packed BCD digits in a `u64` (the word size that the
//!   RoCC decimal accelerator exchanges with the Rocket core).
//! * [`Bcd128`] — thirty-two packed BCD digits in a `u128` (wide values such
//!   as coefficient products and the accelerator's internal accumulator).
//! * [`cla`] — a functional, cost-annotated model of the BCD carry-lookahead
//!   adder (BCD-CLA) that the paper's accelerator is built around.
//! * [`convert`] — the double-dabble binary ⇄ BCD circuits that model the
//!   `DEC_CNV` instruction's hardware (the software conversions are
//!   [`Bcd64::from_value`] and [`Bcd64::to_value`]).
//!
//! # Example
//!
//! ```
//! use bcd::Bcd64;
//!
//! # fn main() -> Result<(), bcd::BcdError> {
//! let a = Bcd64::from_value(1234)?;
//! let b = Bcd64::from_value(8766)?;
//! let (sum, carry) = a.add(b);
//! assert_eq!(sum.to_value(), 10_000);
//! assert!(!carry);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bcd128;
mod bcd64;
pub mod cla;
pub mod convert;
mod error;

pub use bcd128::Bcd128;
pub use bcd64::Bcd64;
pub use error::BcdError;

/// Number of decimal digits stored in a [`Bcd64`].
pub const BCD64_DIGITS: u32 = 16;

/// Number of decimal digits stored in a [`Bcd128`].
pub const BCD128_DIGITS: u32 = 32;

/// Mask of the per-nibble decimal carry-out positions for a 64-bit word
/// (bit `4*(i+1)` is the carry out of digit `i`).
pub(crate) const CARRY_BITS64: u128 = 0x1_1111_1111_1111_1110;

/// `0x6` replicated in every nibble of a 64-bit word; the excess-6 bias used
/// by the classic branch-free packed-BCD addition.
pub(crate) const SIXES64: u128 = 0x6666_6666_6666_6666;

/// Adds two packed-BCD `u64` words plus a carry-in.
///
/// Returns `(sum, carry_out)`. Inputs must be valid packed BCD; the output is
/// then valid packed BCD. This is the software reference model of the BCD-CLA
/// hardware (see [`cla`]).
pub(crate) fn raw_add64(a: u64, b: u64, carry_in: bool) -> (u64, bool) {
    let (s1, c1) = raw_add64_nocarry(a, b);
    if carry_in {
        let (s2, c2) = raw_add64_nocarry(s1, 1);
        (s2, c1 | c2)
    } else {
        (s1, c1)
    }
}

fn raw_add64_nocarry(a: u64, b: u64) -> (u64, bool) {
    let t = a as u128 + SIXES64;
    let u = t + b as u128;
    // Bit 4*(i+1) of the carry vector is the carry *into* that bit position,
    // i.e. the decimal carry out of digit i (excess-6 makes a nibble overflow
    // exactly when the digit sum is >= 10).
    let carries = (t ^ b as u128 ^ u) & CARRY_BITS64;
    // Digits that produced no decimal carry still hold the +6 bias: remove it.
    let correction = ((!carries & CARRY_BITS64) >> 4) * 6;
    let sum = (u - correction) as u64;
    let carry_out = carries & (1 << 64) != 0;
    (sum, carry_out)
}

/// Nine's complement of a packed-BCD `u64` word (each digit `d` → `9 - d`).
pub(crate) fn nines_complement64(a: u64) -> u64 {
    // Every nibble of `a` is <= 9, so the subtraction never borrows across
    // nibble boundaries.
    0x9999_9999_9999_9999 - a
}

/// Returns true if every nibble of `raw` is a decimal digit (0..=9).
pub(crate) fn is_valid_packed64(raw: u64) -> bool {
    // A nibble is >= 10 iff adding 6 to it carries out of the nibble.
    let t = (raw as u128 + SIXES64) ^ raw as u128 ^ SIXES64;
    t & CARRY_BITS64 == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_add_simple() {
        assert_eq!(raw_add64(0x19, 0x03, false), (0x22, false));
        assert_eq!(raw_add64(0x99, 0x01, false), (0x100, false));
        assert_eq!(raw_add64(0, 0, false), (0, false));
    }

    #[test]
    fn raw_add_carry_in() {
        assert_eq!(raw_add64(0x19, 0x03, true), (0x23, false));
        assert_eq!(
            raw_add64(0x9999_9999_9999_9999, 0, true),
            (0, true),
            "carry-in ripples through all sixteen nines"
        );
    }

    #[test]
    fn raw_add_full_width_carry() {
        let max = 0x9999_9999_9999_9999;
        assert_eq!(raw_add64(max, 0x1, false), (0, true));
        assert_eq!(raw_add64(max, max, false), (0x9999_9999_9999_9998, true));
    }

    #[test]
    fn validity_check() {
        assert!(is_valid_packed64(0x0123_4567_8901_2345));
        assert!(is_valid_packed64(0x9999_9999_9999_9999));
        assert!(!is_valid_packed64(0x0A00));
        assert!(!is_valid_packed64(0xF000_0000_0000_0000));
    }

    #[test]
    fn nines_complement_works() {
        assert_eq!(nines_complement64(0), 0x9999_9999_9999_9999);
        assert_eq!(
            nines_complement64(0x0123_4567_8912_3456),
            0x9876_5432_1087_6543
        );
    }
}
