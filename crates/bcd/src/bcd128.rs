use std::fmt;
use std::str::FromStr;

use crate::{is_valid_packed64, Bcd64, BcdError, BCD128_DIGITS};

/// Thirty-two packed BCD-8421 digits in a `u128`.
///
/// Wide BCD values appear in two places in the co-design: coefficient
/// products (16 × 16 digits → up to 32 digits) and the decimal accelerator's
/// internal accumulator, which `DEC_ACCUM` updates without round-tripping
/// through the core.
///
/// # Example
///
/// ```
/// use bcd::{Bcd64, Bcd128};
///
/// # fn main() -> Result<(), bcd::BcdError> {
/// let x = Bcd64::from_value(9_999_999_999_999_999)?;
/// let square: Bcd128 = x.full_mul(x);
/// assert_eq!(square.significant_digits(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bcd128(u128);

impl Bcd128 {
    /// The zero value.
    pub const ZERO: Bcd128 = Bcd128(0);
    /// The one value.
    pub const ONE: Bcd128 = Bcd128(1);
    /// The largest representable value (thirty-two nines).
    pub const MAX: Bcd128 = Bcd128(0x9999_9999_9999_9999_9999_9999_9999_9999);

    /// Wraps a raw packed word, validating every nibble.
    ///
    /// # Errors
    ///
    /// Returns [`BcdError::InvalidNibble`] if any nibble is `0xA..=0xF`.
    pub fn new(raw: u128) -> Result<Self, BcdError> {
        if is_valid_packed64(raw as u64) && is_valid_packed64((raw >> 64) as u64) {
            Ok(Bcd128(raw))
        } else {
            let position = (0..32)
                .find(|&i| (raw >> (4 * i)) & 0xF > 9)
                .expect("invalid word must contain an invalid nibble");
            Err(BcdError::InvalidNibble {
                position,
                nibble: ((raw >> (4 * position)) & 0xF) as u8,
            })
        }
    }

    /// Wraps a raw packed word the caller already knows is valid.
    #[must_use]
    pub const fn from_raw_unchecked(raw: u128) -> Self {
        Bcd128(raw)
    }

    /// Zero-extends a [`Bcd64`] into the wide type.
    #[must_use]
    pub const fn from_bcd64(b: Bcd64) -> Self {
        Bcd128(b.raw() as u128)
    }

    /// Builds a wide value from `(high, low)` 64-bit halves.
    #[must_use]
    pub fn from_halves(high: Bcd64, low: Bcd64) -> Self {
        Bcd128(((high.raw() as u128) << 64) | low.raw() as u128)
    }

    /// Converts a binary integer to BCD.
    ///
    /// # Errors
    ///
    /// Returns [`BcdError::ValueTooLarge`] if `value >= 10^32`.
    pub fn from_value(value: u128) -> Result<Self, BcdError> {
        const LIMIT: u128 = 100_000_000_000_000_000_000_000_000_000_000; // 10^32
        if value >= LIMIT {
            return Err(BcdError::ValueTooLarge {
                capacity: BCD128_DIGITS,
            });
        }
        let mut raw = 0u128;
        let mut v = value;
        let mut shift = 0;
        while v != 0 {
            raw |= (v % 10) << shift;
            v /= 10;
            shift += 4;
        }
        Ok(Bcd128(raw))
    }

    /// The raw packed representation.
    #[must_use]
    pub const fn raw(self) -> u128 {
        self.0
    }

    /// Splits into `(high, low)` 64-bit halves.
    #[must_use]
    pub fn to_halves(self) -> (Bcd64, Bcd64) {
        (
            Bcd64::from_raw_unchecked((self.0 >> 64) as u64),
            Bcd64::from_raw_unchecked(self.0 as u64),
        )
    }

    /// The low sixteen digits (truncation).
    #[must_use]
    pub fn low(self) -> Bcd64 {
        self.to_halves().1
    }

    /// Converts back to a binary integer.
    #[must_use]
    pub fn to_value(self) -> u128 {
        let mut v = 0u128;
        for i in (0..32).rev() {
            v = v * 10 + ((self.0 >> (4 * i)) & 0xF);
        }
        v
    }

    /// Returns digit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 32`.
    #[must_use]
    pub fn digit(self, i: u32) -> u8 {
        assert!(i < BCD128_DIGITS, "digit index {i} out of range");
        ((self.0 >> (4 * i)) & 0xF) as u8
    }

    /// Number of significant decimal digits (zero has zero).
    #[must_use]
    pub fn significant_digits(self) -> u32 {
        if self.0 == 0 {
            0
        } else {
            32 - self.0.leading_zeros() / 4
        }
    }

    /// True if the value is zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Decimal addition. Returns `(sum, carry_out)`.
    ///
    /// Implemented as two chained 64-bit BCD adds, exactly as the guest
    /// kernels chain `DEC_ADD`/`DEC_ADC` over the RoCC interface.
    // Not `std::ops`: decimal add/sub also return the carry/borrow.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn add(self, other: Bcd128) -> (Bcd128, bool) {
        let (ah, al) = self.to_halves();
        let (bh, bl) = other.to_halves();
        let (lo, c0) = al.add(bl);
        let (hi, c1) = ah.adc(bh, c0);
        (Bcd128::from_halves(hi, lo), c1)
    }

    /// Decimal subtraction. Returns `(difference, borrow)`.
    // Not `std::ops`: decimal add/sub also return the carry/borrow.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn sub(self, other: Bcd128) -> (Bcd128, bool) {
        let (ah, al) = self.to_halves();
        let (bh, bl) = other.to_halves();
        let (lo, borrow_lo) = al.sub(bl);
        // Propagate the borrow by subtracting (bh + borrow).
        let (hi1, borrow1) = ah.sub(bh);
        if borrow_lo {
            let (hi2, borrow2) = hi1.sub(Bcd64::ONE);
            (Bcd128::from_halves(hi2, lo), borrow1 | borrow2)
        } else {
            (Bcd128::from_halves(hi1, lo), borrow1)
        }
    }

    /// Shifts left by `digits` decimal digits.
    #[must_use]
    pub fn shl_digits(self, digits: u32) -> Bcd128 {
        if digits >= BCD128_DIGITS {
            Bcd128(0)
        } else {
            Bcd128(self.0 << (4 * digits))
        }
    }

    /// Shifts right by `digits` decimal digits (discarding low digits).
    #[must_use]
    pub fn shr_digits(self, digits: u32) -> Bcd128 {
        if digits >= BCD128_DIGITS {
            Bcd128(0)
        } else {
            Bcd128(self.0 >> (4 * digits))
        }
    }

    /// True if any of the lowest `digits` digits is non-zero (the "sticky"
    /// condition used when rounding a shifted-off tail).
    #[must_use]
    pub fn sticky_below(self, digits: u32) -> bool {
        if digits == 0 {
            false
        } else if digits >= BCD128_DIGITS {
            !self.is_zero()
        } else {
            self.0 & ((1u128 << (4 * digits)) - 1) != 0
        }
    }

    /// Iterates over all thirty-two digit positions, least significant first.
    pub fn iter_digits(self) -> impl Iterator<Item = u8> {
        (0..BCD128_DIGITS).map(move |i| self.digit(i))
    }
}

impl fmt::Debug for Bcd128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bcd128({:#034x})", self.0)
    }
}

impl fmt::Display for Bcd128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_value())
    }
}

impl fmt::LowerHex for Bcd128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<Bcd64> for Bcd128 {
    fn from(b: Bcd64) -> Self {
        Bcd128::from_bcd64(b)
    }
}

impl FromStr for Bcd128 {
    type Err = BcdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return Err(BcdError::ParseError);
        }
        if s.len() > 32 {
            return Err(BcdError::ValueTooLarge {
                capacity: BCD128_DIGITS,
            });
        }
        let mut raw = 0u128;
        for b in s.bytes() {
            raw = (raw << 4) | u128::from(b - b'0');
        }
        Ok(Bcd128(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        for v in [0u128, 1, 99, 10u128.pow(31), 10u128.pow(32) - 1] {
            assert_eq!(Bcd128::from_value(v).unwrap().to_value(), v);
        }
        assert!(Bcd128::from_value(10u128.pow(32)).is_err());
    }

    #[test]
    fn halves_roundtrip() {
        let hi = Bcd64::from_value(1234).unwrap();
        let lo = Bcd64::from_value(5678).unwrap();
        let wide = Bcd128::from_halves(hi, lo);
        assert_eq!(wide.to_halves(), (hi, lo));
        assert_eq!(wide.low(), lo);
    }

    #[test]
    fn add_carries_across_halves() {
        let a = Bcd128::from_value(9_999_999_999_999_999).unwrap(); // all 16 low digits
        let (s, c) = a.add(Bcd128::ONE);
        assert_eq!(s.to_value(), 10_000_000_000_000_000);
        assert!(!c);
    }

    #[test]
    fn add_overflow() {
        let (s, c) = Bcd128::MAX.add(Bcd128::ONE);
        assert_eq!(s, Bcd128::ZERO);
        assert!(c);
    }

    #[test]
    fn sub_across_halves() {
        let a = Bcd128::from_value(10_000_000_000_000_000).unwrap();
        let (d, borrow) = a.sub(Bcd128::ONE);
        assert_eq!(d.to_value(), 9_999_999_999_999_999);
        assert!(!borrow);
        let (_, borrow2) = Bcd128::ZERO.sub(Bcd128::ONE);
        assert!(borrow2);
    }

    #[test]
    fn shifts_and_sticky() {
        let v = Bcd128::from_value(123_400).unwrap();
        assert_eq!(v.shl_digits(2).to_value(), 12_340_000);
        assert_eq!(v.shr_digits(3).to_value(), 123);
        assert!(v.sticky_below(3));
        assert!(!v.sticky_below(2));
        assert!(!Bcd128::ZERO.sticky_below(32));
        assert!(Bcd128::ONE.sticky_below(32));
    }

    #[test]
    fn significant_digits_wide() {
        assert_eq!(Bcd128::ZERO.significant_digits(), 0);
        assert_eq!(Bcd128::from_value(10u128.pow(16)).unwrap().significant_digits(), 17);
        assert_eq!(Bcd128::MAX.significant_digits(), 32);
    }

    #[test]
    fn parse_long_string() {
        let s = "12345678901234567890123456789012";
        let b: Bcd128 = s.parse().unwrap();
        assert_eq!(b.to_string(), s);
        assert!("123456789012345678901234567890123".parse::<Bcd128>().is_err());
    }
}
