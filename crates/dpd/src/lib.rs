//! Densely Packed Decimal (DPD) and the IEEE 754-2008 decimal interchange
//! formats.
//!
//! The evaluation framework uses DPD throughout, as the paper does ("we use
//! base billion, DPD encoding, with BCD-8421 on hardware"): operands arrive
//! in the [`Decimal64`]/[`Decimal128`] interchange encodings, the co-design
//! kernels unpack the DPD coefficient into BCD with cheap declet table
//! lookups, and results are repacked the same way.
//!
//! * [`declet`] — the 3-digit ⇄ 10-bit compression at the heart of DPD.
//! * [`Decimal64`], [`Decimal128`] — the interchange formats (the paper's
//!   "double" is decimal64 and "quad" is decimal128).
//!
//! # Example
//!
//! ```
//! use bcd::Bcd64;
//! use dpd::{Decimal64, Sign};
//!
//! # fn main() -> Result<(), dpd::DpdError> {
//! let price = Decimal64::from_parts(Sign::Positive, Bcd64::from_value(1999).unwrap(), -2)?;
//! assert_eq!(price.to_string(), "1999E-2"); // 19.99
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod d128;
mod d64;
pub mod declet;
mod error;

pub use d128::{Decimal128, Parts128};
pub use d64::{Decimal64, Parts64};
pub use error::DpdError;

/// The sign of a decimal value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sign {
    /// Positive (sign bit clear).
    #[default]
    Positive,
    /// Negative (sign bit set).
    Negative,
}

impl Sign {
    /// XOR of two signs — the sign rule for multiplication and division.
    #[must_use]
    pub fn xor(self, other: Sign) -> Sign {
        if self == other {
            Sign::Positive
        } else {
            Sign::Negative
        }
    }

    /// The opposite sign.
    #[must_use]
    pub fn negate(self) -> Sign {
        self.xor(Sign::Negative)
    }

    /// True for [`Sign::Negative`].
    #[must_use]
    pub fn is_negative(self) -> bool {
        self == Sign::Negative
    }
}

impl std::fmt::Display for Sign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sign::Positive => write!(f, "+"),
            Sign::Negative => write!(f, "-"),
        }
    }
}

/// Classification of an interchange value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// An ordinary (possibly zero or subnormal) number.
    Finite,
    /// Positive or negative infinity.
    Infinity,
    /// Quiet NaN.
    QuietNan,
    /// Signaling NaN.
    SignalingNan,
}

impl Class {
    /// True for quiet or signaling NaN.
    #[must_use]
    pub fn is_nan(self) -> bool {
        matches!(self, Class::QuietNan | Class::SignalingNan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_rules() {
        assert_eq!(Sign::Positive.xor(Sign::Positive), Sign::Positive);
        assert_eq!(Sign::Positive.xor(Sign::Negative), Sign::Negative);
        assert_eq!(Sign::Negative.xor(Sign::Negative), Sign::Positive);
        assert_eq!(Sign::Negative.negate(), Sign::Positive);
        assert!(Sign::Negative.is_negative());
        assert!(!Sign::Positive.is_negative());
    }

    #[test]
    fn class_predicates() {
        assert!(Class::QuietNan.is_nan());
        assert!(Class::SignalingNan.is_nan());
        assert!(!Class::Infinity.is_nan());
    }
}
