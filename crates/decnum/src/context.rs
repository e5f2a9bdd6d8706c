//! Arithmetic contexts: precision, exponent range, rounding and status.

use std::fmt;

/// IEEE 754-2008 decimal rounding modes (decNumber's full set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rounding {
    /// Round to nearest, ties to even — the IEEE default.
    #[default]
    HalfEven,
    /// Round to nearest, ties away from zero.
    HalfUp,
    /// Round to nearest, ties toward zero.
    HalfDown,
    /// Truncate (round toward zero).
    Down,
    /// Round away from zero.
    Up,
    /// Round toward positive infinity.
    Ceiling,
    /// Round toward negative infinity.
    Floor,
    /// Truncate, but round up when the discarded digits would leave a final
    /// digit of 0 or 5 (used when re-rounding must be safe).
    ZeroFiveUp,
}

impl Rounding {
    /// All modes, for exhaustive sweeps.
    pub const ALL: [Rounding; 8] = [
        Rounding::HalfEven,
        Rounding::HalfUp,
        Rounding::HalfDown,
        Rounding::Down,
        Rounding::Up,
        Rounding::Ceiling,
        Rounding::Floor,
        Rounding::ZeroFiveUp,
    ];
}

/// Exception status flags accumulated in a [`Context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Status(u32);

impl Status {
    /// No flags set.
    pub const CLEAR: Status = Status(0);
    /// The result was rounded (digits may have been discarded).
    pub const ROUNDED: Status = Status(1 << 0);
    /// Discarded digits were non-zero.
    pub const INEXACT: Status = Status(1 << 1);
    /// The result overflowed the exponent range.
    pub const OVERFLOW: Status = Status(1 << 2);
    /// The result underflowed and lost accuracy.
    pub const UNDERFLOW: Status = Status(1 << 3);
    /// The result is subnormal (before any rounding).
    pub const SUBNORMAL: Status = Status(1 << 4);
    /// The exponent was clamped to fit the format.
    pub const CLAMPED: Status = Status(1 << 5);
    /// An invalid operation (e.g. `0 × ∞`, signaling NaN operand).
    pub const INVALID_OPERATION: Status = Status(1 << 6);
    /// Division of a finite number by zero.
    pub const DIVISION_BY_ZERO: Status = Status(1 << 7);
    /// A string could not be parsed as a decimal number.
    pub const CONVERSION_SYNTAX: Status = Status(1 << 8);

    /// Returns true if every flag in `other` is set in `self`.
    #[must_use]
    pub fn contains(self, other: Status) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns true if any flag in `other` is set in `self`.
    #[must_use]
    pub fn intersects(self, other: Status) -> bool {
        self.0 & other.0 != 0
    }

    /// Sets the flags in `other`.
    pub fn set(&mut self, other: Status) {
        self.0 |= other.0;
    }

    /// Clears all flags.
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// True if no flags are set.
    #[must_use]
    pub fn is_clear(self) -> bool {
        self.0 == 0
    }

    /// Union of two flag sets.
    #[must_use]
    pub fn union(self, other: Status) -> Status {
        Status(self.0 | other.0)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clear() {
            return write!(f, "(clear)");
        }
        let names = [
            (Status::ROUNDED, "rounded"),
            (Status::INEXACT, "inexact"),
            (Status::OVERFLOW, "overflow"),
            (Status::UNDERFLOW, "underflow"),
            (Status::SUBNORMAL, "subnormal"),
            (Status::CLAMPED, "clamped"),
            (Status::INVALID_OPERATION, "invalid-operation"),
            (Status::DIVISION_BY_ZERO, "division-by-zero"),
            (Status::CONVERSION_SYNTAX, "conversion-syntax"),
        ];
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    write!(f, " ")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        Ok(())
    }
}

/// An arithmetic context: working precision, exponent range, rounding mode
/// and accumulated status, mirroring decNumber's `decContext`.
///
/// # Example
///
/// ```
/// use decnum::{Context, DecNumber, Status};
///
/// let mut ctx = Context::decimal64();
/// let a: DecNumber = "9E+384".parse().unwrap();
/// let two: DecNumber = "2".parse().unwrap();
/// let product = a.mul(&two, &mut ctx);
/// assert!(product.is_infinite());
/// assert!(ctx.status().contains(Status::OVERFLOW));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Context {
    /// Working precision in significant digits.
    pub precision: u32,
    /// Largest adjusted exponent of a rounded result.
    pub emax: i32,
    /// Smallest adjusted exponent of a normal result.
    pub emin: i32,
    /// Rounding mode.
    pub rounding: Rounding,
    /// IEEE-style exponent clamping (pad coefficients rather than keep large
    /// exponents), as interchange formats require.
    pub clamp: bool,
    status: Status,
}

impl Context {
    /// A context with the IEEE decimal64 parameters (16 digits) — the
    /// "double" precision evaluated in the paper's Table IV.
    #[must_use]
    pub fn decimal64() -> Self {
        Context {
            precision: 16,
            emax: 384,
            emin: -383,
            rounding: Rounding::HalfEven,
            clamp: true,
            status: Status::CLEAR,
        }
    }

    /// A context with the IEEE decimal128 parameters (34 digits) — the
    /// "quad" precision option of the test-program generator.
    #[must_use]
    pub fn decimal128() -> Self {
        Context {
            precision: 34,
            emax: 6144,
            emin: -6143,
            rounding: Rounding::HalfEven,
            clamp: true,
            status: Status::CLEAR,
        }
    }

    /// An unclamped working context with arbitrary precision and a huge
    /// exponent range, useful for intermediate computation.
    ///
    /// # Panics
    ///
    /// Panics if `precision` is zero.
    #[must_use]
    pub fn with_precision(precision: u32) -> Self {
        assert!(precision > 0, "precision must be at least one digit");
        Context {
            precision,
            emax: 999_999_999,
            emin: -999_999_999,
            rounding: Rounding::HalfEven,
            clamp: false,
            status: Status::CLEAR,
        }
    }

    /// Sets the rounding mode, builder style.
    #[must_use]
    pub fn with_rounding(mut self, rounding: Rounding) -> Self {
        self.rounding = rounding;
        self
    }

    /// The accumulated status flags.
    #[must_use]
    pub fn status(&self) -> Status {
        self.status
    }

    /// Raises status flags.
    pub fn raise(&mut self, flags: Status) {
        self.status.set(flags);
    }

    /// The exponent of the least significant digit of the smallest subnormal
    /// (`Etiny = emin - (precision - 1)`).
    #[must_use]
    pub fn etiny(&self) -> i32 {
        self.emin - (self.precision as i32 - 1)
    }

    /// The largest exponent `q` a coefficient of full precision may carry
    /// (`Etop = emax - (precision - 1)`).
    #[must_use]
    pub fn etop(&self) -> i32 {
        self.emax - (self.precision as i32 - 1)
    }
}

impl Default for Context {
    /// [`Context::decimal64`], the precision the paper evaluates.
    fn default() -> Self {
        Context::decimal64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parameters() {
        let c64 = Context::decimal64();
        assert_eq!(c64.precision, 16);
        assert_eq!(c64.etiny(), -398);
        assert_eq!(c64.etop(), 369);
        let c128 = Context::decimal128();
        assert_eq!(c128.etiny(), -6176);
        assert_eq!(c128.etop(), 6111);
    }

    #[test]
    fn status_flag_algebra() {
        let mut s = Status::CLEAR;
        assert!(s.is_clear());
        s.set(Status::INEXACT);
        s.set(Status::ROUNDED);
        assert!(s.contains(Status::INEXACT));
        assert!(s.contains(Status::INEXACT.union(Status::ROUNDED)));
        assert!(!s.contains(Status::OVERFLOW));
        assert!(s.intersects(Status::OVERFLOW.union(Status::ROUNDED)));
        s.clear();
        assert!(s.is_clear());
    }

    #[test]
    fn status_display() {
        assert_eq!(Status::CLEAR.to_string(), "(clear)");
        assert_eq!(
            Status::INEXACT.union(Status::ROUNDED).to_string(),
            "rounded inexact"
        );
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn zero_precision_rejected() {
        let _ = Context::with_precision(0);
    }
}
