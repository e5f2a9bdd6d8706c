//! The arbitrary-precision decimal number type.

use std::fmt;
use std::str::FromStr;

use dpd::Sign;

use crate::context::{Context, Status};

/// What kind of value a [`DecNumber`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// An ordinary finite number (including zeros and subnormals).
    Finite,
    /// Positive or negative infinity.
    Infinity,
    /// Not-a-number; `signaling` NaNs raise invalid-operation when used.
    Nan {
        /// True for a signaling NaN.
        signaling: bool,
    },
}

/// An arbitrary-precision decimal floating-point number, modelled on IBM's
/// decNumber: a sign, a coefficient held as decimal digits, and an exponent.
///
/// All arithmetic is performed through a [`Context`] which supplies the
/// working precision, rounding mode and exponent range, and accumulates
/// exception status — exactly how the software baseline of the paper's
/// evaluation computes.
///
/// # Example
///
/// ```
/// use decnum::{Context, DecNumber};
///
/// let mut ctx = Context::decimal64();
/// let price: DecNumber = "19.99".parse().unwrap();
/// let qty: DecNumber = "3".parse().unwrap();
/// assert_eq!(price.mul(&qty, &mut ctx).to_string(), "59.97");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecNumber {
    pub(crate) sign: Sign,
    pub(crate) kind: Kind,
    /// Coefficient digits, least significant first, with no most-significant
    /// zeros (the empty vector is a zero coefficient). For NaNs this holds
    /// the diagnostic payload.
    pub(crate) digits: Vec<u8>,
    pub(crate) exponent: i32,
}

impl DecNumber {
    /// Positive zero with exponent 0.
    #[must_use]
    pub fn zero() -> Self {
        DecNumber {
            sign: Sign::Positive,
            kind: Kind::Finite,
            digits: Vec::new(),
            exponent: 0,
        }
    }

    /// One.
    #[must_use]
    pub fn one() -> Self {
        DecNumber::from_u64(1)
    }

    /// Positive infinity.
    #[must_use]
    pub fn infinity(sign: Sign) -> Self {
        DecNumber {
            sign,
            kind: Kind::Infinity,
            digits: Vec::new(),
            exponent: 0,
        }
    }

    /// A quiet NaN with no payload.
    #[must_use]
    pub fn nan() -> Self {
        DecNumber {
            sign: Sign::Positive,
            kind: Kind::Nan { signaling: false },
            digits: Vec::new(),
            exponent: 0,
        }
    }

    /// A signaling NaN with no payload.
    #[must_use]
    pub fn snan() -> Self {
        DecNumber {
            sign: Sign::Positive,
            kind: Kind::Nan { signaling: true },
            digits: Vec::new(),
            exponent: 0,
        }
    }

    /// Builds a finite number from an unsigned integer.
    #[must_use]
    pub fn from_u64(mut v: u64) -> Self {
        let mut digits = Vec::new();
        while v != 0 {
            digits.push((v % 10) as u8);
            v /= 10;
        }
        DecNumber {
            sign: Sign::Positive,
            kind: Kind::Finite,
            digits,
            exponent: 0,
        }
    }

    /// Builds a finite number from a signed integer.
    #[must_use]
    pub fn from_i64(v: i64) -> Self {
        let mut n = DecNumber::from_u64(v.unsigned_abs());
        if v < 0 {
            n.sign = Sign::Negative;
        }
        n
    }

    /// Builds a finite number from raw parts. `digits` is least significant
    /// first; most-significant zeros are trimmed.
    #[must_use]
    pub fn from_parts(sign: Sign, digits: &[u8], exponent: i32) -> Self {
        debug_assert!(digits.iter().all(|&d| d <= 9), "digits must be decimal");
        let mut digits = digits.to_vec();
        while digits.last() == Some(&0) {
            digits.pop();
        }
        DecNumber {
            sign,
            kind: Kind::Finite,
            digits,
            exponent,
        }
    }

    /// The sign. Note zeros and NaNs are signed too.
    #[must_use]
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The kind of value.
    #[must_use]
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// The exponent of the least significant coefficient digit.
    /// Zero for non-finite values.
    #[must_use]
    pub fn exponent(&self) -> i32 {
        self.exponent
    }

    /// Coefficient digits, least significant first (empty for a zero
    /// coefficient). For NaNs this is the payload.
    #[must_use]
    pub fn coefficient_digits(&self) -> &[u8] {
        &self.digits
    }

    /// Number of significant coefficient digits (zero has one conceptually;
    /// this returns 0 for an empty coefficient).
    #[must_use]
    pub fn ndigits(&self) -> u32 {
        self.digits.len() as u32
    }

    /// The adjusted exponent (exponent of the most significant digit).
    /// Meaningful only for finite non-zero values.
    #[must_use]
    pub fn adjusted_exponent(&self) -> i32 {
        if self.digits.is_empty() {
            self.exponent
        } else {
            self.exponent + self.digits.len() as i32 - 1
        }
    }

    /// True for finite values (including zeros).
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.kind == Kind::Finite
    }

    /// True for ±infinity.
    #[must_use]
    pub fn is_infinite(&self) -> bool {
        self.kind == Kind::Infinity
    }

    /// True for quiet or signaling NaN.
    #[must_use]
    pub fn is_nan(&self) -> bool {
        matches!(self.kind, Kind::Nan { .. })
    }

    /// True for a signaling NaN.
    #[must_use]
    pub fn is_snan(&self) -> bool {
        matches!(self.kind, Kind::Nan { signaling: true })
    }

    /// True for a finite zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.kind == Kind::Finite && self.digits.is_empty()
    }

    /// True if the value is negative (including -0 and -Inf; false for NaN).
    #[must_use]
    pub fn is_negative(&self) -> bool {
        !self.is_nan() && self.sign == Sign::Negative
    }

    /// The absolute value (quiet; no rounding, no flags).
    #[must_use]
    pub fn abs(&self) -> Self {
        let mut n = self.clone();
        if !n.is_nan() {
            n.sign = Sign::Positive;
        }
        n
    }

    /// The negation (quiet; flips the sign without rounding, like IEEE
    /// `negate`).
    #[must_use]
    pub fn neg(&self) -> Self {
        let mut n = self.clone();
        n.sign = n.sign.negate();
        n
    }

    /// Coefficient as a big-endian decimal string (for diagnostics).
    #[must_use]
    pub fn coefficient_string(&self) -> String {
        if self.digits.is_empty() {
            "0".to_string()
        } else {
            self.digits
                .iter()
                .rev()
                .map(|d| (b'0' + d) as char)
                .collect()
        }
    }

    /// Scientific-notation string per the General Decimal Arithmetic
    /// `to-scientific-string` rules.
    #[must_use]
    pub fn to_sci_string(&self) -> String {
        let sign = if self.sign == Sign::Negative { "-" } else { "" };
        match self.kind {
            Kind::Infinity => format!("{sign}Infinity"),
            Kind::Nan { signaling } => {
                let prefix = if signaling { "sNaN" } else { "NaN" };
                if self.digits.is_empty() {
                    format!("{sign}{prefix}")
                } else {
                    format!("{sign}{prefix}{}", self.coefficient_string())
                }
            }
            Kind::Finite => {
                let coeff = self.coefficient_string();
                let ndigits = coeff.len() as i32;
                let adjusted = self.exponent + ndigits - 1;
                if self.exponent <= 0 && adjusted >= -6 {
                    // Plain notation.
                    if self.exponent == 0 {
                        format!("{sign}{coeff}")
                    } else {
                        let point = ndigits + self.exponent; // digits before the point
                        if point > 0 {
                            format!(
                                "{sign}{}.{}",
                                &coeff[..point as usize],
                                &coeff[point as usize..]
                            )
                        } else {
                            format!("{sign}0.{}{}", "0".repeat(-point as usize), coeff)
                        }
                    }
                } else {
                    // Scientific notation with one digit before the point.
                    if ndigits == 1 {
                        format!("{sign}{coeff}E{adjusted:+}")
                    } else {
                        format!("{sign}{}.{}E{adjusted:+}", &coeff[..1], &coeff[1..])
                    }
                }
            }
        }
    }

    /// Parses a string, rounding the result to the context and raising
    /// [`Status::CONVERSION_SYNTAX`] (returning NaN) on malformed input.
    #[must_use]
    pub fn parse_with(s: &str, ctx: &mut Context) -> Self {
        match s.parse::<DecNumber>() {
            Ok(n) => n.finish(ctx),
            Err(_) => {
                ctx.raise(Status::CONVERSION_SYNTAX);
                DecNumber::nan()
            }
        }
    }

    /// Internal invariant check used by debug assertions and tests.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn assert_valid(&self) {
        assert!(self.digits.iter().all(|&d| d <= 9), "digit out of range");
        if self.kind == Kind::Finite {
            assert!(
                self.digits.last() != Some(&0),
                "most significant digit must be non-zero"
            );
        }
    }
}

impl Default for DecNumber {
    fn default() -> Self {
        DecNumber::zero()
    }
}

impl fmt::Display for DecNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_sci_string())
    }
}

impl From<u64> for DecNumber {
    fn from(v: u64) -> Self {
        DecNumber::from_u64(v)
    }
}

impl From<i64> for DecNumber {
    fn from(v: i64) -> Self {
        DecNumber::from_i64(v)
    }
}

/// Error returned when a string is not a valid decimal number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseDecError;

impl fmt::Display for ParseDecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid decimal number syntax")
    }
}

impl std::error::Error for ParseDecError {}

impl FromStr for DecNumber {
    type Err = ParseDecError;

    /// Exact parse: the value is not rounded to any context
    /// (use [`DecNumber::parse_with`] for context-rounded conversion).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ParseDecError);
        }
        let (sign, rest) = match s.as_bytes()[0] {
            b'+' => (Sign::Positive, &s[1..]),
            b'-' => (Sign::Negative, &s[1..]),
            _ => (Sign::Positive, s),
        };
        if rest.is_empty() {
            return Err(ParseDecError);
        }
        let lower = rest.to_ascii_lowercase();
        if lower == "inf" || lower == "infinity" {
            return Ok(DecNumber::infinity(sign));
        }
        for (prefix, signaling) in [("snan", true), ("nan", false)] {
            if let Some(payload) = lower.strip_prefix(prefix) {
                if !payload.is_empty() && !payload.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(ParseDecError);
                }
                let mut digits: Vec<u8> =
                    payload.bytes().rev().map(|b| b - b'0').collect();
                while digits.last() == Some(&0) {
                    digits.pop();
                }
                return Ok(DecNumber {
                    sign,
                    kind: Kind::Nan { signaling },
                    digits,
                    exponent: 0,
                });
            }
        }
        // [digits][.digits][(e|E)[sign]digits]
        let (mantissa, exp_part) = match rest.find(['e', 'E']) {
            Some(i) => (&rest[..i], Some(&rest[i + 1..])),
            None => (rest, None),
        };
        let exp_extra: i64 = match exp_part {
            Some(e) => {
                if e.is_empty() {
                    return Err(ParseDecError);
                }
                e.parse().map_err(|_| ParseDecError)?
            }
            None => 0,
        };
        let (int_part, frac_part) = match mantissa.find('.') {
            Some(i) => (&mantissa[..i], &mantissa[i + 1..]),
            None => (mantissa, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(ParseDecError);
        }
        if !int_part.bytes().all(|b| b.is_ascii_digit())
            || !frac_part.bytes().all(|b| b.is_ascii_digit())
        {
            return Err(ParseDecError);
        }
        let mut digits: Vec<u8> = int_part
            .bytes()
            .chain(frac_part.bytes())
            .rev()
            .map(|b| b - b'0')
            .collect();
        while digits.last() == Some(&0) {
            digits.pop();
        }
        let exponent = exp_extra - frac_part.len() as i64;
        if !(i32::MIN as i64..=i32::MAX as i64).contains(&exponent) {
            return Err(ParseDecError);
        }
        Ok(DecNumber {
            sign,
            kind: Kind::Finite,
            digits,
            exponent: exponent as i32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert!(DecNumber::zero().is_zero());
        assert_eq!(DecNumber::one().to_string(), "1");
        assert!(DecNumber::infinity(Sign::Negative).is_infinite());
        assert!(DecNumber::nan().is_nan());
        assert!(DecNumber::snan().is_snan());
        assert_eq!(DecNumber::from_i64(-42).to_string(), "-42");
        assert_eq!(DecNumber::from_u64(0).ndigits(), 0);
    }

    #[test]
    fn from_parts_trims() {
        let n = DecNumber::from_parts(Sign::Positive, &[1, 2, 3, 0, 0], 5);
        assert_eq!(n.ndigits(), 3);
        assert_eq!(n.exponent(), 5);
        n.assert_valid();
    }

    #[test]
    fn adjusted_exponent_rules() {
        let n: DecNumber = "123E+4".parse().unwrap();
        assert_eq!(n.exponent(), 4);
        assert_eq!(n.adjusted_exponent(), 6);
    }

    #[test]
    fn parse_plain_and_fraction() {
        assert_eq!("0".parse::<DecNumber>().unwrap().to_string(), "0");
        assert_eq!("12.34".parse::<DecNumber>().unwrap().to_string(), "12.34");
        assert_eq!("-0.001".parse::<DecNumber>().unwrap().to_string(), "-0.001");
        assert_eq!("1E+6".parse::<DecNumber>().unwrap().to_string(), "1E+6");
        assert_eq!("1.5e-3".parse::<DecNumber>().unwrap().to_string(), "0.0015");
        assert_eq!(".5".parse::<DecNumber>().unwrap().to_string(), "0.5");
        assert_eq!("5.".parse::<DecNumber>().unwrap().to_string(), "5");
    }

    #[test]
    fn parse_specials() {
        assert!("Infinity".parse::<DecNumber>().unwrap().is_infinite());
        assert!("-inf".parse::<DecNumber>().unwrap().is_negative());
        assert!("NaN".parse::<DecNumber>().unwrap().is_nan());
        assert!("sNaN".parse::<DecNumber>().unwrap().is_snan());
        let payload = "NaN123".parse::<DecNumber>().unwrap();
        assert_eq!(payload.coefficient_digits(), &[3, 2, 1]);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "+", "abc", "1.2.3", "1e", "1e+", "--5", "NaNx"] {
            assert!(bad.parse::<DecNumber>().is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn sci_string_rules() {
        // From the General Decimal Arithmetic specification examples.
        let cases = [
            ("123", "123"),
            ("-123", "-123"),
            ("1.23E+3", "1.23E+3"),
            ("1.23E-7", "1.23E-7"),
            ("0.00123", "0.00123"),
            ("5E-7", "5E-7"),
            ("0E+2", "0E+2"),
            ("-0", "-0"),
        ];
        for (input, expected) in cases {
            let n: DecNumber = input.parse().unwrap();
            assert_eq!(n.to_sci_string(), expected, "input {input}");
        }
    }

    #[test]
    fn quiet_sign_ops() {
        let n: DecNumber = "-5".parse().unwrap();
        assert_eq!(n.abs().to_string(), "5");
        assert_eq!(n.neg().to_string(), "5");
        assert_eq!(n.neg().neg().to_string(), "-5");
        assert!(!n.abs().is_negative());
    }

    #[test]
    fn parse_with_raises_syntax() {
        let mut ctx = Context::decimal64();
        let n = DecNumber::parse_with("not-a-number", &mut ctx);
        assert!(n.is_nan());
        assert!(ctx.status().contains(Status::CONVERSION_SYNTAX));
    }
}
