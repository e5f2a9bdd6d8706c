//! Integer register names and ABI aliases.

use std::fmt;
use std::str::FromStr;

/// One of the thirty-two RV64 integer registers.
///
/// # Example
///
/// ```
/// use riscv_isa::Reg;
///
/// let a0: Reg = "a0".parse().unwrap();
/// assert_eq!(a0, Reg::A0);
/// assert_eq!(a0.number(), 10);
/// assert_eq!(a0.to_string(), "a0");
/// assert_eq!("x10".parse::<Reg>().unwrap(), a0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

/// ABI names indexed by register number.
const ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

impl Reg {
    /// The hard-wired zero register `x0`.
    pub const ZERO: Reg = Reg(0);
    /// Return address `x1`.
    pub const RA: Reg = Reg(1);
    /// Stack pointer `x2`.
    pub const SP: Reg = Reg(2);
    /// Global pointer `x3`.
    pub const GP: Reg = Reg(3);
    /// Thread pointer `x4`.
    pub const TP: Reg = Reg(4);
    /// Temporary `x5`.
    pub const T0: Reg = Reg(5);
    /// Temporary `x6`.
    pub const T1: Reg = Reg(6);
    /// Temporary `x7`.
    pub const T2: Reg = Reg(7);
    /// Saved register / frame pointer `x8`.
    pub const S0: Reg = Reg(8);
    /// Saved register `x9`.
    pub const S1: Reg = Reg(9);
    /// Argument/return `x10`.
    pub const A0: Reg = Reg(10);
    /// Argument/return `x11`.
    pub const A1: Reg = Reg(11);
    /// Argument `x12`.
    pub const A2: Reg = Reg(12);
    /// Argument `x13`.
    pub const A3: Reg = Reg(13);
    /// Argument `x14`.
    pub const A4: Reg = Reg(14);
    /// Argument `x15`.
    pub const A5: Reg = Reg(15);
    /// Argument `x16`.
    pub const A6: Reg = Reg(16);
    /// Argument `x17`.
    pub const A7: Reg = Reg(17);
    /// Saved register `x18`.
    pub const S2: Reg = Reg(18);
    /// Saved register `x19`.
    pub const S3: Reg = Reg(19);
    /// Saved register `x20`.
    pub const S4: Reg = Reg(20);
    /// Saved register `x21`.
    pub const S5: Reg = Reg(21);
    /// Saved register `x22`.
    pub const S6: Reg = Reg(22);
    /// Saved register `x23`.
    pub const S7: Reg = Reg(23);
    /// Saved register `x24`.
    pub const S8: Reg = Reg(24);
    /// Saved register `x25`.
    pub const S9: Reg = Reg(25);
    /// Saved register `x26`.
    pub const S10: Reg = Reg(26);
    /// Saved register `x27`.
    pub const S11: Reg = Reg(27);
    /// Temporary `x28`.
    pub const T3: Reg = Reg(28);
    /// Temporary `x29`.
    pub const T4: Reg = Reg(29);
    /// Temporary `x30`.
    pub const T5: Reg = Reg(30);
    /// Temporary `x31`.
    pub const T6: Reg = Reg(31);

    /// Builds a register from its number.
    ///
    /// # Panics
    ///
    /// Panics if `n > 31`.
    #[must_use]
    pub fn new(n: u8) -> Reg {
        assert!(n < 32, "register number {n} out of range");
        Reg(n)
    }

    /// The register numbered `n`, which the caller took from a `Reg`.
    pub(crate) const fn from_number(n: u8) -> Reg {
        debug_assert!(n < 32);
        Reg(n)
    }

    /// The register number (0..=31).
    #[must_use]
    pub const fn number(self) -> u8 {
        self.0
    }

    /// The ABI name (`zero`, `ra`, `a0`, …).
    #[must_use]
    pub fn abi_name(self) -> &'static str {
        ABI_NAMES[self.0 as usize]
    }

    /// All thirty-two registers in numeric order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..32).map(Reg)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.abi_name())
    }
}

impl From<Reg> for u32 {
    fn from(r: Reg) -> u32 {
        u32::from(r.0)
    }
}

/// Error returned when a string names no register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError(pub String);

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown register {:?}", self.0)
    }
}

impl std::error::Error for ParseRegError {}

impl FromStr for Reg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(num) = s.strip_prefix('x') {
            if let Ok(n) = num.parse::<u8>() {
                if n < 32 && (num.len() == 1 || !num.starts_with('0')) {
                    return Ok(Reg(n));
                }
            }
        }
        if s == "fp" {
            return Ok(Reg::S0);
        }
        ABI_NAMES
            .iter()
            .position(|&name| name == s)
            .map(|i| Reg(i as u8))
            .ok_or_else(|| ParseRegError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_numbers() {
        assert_eq!(Reg::ZERO.number(), 0);
        assert_eq!(Reg::A0.number(), 10);
        assert_eq!(Reg::T6.number(), 31);
        assert_eq!(Reg::S0.abi_name(), "s0");
    }

    #[test]
    fn parse_both_syntaxes() {
        for r in Reg::all() {
            assert_eq!(r.abi_name().parse::<Reg>().unwrap(), r);
            assert_eq!(format!("x{}", r.number()).parse::<Reg>().unwrap(), r);
        }
        assert_eq!("fp".parse::<Reg>().unwrap(), Reg::S0);
        assert!("x32".parse::<Reg>().is_err());
        assert!("x01".parse::<Reg>().is_err());
        assert!("q3".parse::<Reg>().is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_large() {
        let _ = Reg::new(32);
    }
}
