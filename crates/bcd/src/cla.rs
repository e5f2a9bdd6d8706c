//! Functional, cost-annotated model of the BCD carry-lookahead adder.
//!
//! Method-1 of the evaluated co-design requires exactly one BCD-CLA in
//! hardware: it generates the multiplicand multiples `1X..9X` and accumulates
//! shifted partial products. This module models that unit at the digit level —
//! per-digit decimal *generate*/*propagate* signals feeding a two-level carry
//! lookahead network — and annotates it with an area/delay cost estimate used
//! by the hardware-overhead reports.
//!
//! The functional output is bit-exact with the packed-BCD software adder
//! ([`crate::Bcd64::adc`]); a property test in the crate enforces this.

use crate::Bcd64;

/// Area/delay cost of a hardware block, in NAND2-equivalent gates and logic
/// levels. The numbers are first-order estimates of the kind used for early
/// design-space exploration; they are the basis of the Pareto analysis, not a
/// synthesis result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateCost {
    /// NAND2-equivalent gate count.
    pub gates: u64,
    /// Critical-path depth in gate levels.
    pub delay_levels: u32,
}

impl GateCost {
    /// Combines two blocks placed side by side (areas add, delay is the max).
    #[must_use]
    pub fn parallel(self, other: GateCost) -> GateCost {
        GateCost {
            gates: self.gates + other.gates,
            delay_levels: self.delay_levels.max(other.delay_levels),
        }
    }
}

/// Per-digit cost of one BCD-CLA cell: a 4-bit binary CLA adder (~28 gates),
/// the decimal-overflow detector (~5 gates), and the +6 correction stage
/// (~13 gates).
const DIGIT_CELL: GateCost = GateCost {
    gates: 46,
    delay_levels: 6,
};

/// Per-digit share of the inter-digit lookahead network (group generate /
/// propagate terms plus the lookahead tree fan-in).
const LOOKAHEAD_PER_DIGIT: GateCost = GateCost {
    gates: 7,
    delay_levels: 0,
};

/// Depth of the two-level inter-digit lookahead network.
const LOOKAHEAD_LEVELS: u32 = 4;

/// A BCD carry-lookahead adder over a configurable number of digits.
///
/// # Example
///
/// ```
/// use bcd::cla::BcdCla;
/// use bcd::Bcd64;
///
/// # fn main() -> Result<(), bcd::BcdError> {
/// let cla = BcdCla::new(16);
/// let (sum, carry) = cla.add(Bcd64::from_value(905)?, Bcd64::from_value(95)?, false);
/// assert_eq!(sum.to_value(), 1000);
/// assert!(!carry);
/// println!("area = {} gates", cla.cost().gates);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcdCla {
    digits: u32,
}

impl BcdCla {
    /// Creates an adder over `digits` decimal digits (1..=16).
    ///
    /// # Panics
    ///
    /// Panics if `digits` is zero or greater than 16.
    #[must_use]
    pub fn new(digits: u32) -> Self {
        assert!(
            (1..=16).contains(&digits),
            "BCD-CLA width {digits} out of range 1..=16"
        );
        BcdCla { digits }
    }

    /// The adder width in decimal digits.
    #[must_use]
    pub fn digits(self) -> u32 {
        self.digits
    }

    /// Adds two operands with carry-in, computing carries through the
    /// lookahead network: digit *i* generates iff `a_i + b_i >= 10`, and
    /// propagates iff `a_i + b_i == 9`.
    ///
    /// Digits above the adder width are ignored (treated as zero).
    #[must_use]
    pub fn add(self, a: Bcd64, b: Bcd64, carry_in: bool) -> (Bcd64, bool) {
        let mut generate = [false; 16];
        let mut propagate = [false; 16];
        for i in 0..self.digits {
            let s = a.digit(i) + b.digit(i);
            generate[i as usize] = s >= 10;
            propagate[i as usize] = s == 9;
        }
        // Lookahead recurrence c[i+1] = g[i] | (p[i] & c[i]); in hardware the
        // recurrence is flattened into two lookahead levels, which only
        // changes delay, not the computed carries.
        let mut carries = [false; 17];
        carries[0] = carry_in;
        for i in 0..self.digits as usize {
            carries[i + 1] = generate[i] || (propagate[i] && carries[i]);
        }
        let mut sum = Bcd64::ZERO;
        for i in 0..self.digits {
            let s = a.digit(i) + b.digit(i) + u8::from(carries[i as usize]);
            let digit = if s >= 10 { s - 10 } else { s };
            sum = sum
                .with_digit(i, digit)
                .expect("digit sum mod 10 is a valid digit");
        }
        (sum, carries[self.digits as usize])
    }

    /// Area/delay estimate for this adder instance.
    #[must_use]
    pub fn cost(self) -> GateCost {
        let per_digit = GateCost {
            gates: (DIGIT_CELL.gates + LOOKAHEAD_PER_DIGIT.gates) * u64::from(self.digits),
            delay_levels: DIGIT_CELL.delay_levels,
        };
        GateCost {
            gates: per_digit.gates,
            delay_levels: per_digit.delay_levels + LOOKAHEAD_LEVELS,
        }
    }
}

impl Default for BcdCla {
    /// A full-width (16-digit) adder, the configuration Method-1 uses.
    fn default() -> Self {
        BcdCla::new(16)
    }
}

/// Cost of an `n`-bit register (flip-flops at ~6 NAND2 equivalents each).
#[must_use]
pub fn register_cost(bits: u64) -> GateCost {
    GateCost {
        gates: bits * 6,
        delay_levels: 1,
    }
}

/// Cost of an `entries × width` register file with one write and one read
/// port (storage plus a read multiplexer tree).
#[must_use]
pub fn regfile_cost(entries: u64, width: u64) -> GateCost {
    let storage = register_cost(entries * width);
    // Read mux: roughly width gates per doubling of entries.
    let mux_gates = width * entries.next_power_of_two().trailing_zeros() as u64;
    GateCost {
        gates: storage.gates + mux_gates,
        delay_levels: 1 + entries.next_power_of_two().trailing_zeros(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_software_adder_on_cases() {
        let cla = BcdCla::new(16);
        let cases = [
            (0u64, 0u64, false),
            (905, 95, false),
            (9_999_999_999_999_999, 1, false),
            (9_999_999_999_999_999, 9_999_999_999_999_999, true),
            (123_456_789, 987_654_321, true),
        ];
        for (av, bv, cin) in cases {
            let a = Bcd64::from_value(av).unwrap();
            let b = Bcd64::from_value(bv).unwrap();
            assert_eq!(cla.add(a, b, cin), a.adc(b, cin), "case {av} + {bv} + {cin}");
        }
    }

    #[test]
    fn narrow_adder_ignores_high_digits() {
        let cla = BcdCla::new(4);
        let a = Bcd64::from_value(99_1234).unwrap();
        let b = Bcd64::from_value(1).unwrap();
        let (s, c) = cla.add(a, b, false);
        assert_eq!(s.to_value(), 1235, "only the low four digits participate");
        assert!(!c);
    }

    #[test]
    fn carry_out_at_width() {
        let cla = BcdCla::new(4);
        let a = Bcd64::from_value(9999).unwrap();
        let (s, c) = cla.add(a, Bcd64::ONE, false);
        assert_eq!(s, Bcd64::ZERO);
        assert!(c);
    }

    #[test]
    fn cost_scales_with_width() {
        let narrow = BcdCla::new(4).cost();
        let wide = BcdCla::new(16).cost();
        assert!(wide.gates > narrow.gates);
        assert_eq!(wide.gates, 16 * 53);
        assert_eq!(wide.delay_levels, 10);
    }

    #[test]
    fn cost_combinators() {
        let a = GateCost { gates: 100, delay_levels: 5 };
        let b = GateCost { gates: 50, delay_levels: 8 };
        assert_eq!(a.parallel(b), GateCost { gates: 150, delay_levels: 8 });
    }

    #[test]
    fn regfile_cost_reasonable() {
        let c = regfile_cost(16, 128);
        assert!(c.gates > 16 * 128 * 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_panics() {
        let _ = BcdCla::new(0);
    }
}
