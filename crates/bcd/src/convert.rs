//! Binary ⇄ BCD conversion circuits.
//!
//! The `DEC_CNV` accelerator instruction converts a binary number to BCD in
//! hardware; the classic circuit for this is the *double-dabble* (shift and
//! add-3) algorithm. [`double_dabble`] models that circuit exactly — one
//! iteration per input bit — so the accelerator's timing model can charge a
//! realistic cycle count. The fast software paths are
//! [`Bcd64::from_value`] and [`Bcd64::to_value`].

use crate::{Bcd128, Bcd64};

/// Result of a hardware-modelled conversion: the value plus the number of
/// clock cycles the sequential circuit would take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwConversion {
    /// The converted BCD value.
    pub bcd: Bcd128,
    /// Cycles consumed by the shift-and-add-3 sequential circuit
    /// (one per input bit of the operand's significant width).
    pub cycles: u32,
}

/// Double-dabble (shift and add-3): the hardware algorithm behind `DEC_CNV`.
///
/// Processes `value` most-significant bit first; before each shift, every BCD
/// digit that is `>= 5` gets `+3` so the shift doubles it correctly in
/// decimal. A 64-bit operand always fits: `2^64 - 1` has twenty digits.
#[must_use]
pub fn double_dabble(value: u64) -> HwConversion {
    let width = if value == 0 {
        1
    } else {
        64 - value.leading_zeros()
    };
    let mut bcd: u128 = 0;
    for bit in (0..width).rev() {
        // Add-3 correction on every digit >= 5.
        let mut corrected = bcd;
        for i in 0..32 {
            let digit = (bcd >> (4 * i)) & 0xF;
            if digit >= 5 {
                corrected += 3u128 << (4 * i);
            }
        }
        bcd = (corrected << 1) | u128::from((value >> bit) & 1);
    }
    HwConversion {
        bcd: Bcd128::from_raw_unchecked(bcd),
        cycles: width,
    }
}

/// Reverse double-dabble: BCD to binary by shift and subtract-3, modelling a
/// hardware `BCD→binary` path (unused by Method-1 — its selling point is that
/// no binary conversion is needed — but provided for co-designs that want it).
#[must_use]
pub fn reverse_double_dabble(bcd: Bcd64) -> HwConversion {
    let mut scratch = u128::from(bcd.raw());
    let width = 64u32;
    let mut binary: u64 = 0;
    for _ in 0..width {
        binary = (binary >> 1) | ((scratch as u64 & 1) << 63);
        scratch >>= 1;
        for i in 0..32 {
            let digit = (scratch >> (4 * i)) & 0xF;
            if digit >= 8 {
                scratch -= 3u128 << (4 * i);
            }
        }
    }
    HwConversion {
        bcd: Bcd128::from_value(u128::from(binary)).unwrap_or(Bcd128::ZERO),
        cycles: width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_dabble_matches_software() {
        for v in [0u64, 1, 5, 9, 10, 255, 256, 65_535, 1_000_000, u64::MAX] {
            let hw = double_dabble(v);
            assert_eq!(hw.bcd.to_value(), u128::from(v), "value {v}");
        }
    }

    #[test]
    fn double_dabble_cycle_counts() {
        assert_eq!(double_dabble(0).cycles, 1);
        assert_eq!(double_dabble(1).cycles, 1);
        assert_eq!(double_dabble(255).cycles, 8);
        assert_eq!(double_dabble(u64::MAX).cycles, 64);
    }

    #[test]
    fn reverse_double_dabble_roundtrips() {
        for v in [0u64, 9, 42, 65_535, 9_999_999_999_999_999] {
            let bcd = Bcd64::from_value(v).unwrap();
            let hw = reverse_double_dabble(bcd);
            assert_eq!(hw.bcd.to_value(), u128::from(v), "value {v}");
        }
    }
}
