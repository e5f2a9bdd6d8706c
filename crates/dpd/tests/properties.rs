//! Property tests for declet compression and the interchange formats.

use bcd::Bcd64;
use dpd::declet::{decode_declet, decode_declet_bin, encode_declet, encode_declet_bin};
use dpd::{Decimal128, Decimal64, Sign};
use proptest::prelude::*;

proptest! {
    #[test]
    fn declet_roundtrip(d2 in 0u8..=9, d1 in 0u8..=9, d0 in 0u8..=9) {
        let declet = encode_declet(d2, d1, d0);
        prop_assert!(declet < 1024);
        prop_assert_eq!(decode_declet(declet), (d2, d1, d0));
    }

    #[test]
    fn declet_bin_roundtrip(v in 0u16..1000) {
        prop_assert_eq!(decode_declet_bin(encode_declet_bin(v)), v);
    }

    #[test]
    fn decode_is_total(bits in 0u16..1024) {
        let (d2, d1, d0) = decode_declet(bits);
        prop_assert!(d2 <= 9 && d1 <= 9 && d0 <= 9);
        // Decoding then re-encoding must be idempotent on the canonical form.
        let canon = encode_declet(d2, d1, d0);
        prop_assert_eq!(decode_declet(canon), (d2, d1, d0));
    }

    #[test]
    fn d64_parts_roundtrip(
        coeff in 0u64..=9_999_999_999_999_999,
        exp in Decimal64::EMIN_Q..=Decimal64::EMAX_Q,
        negative: bool,
    ) {
        let sign = if negative { Sign::Negative } else { Sign::Positive };
        let c = Bcd64::from_value(coeff).unwrap();
        let v = Decimal64::from_parts(sign, c, exp).unwrap();
        let p = v.to_parts().unwrap();
        prop_assert_eq!(p.sign, sign);
        prop_assert_eq!(p.coefficient, c);
        prop_assert_eq!(p.exponent, exp);
        prop_assert!(v.is_canonical());
        prop_assert!(v.is_finite());
    }

    #[test]
    fn d64_every_bit_pattern_classifies(bits in any::<u64>()) {
        let v = Decimal64::from_bits(bits);
        // classify() and (for finite values) to_parts() must never panic and
        // must produce in-range digits.
        if v.is_finite() {
            let p = v.to_parts().unwrap();
            prop_assert!(p.coefficient.significant_digits() <= 16);
            prop_assert!((Decimal64::EMIN_Q..=Decimal64::EMAX_Q).contains(&p.exponent));
        } else {
            prop_assert!(v.to_parts().is_err());
        }
    }

    #[test]
    fn d128_parts_roundtrip(
        digits in proptest::collection::vec(0u8..=9, 0..=34),
        exp in Decimal128::EMIN_Q..=Decimal128::EMAX_Q,
        negative: bool,
    ) {
        let sign = if negative { Sign::Negative } else { Sign::Positive };
        let v = Decimal128::from_parts(sign, &digits, exp).unwrap();
        let p = v.to_parts().unwrap();
        prop_assert_eq!(p.sign, sign);
        prop_assert_eq!(p.exponent, exp);
        for (i, &d) in p.digits.iter().enumerate() {
            let expected = digits.get(i).copied().unwrap_or(0);
            prop_assert_eq!(d, expected, "digit {}", i);
        }
    }

    #[test]
    fn d128_every_bit_pattern_classifies(bits in any::<u128>()) {
        let v = Decimal128::from_bits(bits);
        if v.is_finite() {
            let p = v.to_parts().unwrap();
            prop_assert!(p.digits.iter().all(|&d| d <= 9));
        }
    }
}
