//! Property-based tests pinning the BCD arithmetic to `u64`/`u128` reference
//! semantics.

use bcd::cla::BcdCla;
use bcd::convert::{double_dabble, reverse_double_dabble};
use bcd::{Bcd128, Bcd64, BcdError};
use proptest::prelude::*;

const MAX16: u64 = 9_999_999_999_999_999;

fn bcd64_value() -> impl Strategy<Value = u64> {
    0..=MAX16
}

proptest! {
    #[test]
    fn value_roundtrip(v in bcd64_value()) {
        prop_assert_eq!(Bcd64::from_value(v).unwrap().to_value(), v);
    }

    #[test]
    fn add_matches_integer_add(a in bcd64_value(), b in bcd64_value()) {
        let (s, carry) = Bcd64::from_value(a).unwrap().add(Bcd64::from_value(b).unwrap());
        let expected = a as u128 + b as u128;
        let expected_sum = (expected % 10u128.pow(16)) as u64;
        prop_assert_eq!(s.to_value(), expected_sum);
        prop_assert_eq!(carry, expected >= 10u128.pow(16));
    }

    #[test]
    fn adc_matches_integer_add(a in bcd64_value(), b in bcd64_value(), cin: bool) {
        let (s, carry) = Bcd64::from_value(a).unwrap().adc(Bcd64::from_value(b).unwrap(), cin);
        let expected = a as u128 + b as u128 + u128::from(cin);
        prop_assert_eq!(s.to_value(), (expected % 10u128.pow(16)) as u64);
        prop_assert_eq!(carry, expected >= 10u128.pow(16));
    }

    #[test]
    fn sub_matches_integer_sub(a in bcd64_value(), b in bcd64_value()) {
        let (d, borrow) = Bcd64::from_value(a).unwrap().sub(Bcd64::from_value(b).unwrap());
        if a >= b {
            prop_assert!(!borrow);
            prop_assert_eq!(d.to_value(), a - b);
        } else {
            prop_assert!(borrow);
            prop_assert_eq!(u128::from(d.to_value()), 10u128.pow(16) + u128::from(a) - u128::from(b));
        }
    }

    #[test]
    fn cla_matches_software_adder(a in bcd64_value(), b in bcd64_value(), cin: bool) {
        let cla = BcdCla::new(16);
        let x = Bcd64::from_value(a).unwrap();
        let y = Bcd64::from_value(b).unwrap();
        prop_assert_eq!(cla.add(x, y, cin), x.adc(y, cin));
    }

    #[test]
    fn mul_digit_matches_integer(a in bcd64_value(), d in 0u8..=9) {
        let p = Bcd64::from_value(a).unwrap().mul_digit(d);
        prop_assert_eq!(p.to_value(), u128::from(a) * u128::from(d));
    }

    #[test]
    fn full_mul_matches_integer(a in bcd64_value(), b in bcd64_value()) {
        let p = Bcd64::from_value(a).unwrap().full_mul(Bcd64::from_value(b).unwrap());
        prop_assert_eq!(p.to_value(), u128::from(a) * u128::from(b));
    }

    #[test]
    fn wide_add_matches_integer(a in any::<u128>(), b in any::<u128>()) {
        let limit = 10u128.pow(32);
        let (a, b) = (a % limit, b % limit);
        let (s, carry) = Bcd128::from_value(a).unwrap().add(Bcd128::from_value(b).unwrap());
        if a + b >= limit {
            prop_assert!(carry);
            prop_assert_eq!(s.to_value(), a + b - limit);
        } else {
            prop_assert!(!carry);
            prop_assert_eq!(s.to_value(), a + b);
        }
    }

    #[test]
    fn wide_new_matches_the_nibble_loop(
        raw in any::<u128>(),
        bad in proptest::collection::vec((0u32..32, 10u8..=15), 0..=3usize),
    ) {
        // A valid word (each nibble taken mod 10), then up to three bad
        // nibbles written over it.
        let mut word = (0..32).fold(0u128, |w, i| w | ((((raw >> (4 * i)) & 0xF) % 10) << (4 * i)));
        for (position, nibble) in bad {
            word = (word & !(0xF << (4 * position))) | (u128::from(nibble) << (4 * position));
        }
        let reference = (0..32)
            .map(|position| (position, ((word >> (4 * position)) & 0xF) as u8))
            .find(|&(_, nibble)| nibble > 9)
            .map_or(Ok(word), |(position, nibble)| {
                Err(BcdError::InvalidNibble { position, nibble })
            });
        prop_assert_eq!(Bcd128::new(word).map(Bcd128::raw), reference);
    }

    #[test]
    fn wide_sub_matches_integer(a in any::<u128>(), b in any::<u128>()) {
        let limit = 10u128.pow(32);
        let (a, b) = (a % limit, b % limit);
        let (d, borrow) = Bcd128::from_value(a).unwrap().sub(Bcd128::from_value(b).unwrap());
        if a >= b {
            prop_assert!(!borrow);
            prop_assert_eq!(d.to_value(), a - b);
        } else {
            prop_assert!(borrow);
        }
    }

    #[test]
    fn shifts_are_pow10(a in bcd64_value(), k in 0u32..16) {
        let b = Bcd64::from_value(a).unwrap();
        prop_assert_eq!(b.shr_digits(k).to_value(), a / 10u64.pow(k));
        let shifted = b.shl_digits(k).to_value();
        prop_assert_eq!(u128::from(shifted), (u128::from(a) * 10u128.pow(k)) % 10u128.pow(16));
    }

    #[test]
    fn double_dabble_matches(v in any::<u64>()) {
        prop_assert_eq!(double_dabble(v).bcd.to_value(), u128::from(v));
    }

    #[test]
    fn reverse_double_dabble_matches(v in bcd64_value()) {
        let hw = reverse_double_dabble(Bcd64::from_value(v).unwrap());
        prop_assert_eq!(hw.bcd.to_value(), u128::from(v));
    }

    #[test]
    fn ordering_is_numeric(a in bcd64_value(), b in bcd64_value()) {
        let x = Bcd64::from_value(a).unwrap();
        let y = Bcd64::from_value(b).unwrap();
        prop_assert_eq!(x.cmp(&y), a.cmp(&b));
    }

    #[test]
    fn significant_digits_matches_string(v in bcd64_value()) {
        let n = Bcd64::from_value(v).unwrap().significant_digits();
        if v == 0 {
            prop_assert_eq!(n, 0);
        } else {
            prop_assert_eq!(n as usize, v.to_string().len());
        }
    }
}
