//! Differential validation against an independent reference implementation.
//!
//! The reference below shares no code with `decnum`: products are computed
//! exactly in `u128`, rendered as digit strings, and rounded by direct
//! string manipulation following the IEEE 754-2008 / General Decimal
//! Arithmetic rules. Any systematic bias in `decnum`'s digit-vector
//! arithmetic or its `finish` pipeline would show up here.

use decnum::{Context, DecNumber, Rounding, Status};
use proptest::prelude::*;

/// decimal64 parameters.
const PRECISION: usize = 16;
const EMAX: i64 = 384;
const EMIN: i64 = -383;
const ETINY: i64 = EMIN - (PRECISION as i64 - 1);
const ETOP: i64 = EMAX - (PRECISION as i64 - 1);

/// An independently computed decimal64 multiplication result.
#[derive(Debug, PartialEq, Eq)]
struct RefResult {
    /// `None` = infinity (overflow).
    text: Option<(bool, String, i64)>, // (negative, coefficient, exponent)
    inexact: bool,
    overflow: bool,
    underflow: bool,
    subnormal: bool,
    clamped: bool,
}

/// Exact product of two coefficient/exponent pairs, rounded per decimal64
/// half-even — implemented entirely with strings and u128.
fn reference_multiply(
    neg_x: bool,
    cx: u64,
    qx: i64,
    neg_y: bool,
    cy: u64,
    qy: i64,
) -> RefResult {
    let negative = neg_x != neg_y;
    let exact = u128::from(cx) * u128::from(cy);
    let mut exponent = qx + qy;
    let mut inexact = false;
    let mut clamped = false;

    if exact == 0 {
        let clamped_exp = exponent.clamp(ETINY, ETOP);
        return RefResult {
            text: Some((negative, "0".to_string(), clamped_exp)),
            inexact: false,
            overflow: false,
            underflow: false,
            subnormal: false,
            clamped: clamped_exp != exponent,
        };
    }

    let mut digits = exact.to_string();
    let adjusted = exponent + digits.len() as i64 - 1;
    let subnormal = adjusted < EMIN;

    // Single rounding: to precision, or at Etiny for subnormal results.
    let mut discard = digits.len().saturating_sub(PRECISION);
    if subnormal && exponent < ETINY {
        discard = discard.max((ETINY - exponent) as usize);
    }
    if discard > 0 {
        let (kept_str, dropped) = if discard >= digits.len() {
            (String::new(), digits.clone())
        } else {
            let split = digits.len() - discard;
            (digits[..split].to_string(), digits[split..].to_string())
        };
        let dropped_bytes = dropped.as_bytes();
        let round_digit = dropped_bytes.first().map_or(0, |b| b - b'0');
        // When everything (and more) is discarded, the round digit position
        // is above the MSD: it is 0 and the whole value is sticky.
        let (round_digit, sticky) = if discard > digits.len() {
            (0u8, exact != 0)
        } else {
            (
                round_digit,
                dropped_bytes[1..].iter().any(|&b| b != b'0'),
            )
        };
        inexact = round_digit != 0 || sticky;
        let mut kept: u128 = if kept_str.is_empty() {
            0
        } else {
            kept_str.parse().expect("digits parse")
        };
        let lsd_odd = kept % 2 == 1;
        if round_digit > 5 || (round_digit == 5 && (sticky || lsd_odd)) {
            kept += 1;
        }
        digits = kept.to_string();
        exponent += discard as i64;
        if digits.len() > PRECISION {
            // All-nines rollover.
            assert!(digits.ends_with('0'));
            digits.pop();
            exponent += 1;
        }
        if kept == 0 {
            digits = "0".to_string();
        }
    }
    let underflow = subnormal && inexact;

    // Overflow.
    if digits != "0" {
        let adjusted = exponent + digits.len() as i64 - 1;
        if adjusted > EMAX {
            return RefResult {
                text: None,
                inexact: true,
                overflow: true,
                underflow: false,
                subnormal,
                clamped: false,
            };
        }
        if exponent > ETOP {
            let pad = (exponent - ETOP) as usize;
            digits.push_str(&"0".repeat(pad));
            exponent = ETOP;
            clamped = true;
        }
    } else {
        let target = exponent.clamp(ETINY, ETOP);
        if target != exponent && !subnormal {
            clamped = true;
        }
        if subnormal && digits == "0" {
            clamped = true; // underflowed to zero
        }
        exponent = target;
    }

    RefResult {
        text: Some((negative, digits, exponent)),
        inexact,
        overflow: false,
        underflow,
        subnormal,
        clamped,
    }
}

fn make(neg: bool, coeff: u64, exp: i64) -> DecNumber {
    let mut digits = Vec::new();
    let mut c = coeff;
    while c != 0 {
        digits.push((c % 10) as u8);
        c /= 10;
    }
    DecNumber::from_parts(
        if neg {
            decnum::Sign::Negative
        } else {
            decnum::Sign::Positive
        },
        &digits,
        exp as i32,
    )
}

fn check_pair(neg_x: bool, cx: u64, qx: i64, neg_y: bool, cy: u64, qy: i64) {
    let mut ctx = Context::decimal64().with_rounding(Rounding::HalfEven);
    let got = make(neg_x, cx, qx).mul(&make(neg_y, cy, qy), &mut ctx);
    let expected = reference_multiply(neg_x, cx, qx, neg_y, cy, qy);
    let label = format!("{cx}E{qx} × {cy}E{qy} (signs {neg_x}/{neg_y})");

    match expected.text {
        None => assert!(got.is_infinite(), "{label}: expected overflow, got {got}"),
        Some((negative, ref digits, exponent)) => {
            assert!(got.is_finite(), "{label}: got {got}");
            assert_eq!(
                got.coefficient_string(),
                *digits,
                "{label}: coefficient (got {got})"
            );
            assert_eq!(i64::from(got.exponent()), exponent, "{label}: exponent");
            if digits != "0" || negative {
                assert_eq!(got.is_negative(), negative, "{label}: sign");
            }
        }
    }
    let s = ctx.status();
    assert_eq!(s.contains(Status::INEXACT), expected.inexact, "{label}: inexact");
    assert_eq!(s.contains(Status::OVERFLOW), expected.overflow, "{label}: overflow");
    assert_eq!(s.contains(Status::UNDERFLOW), expected.underflow, "{label}: underflow");
    assert_eq!(s.contains(Status::SUBNORMAL), expected.subnormal, "{label}: subnormal");
    assert_eq!(s.contains(Status::CLAMPED), expected.clamped, "{label}: clamped");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn multiply_matches_independent_reference(
        cx in 0u64..=9_999_999_999_999_999,
        qx in -398i64..=369,
        cy in 0u64..=9_999_999_999_999_999,
        qy in -398i64..=369,
        neg_x: bool,
        neg_y: bool,
    ) {
        check_pair(neg_x, cx, qx, neg_y, cy, qy);
    }
}

#[test]
fn boundary_cases_match_independent_reference() {
    let max = 9_999_999_999_999_999u64;
    let cases = [
        (max, 369i64, max, 369i64),   // deep overflow
        (max, 0, max, 0),             // rounding with all-nines
        (1, -398, 1, 0),              // subnormal exact
        (max, -398, 1, -16),          // subnormal rounding
        (5, -200, 5, -199),           // half-way subnormal
        (1, 200, 1, 175),             // clamping
        (123, -398, 1000, -3),        // rounding at etiny
        (max, 192, max, 193),         // adjusted == emax + 1 edge
        (1, 369, 1, 15),              // exponent exactly etop + 15
        (9, 192, 9, 192),             // adjusted exactly emax
    ];
    for (cx, qx, cy, qy) in cases {
        for (nx, ny) in [(false, false), (true, false), (true, true)] {
            check_pair(nx, cx, qx, ny, cy, qy);
        }
    }
}

/// Mode-parameterized increment rule, written independently of the library.
fn ref_increment(mode: Rounding, negative: bool, round_digit: u8, sticky: bool, lsd: u128) -> bool {
    let any = round_digit != 0 || sticky;
    match mode {
        Rounding::Down => false,
        Rounding::Up => any,
        Rounding::Ceiling => !negative && any,
        Rounding::Floor => negative && any,
        Rounding::HalfUp => round_digit >= 5,
        Rounding::HalfDown => round_digit > 5 || (round_digit == 5 && sticky),
        Rounding::HalfEven => {
            round_digit > 5 || (round_digit == 5 && (sticky || lsd % 2 == 1))
        }
        Rounding::ZeroFiveUp => any && (lsd.is_multiple_of(10) || lsd % 10 == 5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// All eight rounding modes: the kept coefficient of a product that needs
    /// rounding (and stays in the normal range) matches the independent rule.
    #[test]
    fn all_rounding_modes_match_reference(
        cx in 1_000_000_000u64..=9_999_999_999_999_999,
        cy in 1_000_000_000u64..=9_999_999_999_999_999,
        negative: bool,
        mode_index in 0usize..8,
    ) {
        let mode = Rounding::ALL[mode_index];
        let mut ctx = Context::decimal64().with_rounding(mode);
        let x = make(negative, cx, 0);
        let y = make(false, cy, 0);
        let got = x.mul(&y, &mut ctx);

        let exact = u128::from(cx) * u128::from(cy);
        let digits = exact.to_string();
        prop_assume!(digits.len() > PRECISION); // rounding must occur
        let split = digits.len() - PRECISION;
        let mut kept: u128 = digits[..PRECISION].parse().unwrap();
        let round_digit = digits.as_bytes()[PRECISION] - b'0';
        let sticky = digits.as_bytes()[PRECISION + 1..].iter().any(|&b| b != b'0');
        if ref_increment(mode, negative, round_digit, sticky, kept) {
            kept += 1;
        }
        let mut exponent = split as i64;
        let mut kept_str = kept.to_string();
        if kept_str.len() > PRECISION {
            kept_str.pop();
            exponent += 1;
        }
        prop_assert!(got.is_finite());
        prop_assert_eq!(got.coefficient_string(), kept_str, "mode {:?}", mode);
        prop_assert_eq!(i64::from(got.exponent()), exponent, "mode {:?}", mode);
    }
}
