//! Constrained-random operand generation and the verification database.

use decnum::{Context, DecNumber, Status};
use dpd::Sign;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The input case classes the paper's evaluation mixes (§V: "8,000 sample
/// inputs including overflow, underflow, normal, rounding, and clamping
/// cases").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CaseClass {
    /// Exact results, fully in range — no status flags.
    Normal,
    /// The coefficient product needs rounding to the precision (inexact).
    Rounding,
    /// The result exceeds the format's exponent range (±infinity/Nmax).
    Overflow,
    /// The result loses accuracy below the subnormal threshold.
    Underflow,
    /// The exponent must be clamped into range by padding the coefficient.
    Clamping,
    /// Special operands: NaNs and infinities.
    Special,
}

impl CaseClass {
    /// The name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CaseClass::Normal => "normal",
            CaseClass::Rounding => "rounding",
            CaseClass::Overflow => "overflow",
            CaseClass::Underflow => "underflow",
            CaseClass::Clamping => "clamping",
            CaseClass::Special => "special",
        }
    }
}

impl std::fmt::Display for CaseClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Format precision, as the paper's generator configures it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// decimal64 ("double"), the precision Table IV evaluates.
    #[default]
    Double,
    /// decimal128 ("quad").
    Quad,
}

/// The arithmetic operation under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Operation {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication — the co-design's target operation.
    #[default]
    Mul,
}

impl Operation {
    /// Applies the operation through the reference arithmetic.
    #[must_use]
    pub fn apply(self, x: &DecNumber, y: &DecNumber, ctx: &mut Context) -> DecNumber {
        match self {
            Operation::Add => x.add(y, ctx),
            Operation::Sub => x.sub(y, ctx),
            Operation::Mul => x.mul(y, ctx),
        }
    }
}

/// Generator configuration (paper §III's "mandatory and optional
/// configurations").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestConfig {
    /// Format precision.
    pub precision: Precision,
    /// Operation under test.
    pub operation: Operation,
    /// Total number of samples.
    pub count: usize,
    /// Class mix as `(class, weight)`; weights are relative.
    pub class_mix: Vec<(CaseClass, u32)>,
    /// RNG seed — the whole database is a pure function of the config.
    pub seed: u64,
}

impl Default for TestConfig {
    /// The paper's Table IV workload: 8,000 decimal64 multiplications over
    /// the five case classes.
    fn default() -> Self {
        TestConfig {
            precision: Precision::Double,
            operation: Operation::Mul,
            count: 8_000,
            class_mix: paper_mix(),
            seed: 2019, // SOCC'19
        }
    }
}

/// The paper's five-class mix, equally weighted.
#[must_use]
pub fn paper_mix() -> Vec<(CaseClass, u32)> {
    vec![
        (CaseClass::Normal, 1),
        (CaseClass::Rounding, 1),
        (CaseClass::Overflow, 1),
        (CaseClass::Underflow, 1),
        (CaseClass::Clamping, 1),
    ]
}

/// One operand pair with its class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestVector {
    /// First operand.
    pub x: DecNumber,
    /// Second operand.
    pub y: DecNumber,
    /// The class this vector provably exhibits.
    pub class: CaseClass,
}

impl TestVector {
    /// The operands as decimal64 interchange bits (for guest data tables).
    #[must_use]
    pub fn to_decimal64_bits(&self) -> (u64, u64) {
        let mut ctx = Context::decimal64();
        (
            self.x.to_decimal64(&mut ctx).to_bits(),
            self.y.to_decimal64(&mut ctx).to_bits(),
        )
    }
}

/// A golden result from the reference arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenResult {
    /// The reference result.
    pub result: DecNumber,
    /// decimal64 interchange bits of the result.
    pub result_bits: u64,
    /// The status flags the operation raised.
    pub status: Status,
}

fn context_for(precision: Precision) -> Context {
    match precision {
        Precision::Double => Context::decimal64(),
        Precision::Quad => Context::decimal128(),
    }
}

/// Generates `config.count` vectors, cycling through the class mix.
///
/// Every vector is validated by rejection sampling: operands are re-drawn
/// until the reference arithmetic confirms the requested class, so the
/// database's labels are trustworthy by construction.
///
/// # Panics
///
/// Panics if `class_mix` is empty or a class cannot be exhibited (e.g.
/// requesting overflow from an operation/precision where the proposal
/// distribution cannot reach it within 10,000 attempts — indicates a
/// configuration bug).
#[must_use]
pub fn generate(config: &TestConfig) -> Vec<TestVector> {
    assert!(!config.class_mix.is_empty(), "class mix must not be empty");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let total_weight: u32 = config.class_mix.iter().map(|(_, w)| w).sum();
    assert!(total_weight > 0, "class weights must not all be zero");
    // Deterministic round-robin by weight keeps exact class proportions.
    let mut schedule: Vec<CaseClass> = Vec::with_capacity(total_weight as usize);
    for (class, weight) in &config.class_mix {
        schedule.extend(std::iter::repeat_n(*class, *weight as usize));
    }
    (0..config.count)
        .map(|i| {
            let class = schedule[i % schedule.len()];
            draw_vector(class, config, &mut rng)
        })
        .collect()
}

/// Pairs every generated vector with its golden result — the framework's
/// stand-in for the arithmetic-verification database of the paper's
/// reference \[18\].
#[must_use]
pub fn verification_database(config: &TestConfig) -> Vec<(TestVector, GoldenResult)> {
    generate(config)
        .into_iter()
        .map(|v| {
            let golden = golden(&v, config);
            (v, golden)
        })
        .collect()
}

/// Computes the golden result for one vector.
#[must_use]
pub fn golden(vector: &TestVector, config: &TestConfig) -> GoldenResult {
    let mut ctx = context_for(config.precision);
    let result = config.operation.apply(&vector.x, &vector.y, &mut ctx);
    let result_bits = {
        let mut enc = Context::decimal64();
        enc.rounding = ctx.rounding;
        result.to_decimal64(&mut enc).to_bits()
    };
    GoldenResult {
        result,
        result_bits,
        status: ctx.status(),
    }
}

fn draw_vector(class: CaseClass, config: &TestConfig, rng: &mut StdRng) -> TestVector {
    for _ in 0..10_000 {
        let (x, y) = propose(class, config, rng);
        if exhibits(class, &x, &y, config) {
            return TestVector { x, y, class };
        }
    }
    panic!("could not generate a {class} case for {:?}", config.operation);
}

/// Draws a coefficient with exactly `digits` significant digits as an
/// LSD-first digit vector (supports the full 34-digit quad width).
fn coefficient(rng: &mut StdRng, digits: u32) -> Vec<u8> {
    let mut v: Vec<u8> = (0..digits).map(|_| rng.gen_range(0..=9u8)).collect();
    if let Some(msd) = v.last_mut() {
        *msd = rng.gen_range(1..=9);
    }
    v
}

fn number(rng: &mut StdRng, digits: u32, exp_range: std::ops::RangeInclusive<i32>) -> DecNumber {
    let digits = coefficient(rng, digits);
    let sign = if rng.gen() { Sign::Negative } else { Sign::Positive };
    let exponent = rng.gen_range(exp_range);
    DecNumber::from_parts(sign, &digits, exponent)
}

/// Per-format exponent landmarks.
struct Bounds {
    emax: i32,
    etop: i32,
    etiny: i32,
}

fn bounds(precision: Precision) -> Bounds {
    match precision {
        Precision::Double => Bounds {
            emax: 384,
            etop: 369,
            etiny: -398,
        },
        Precision::Quad => Bounds {
            emax: 6144,
            etop: 6111,
            etiny: -6176,
        },
    }
}

fn propose(class: CaseClass, config: &TestConfig, rng: &mut StdRng) -> (DecNumber, DecNumber) {
    let p = match config.precision {
        Precision::Double => 16u32,
        Precision::Quad => 34,
    };
    let b = bounds(config.precision);
    match (class, config.operation) {
        (CaseClass::Normal, Operation::Mul) => {
            let da = rng.gen_range(1..=(p / 2));
            let db = rng.gen_range(1..=(p - da).min(p / 2));
            (number(rng, da, -20..=20), number(rng, db, -20..=20))
        }
        (CaseClass::Normal, _) => {
            let da = rng.gen_range(1..=(p - 2));
            let db = rng.gen_range(1..=(p - 2));
            let e = rng.gen_range(-10..=10);
            (number(rng, da, e..=e), number(rng, db, e..=e))
        }
        (CaseClass::Rounding, Operation::Mul) => {
            let da = rng.gen_range((p / 2 + 1)..=p);
            let db = rng.gen_range((p / 2 + 1)..=p);
            (number(rng, da, -20..=20), number(rng, db, -20..=20))
        }
        (CaseClass::Rounding, _) => {
            // Far-apart exponents force sticky rounding in add/sub.
            let db = rng.gen_range(1..=4);
            let far = -(p as i32);
            (
                number(rng, p, 0..=4),
                number(rng, db, (far - 8)..=(far - 4)),
            )
        }
        (CaseClass::Overflow, Operation::Mul) => {
            let da = rng.gen_range(p / 2..=p);
            let db = rng.gen_range(p / 2..=p);
            let lo = b.emax / 2 - 10;
            (number(rng, da, lo..=b.etop), number(rng, db, lo..=b.etop))
        }
        (CaseClass::Overflow, _) => {
            // Nmax + Nmax-ish.
            (
                number(rng, p, (b.etop - 9)..=b.etop),
                number(rng, p, (b.etop - 9)..=b.etop),
            )
        }
        (CaseClass::Underflow, Operation::Mul) => {
            let da = rng.gen_range(p / 2..=p);
            let db = rng.gen_range(p / 2..=p);
            let hi = -b.emax / 2 + 10;
            (
                number(rng, da, b.etiny..=hi),
                number(rng, db, b.etiny..=hi),
            )
        }
        (CaseClass::Underflow, _) => {
            // Addition cannot underflow within representable operands (any
            // inexact sum's adjusted exponent sits above emin), so the class
            // means "subnormal result" for add/sub; `exhibits` accepts both.
            let da = rng.gen_range(1..=(p / 4));
            let db = rng.gen_range(1..=(p / 4));
            (
                number(rng, da, b.etiny..=(b.etiny + 3)),
                number(rng, db, b.etiny..=(b.etiny + 3)),
            )
        }
        (CaseClass::Clamping, Operation::Mul) => {
            // Small coefficients, large positive exponents: in range but
            // above Etop, so the result exponent is folded into padding.
            let target = rng.gen_range((b.etop + 3)..=(b.emax - 4));
            let qa = rng.gen_range(100..=(b.etop - 100));
            let qb = target - qa;
            let da = rng.gen_range(1..=3);
            let db = rng.gen_range(1..=3);
            (number(rng, da, qa..=qa), number(rng, db, qb..=qb))
        }
        (CaseClass::Clamping, _) => {
            let da = rng.gen_range(1..=2);
            let db = rng.gen_range(1..=2);
            let range = (b.etop + 1)..=(b.etop + 6);
            (number(rng, da, range.clone()), number(rng, db, range))
        }
        (CaseClass::Special, _) => {
            let pick = |rng: &mut StdRng| match rng.gen_range(0..4u8) {
                0 => DecNumber::nan(),
                1 => DecNumber::infinity(Sign::Positive),
                2 => DecNumber::infinity(Sign::Negative),
                _ => DecNumber::from_u64(rng.gen_range(0..100)),
            };
            let x = pick(rng);
            let mut y = pick(rng);
            if x.is_finite() && y.is_finite() {
                y = DecNumber::nan();
            }
            (x, y)
        }
    }
}

fn exhibits(class: CaseClass, x: &DecNumber, y: &DecNumber, config: &TestConfig) -> bool {
    let mut ctx = context_for(config.precision);
    let result = config.operation.apply(x, y, &mut ctx);
    let s = ctx.status();
    match class {
        CaseClass::Normal => s.is_clear() && result.is_finite() && !result.is_zero(),
        CaseClass::Rounding => {
            s.contains(Status::INEXACT)
                && !s.intersects(
                    Status::OVERFLOW
                        .union(Status::UNDERFLOW)
                        .union(Status::SUBNORMAL),
                )
        }
        CaseClass::Overflow => s.contains(Status::OVERFLOW),
        CaseClass::Underflow => {
            if config.operation == Operation::Mul {
                s.contains(Status::UNDERFLOW)
            } else {
                // Add/sub: a subnormal (possibly exact) result is the
                // closest reachable behaviour; see `propose`.
                s.contains(Status::SUBNORMAL) && !s.contains(Status::OVERFLOW)
            }
        }
        CaseClass::Clamping => {
            s.contains(Status::CLAMPED) && !s.intersects(Status::OVERFLOW.union(Status::UNDERFLOW))
        }
        CaseClass::Special => result.is_nan() || result.is_infinite(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(count: usize) -> TestConfig {
        TestConfig {
            count,
            ..TestConfig::default()
        }
    }

    #[test]
    fn generates_requested_count_and_classes() {
        let config = small(50);
        let vectors = generate(&config);
        assert_eq!(vectors.len(), 50);
        // Round-robin over 5 classes: 10 of each.
        for class in [
            CaseClass::Normal,
            CaseClass::Rounding,
            CaseClass::Overflow,
            CaseClass::Underflow,
            CaseClass::Clamping,
        ] {
            assert_eq!(
                vectors.iter().filter(|v| v.class == class).count(),
                10,
                "{class}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small(20));
        let b = generate(&small(20));
        assert_eq!(a, b);
        let c = generate(&TestConfig {
            seed: 7,
            ..small(20)
        });
        assert_ne!(a, c);
    }

    #[test]
    fn every_vector_exhibits_its_class() {
        let config = small(100);
        for (vector, golden) in verification_database(&config) {
            match vector.class {
                CaseClass::Normal => assert!(golden.status.is_clear(), "{vector:?}"),
                CaseClass::Rounding => {
                    assert!(golden.status.contains(Status::INEXACT), "{vector:?}")
                }
                CaseClass::Overflow => {
                    assert!(golden.status.contains(Status::OVERFLOW), "{vector:?}")
                }
                CaseClass::Underflow => {
                    assert!(golden.status.contains(Status::UNDERFLOW), "{vector:?}")
                }
                CaseClass::Clamping => {
                    assert!(golden.status.contains(Status::CLAMPED), "{vector:?}")
                }
                CaseClass::Special => {}
            }
        }
    }

    #[test]
    fn add_operation_classes_work_too() {
        let config = TestConfig {
            operation: Operation::Add,
            count: 25,
            ..TestConfig::default()
        };
        let vectors = generate(&config);
        assert_eq!(vectors.len(), 25);
    }

    #[test]
    fn quad_precision_generates_all_five_classes() {
        let config = TestConfig {
            precision: Precision::Quad,
            count: 25,
            ..TestConfig::default()
        };
        for (vector, golden) in verification_database(&config) {
            match vector.class {
                CaseClass::Overflow => {
                    assert!(golden.status.contains(Status::OVERFLOW), "{vector:?}")
                }
                CaseClass::Underflow => {
                    assert!(golden.status.contains(Status::UNDERFLOW), "{vector:?}")
                }
                CaseClass::Clamping => {
                    assert!(golden.status.contains(Status::CLAMPED), "{vector:?}")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn special_class_produces_specials() {
        let config = TestConfig {
            class_mix: vec![(CaseClass::Special, 1)],
            count: 10,
            ..TestConfig::default()
        };
        for (_, golden) in verification_database(&config) {
            assert!(golden.result.is_nan() || golden.result.is_infinite());
        }
    }

    #[test]
    fn decimal64_bits_roundtrip() {
        let config = small(10);
        for v in generate(&config) {
            let (xb, yb) = v.to_decimal64_bits();
            let x = DecNumber::from_decimal64(dpd::Decimal64::from_bits(xb));
            // The encoding may be clamped relative to the abstract number,
            // but it must still be finite/sane for finite inputs.
            if v.x.is_finite() {
                assert!(x.is_finite() || v.class == CaseClass::Overflow);
            }
            let _ = yb;
        }
    }

    #[test]
    #[should_panic(expected = "class mix")]
    fn empty_mix_rejected() {
        let _ = generate(&TestConfig {
            class_mix: vec![],
            ..small(1)
        });
    }
}
