//! Declet compression: three decimal digits ⇄ ten bits.
//!
//! Densely Packed Decimal (Cowlishaw, IEE Proc. 2002) packs three BCD digits
//! into ten bits. The paper's Method-1 relies on the property that "the DPD
//! coefficient encoding is very close to BCD and can be easily converted":
//! digits below 8 pass through almost unchanged, and only the rare
//! large-digit combinations shuffle bits.
//!
//! [`encode_declet`] and [`decode_declet`] implement the canonical
//! compression/decompression tables directly. The guest kernels, like
//! decNumber, use in-memory lookup tables instead; they build them from
//! these functions when their data sections are emitted.

/// Compresses three decimal digits `(d2, d1, d0)` — most significant first —
/// into a ten-bit declet.
///
/// # Panics
///
/// Panics if any digit is greater than 9.
#[must_use]
pub fn encode_declet(d2: u8, d1: u8, d0: u8) -> u16 {
    assert!(d2 <= 9 && d1 <= 9 && d0 <= 9, "digits must be 0..=9");
    // Split each digit into its "large" indicator (value >= 8) and low bits.
    // Using Cowlishaw's names: d2 = (a,b,c,d), d1 = (e,f,g,h), d0 = (i,j,k,m).
    let (a, bcd) = (d2 >> 3, u16::from(d2 & 7));
    let (e, fgh) = (d1 >> 3, u16::from(d1 & 7));
    let (i, jkm) = (d0 >> 3, u16::from(d0 & 7));
    let d = bcd & 1;
    let h = fgh & 1;
    let m = jkm & 1;
    let jk = jkm >> 1;
    let fg = fgh >> 1;
    match (a, e, i) {
        (0, 0, 0) => (bcd << 7) | (fgh << 4) | jkm,
        (0, 0, 1) => (bcd << 7) | (fgh << 4) | 0b1_000 | m,
        (0, 1, 0) => (bcd << 7) | (jk << 5) | (h << 4) | 0b1_010 | m,
        (0, 1, 1) => (bcd << 7) | (0b10 << 5) | (h << 4) | 0b1_110 | m,
        (1, 0, 0) => (jk << 8) | (d << 7) | (fgh << 4) | 0b1_100 | m,
        (1, 0, 1) => (fg << 8) | (d << 7) | (0b01 << 5) | (h << 4) | 0b1_110 | m,
        (1, 1, 0) => (jk << 8) | (d << 7) | (h << 4) | 0b1_110 | m,
        (1, 1, 1) => (d << 7) | (0b11 << 5) | (h << 4) | 0b1_110 | m,
        _ => unreachable!("indicator bits are 0 or 1"),
    }
}

/// Decompresses a ten-bit declet into three decimal digits `(d2, d1, d0)`.
///
/// All 1024 bit patterns decode (IEEE 754-2008 defines the 24 non-canonical
/// patterns to decode like their canonical siblings); only the low ten bits
/// of `declet` are examined.
#[must_use]
pub fn decode_declet(declet: u16) -> (u8, u8, u8) {
    let bits = declet & 0x3FF;
    // Bit names, high to low: p q r s t u v w x y.
    let p = ((bits >> 9) & 1) as u8;
    let q = ((bits >> 8) & 1) as u8;
    let r = ((bits >> 7) & 1) as u8;
    let s = ((bits >> 6) & 1) as u8;
    let t = ((bits >> 5) & 1) as u8;
    let u = ((bits >> 4) & 1) as u8;
    let v = ((bits >> 3) & 1) as u8;
    let w = ((bits >> 2) & 1) as u8;
    let x = ((bits >> 1) & 1) as u8;
    let y = (bits & 1) as u8;
    let pqr = (p << 2) | (q << 1) | r;
    let stu = (s << 2) | (t << 1) | u;
    let wxy = (w << 2) | (x << 1) | y;
    if v == 0 {
        return (pqr, stu, wxy);
    }
    match (w, x) {
        (0, 0) => (pqr, stu, 8 + y),
        (0, 1) => (pqr, 8 + u, (s << 2) | (t << 1) | y),
        (1, 0) => (8 + r, stu, (p << 2) | (q << 1) | y),
        (1, 1) => match (s, t) {
            (0, 0) => (8 + r, 8 + u, (p << 2) | (q << 1) | y),
            (0, 1) => (8 + r, (p << 2) | (q << 1) | u, 8 + y),
            (1, 0) => (pqr, 8 + u, 8 + y),
            (1, 1) => (8 + r, 8 + u, 8 + y),
            _ => unreachable!("bits are 0 or 1"),
        },
        _ => unreachable!("bits are 0 or 1"),
    }
}

/// Encodes three digits packed as twelve BCD bits (`0xDDD`) into a declet.
///
/// This is the `BCD→DPD` direction the kernels use when repacking a result.
///
/// # Panics
///
/// Panics if any nibble is not a decimal digit.
#[must_use]
pub fn encode_declet_bcd(bcd: u16) -> u16 {
    encode_declet(((bcd >> 8) & 0xF) as u8, ((bcd >> 4) & 0xF) as u8, (bcd & 0xF) as u8)
}

/// Decodes a declet into twelve packed BCD bits (`0xDDD`).
#[must_use]
pub fn decode_declet_bcd(declet: u16) -> u16 {
    let (d2, d1, d0) = decode_declet(declet);
    (u16::from(d2) << 8) | (u16::from(d1) << 4) | u16::from(d0)
}

/// Decodes a declet into a binary value in `0..=999`.
#[must_use]
pub fn decode_declet_bin(declet: u16) -> u16 {
    let (d2, d1, d0) = decode_declet(declet);
    u16::from(d2) * 100 + u16::from(d1) * 10 + u16::from(d0)
}

/// Encodes a binary value in `0..=999` into a declet.
///
/// # Panics
///
/// Panics if `value > 999`.
#[must_use]
pub fn encode_declet_bin(value: u16) -> u16 {
    assert!(value <= 999, "declet value {value} out of range");
    encode_declet((value / 100) as u8, ((value / 10) % 10) as u8, (value % 10) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A declet from its `pqr`, `stu` and `v wxy` fields (bits 9–7, 6–4,
    /// 3–0).
    fn fields(high: u16, middle: u16, low: u16) -> u16 {
        (high << 7) | (middle << 4) | low
    }

    #[test]
    fn small_digits_pass_through() {
        // All digits <= 7: declet is just the three 3-bit values.
        assert_eq!(encode_declet(1, 2, 3), fields(0b001, 0b010, 0b0011));
        assert_eq!(decode_declet(fields(0b001, 0b010, 0b0011)), (1, 2, 3));
        assert_eq!(encode_declet(0, 0, 0), 0);
        assert_eq!(decode_declet(0), (0, 0, 0));
        assert_eq!(encode_declet(7, 7, 7), fields(0b111, 0b111, 0b0111));
    }

    #[test]
    fn known_vectors() {
        // Vectors from Cowlishaw's DPD summary.
        assert_eq!(encode_declet(0, 0, 9), fields(0b000, 0b000, 0b1001));
        assert_eq!(encode_declet(0, 5, 5), fields(0b000, 0b101, 0b0101));
        assert_eq!(encode_declet(0, 7, 9), fields(0b000, 0b111, 0b1001));
        assert_eq!(encode_declet(0, 8, 0), fields(0b000, 0b000, 0b1010));
        assert_eq!(encode_declet(0, 9, 9), fields(0b000, 0b101, 0b1111));
        assert_eq!(encode_declet(5, 5, 5), fields(0b101, 0b101, 0b0101));
        assert_eq!(encode_declet(9, 9, 9), fields(0b001, 0b111, 0b1111));
    }

    #[test]
    fn roundtrip_all_thousand() {
        for v in 0..1000u16 {
            let d = encode_declet_bin(v);
            assert!(d < 1024);
            assert_eq!(decode_declet_bin(d), v, "declet value {v}");
        }
    }

    #[test]
    fn all_1024_patterns_decode_to_digits() {
        for bits in 0..1024u16 {
            let (d2, d1, d0) = decode_declet(bits);
            assert!(d2 <= 9 && d1 <= 9 && d0 <= 9, "pattern {bits:#012b}");
        }
    }

    #[test]
    fn noncanonical_patterns_alias_canonical() {
        // Patterns with v=1, wx=11, st=11 ignore p,q: all four settings of
        // (p,q) decode identically.
        for r in 0..2u16 {
            for u in 0..2u16 {
                for y in 0..2u16 {
                    let base = (r << 7) | (0b11 << 5) | (u << 4) | 0b1110 | y;
                    let canonical = decode_declet(base);
                    for pq in 1..4u16 {
                        let alias = base | (pq << 8);
                        assert_eq!(decode_declet(alias), canonical);
                    }
                }
            }
        }
    }

    #[test]
    fn exactly_24_noncanonical_patterns() {
        let canonical: std::collections::HashSet<u16> =
            (0..1000).map(encode_declet_bin).collect();
        assert_eq!(canonical.len(), 1000);
        let noncanonical = (0..1024u16).filter(|b| !canonical.contains(b)).count();
        assert_eq!(noncanonical, 24);
    }

    #[test]
    #[should_panic(expected = "digits must be 0..=9")]
    fn encode_rejects_large_digit() {
        let _ = encode_declet(10, 0, 0);
    }
}
