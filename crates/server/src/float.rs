//! Shortest round-trip `f64` text, byte-identical to `{}` Display.
//!
//! Every score the server puts on the wire goes through [`write_f64`].
//! It appends exactly the bytes `format!("{}", x)` would: the fewest
//! decimal digits that parse back to the same `f64`, the candidate
//! closest to the exact binary value, laid out without an exponent
//! (`0.0000001`, `1000000000000000000000`, `-0`). It just does so
//! without the `fmt` machinery, which on a `SOURCE` line of a few
//! thousand scores costs more than the query itself.
//!
//! The digit search is Ryū (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018) over 128-bit power-of-5 multipliers. The one
//! deliberate departure from the paper is the tie rule: when two
//! shortest candidates are exactly equally close, std's Display picks
//! the larger magnitude (`562949953421312.25` prints as
//! `562949953421312.3`), so this writer does too, where Ryū would round
//! to even. The multiplier tables are computed at compile time from a
//! small fixed-width bignum (`Big`); nothing is pasted in.
//!
//! Non-finite values (never produced by the kernels) fall back to std.

use std::io::Write as _;

/// Significand bits the multiplier tables keep for `5^i` and `2^k / 5^q`.
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;
/// `q` ranges over `0..POW5_INV_TABLE_SIZE` for binary exponents
/// `e2 >= 0`, `i` over `0..POW5_TABLE_SIZE` for `e2 < 0` (Ryū §3).
const POW5_INV_TABLE_SIZE: usize = 342;
const POW5_TABLE_SIZE: usize = 326;

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BIAS: i32 = 1023;

/// Words of the compile-time bignum: 1024 bits hold `5^341` (792 bits)
/// and the `2^1023` dividend of the inverse table.
const WORDS: usize = 16;

/// Little-endian fixed-width unsigned bignum for table generation.
type Big = [u64; WORDS];

const fn big_mul_small(mut x: Big, m: u64) -> Big {
    let mut carry: u128 = 0;
    let mut i = 0;
    while i < WORDS {
        let t = x[i] as u128 * m as u128 + carry;
        x[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
    assert!(carry == 0, "bignum overflow");
    x
}

const fn big_div_small(mut x: Big, d: u64) -> Big {
    let mut rem: u128 = 0;
    let mut i = WORDS;
    while i > 0 {
        i -= 1;
        let cur = (rem << 64) | x[i] as u128;
        x[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    x
}

const fn big_bit_length(x: &Big) -> i32 {
    let mut i = WORDS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * i as i32 + 64 - x[i].leading_zeros() as i32;
        }
    }
    0
}

/// `floor(x / 2^s) mod 2^128`.
const fn big_bits_from(x: &Big, s: i32) -> u128 {
    let w = (s / 64) as usize;
    let r = (s % 64) as u32;
    let low = (big_word(x, w + 1) << 64 | big_word(x, w)) >> r;
    if r == 0 {
        low
    } else {
        low | big_word(x, w + 2) << (128 - r)
    }
}

const fn big_word(x: &Big, i: usize) -> u128 {
    if i < WORDS {
        x[i] as u128
    } else {
        0
    }
}

/// `ceil(log2(5^e))` for `e >= 1`, and 1 for `e == 0`: the bit length of
/// `5^e` over the table range.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `5^i` normalized to exactly `POW5_BITCOUNT` bits (truncated).
const POW5_SPLIT: [u128; POW5_TABLE_SIZE] = {
    let mut table = [0u128; POW5_TABLE_SIZE];
    let mut pow: Big = [0; WORDS];
    pow[0] = 1;
    let mut i = 0;
    while i < POW5_TABLE_SIZE {
        let len = big_bit_length(&pow);
        assert!(len == pow5bits(i as i32), "pow5bits disagrees with 5^i");
        table[i] = if len >= POW5_BITCOUNT {
            big_bits_from(&pow, len - POW5_BITCOUNT)
        } else {
            big_bits_from(&pow, 0) << (POW5_BITCOUNT - len)
        };
        pow = big_mul_small(pow, 5);
        i += 1;
    }
    table
};

/// `floor(2^(pow5bits(q) - 1 + POW5_INV_BITCOUNT) / 5^q) + 1`. Each row
/// is shifted out of one running `floor(2^1023 / 5^q)`, which is exact
/// because nested floors of integer quotients compose.
const POW5_INV_SPLIT: [u128; POW5_INV_TABLE_SIZE] = {
    const TOP: i32 = 64 * WORDS as i32 - 1;
    let mut table = [0u128; POW5_INV_TABLE_SIZE];
    let mut quot: Big = [0; WORDS];
    quot[WORDS - 1] = 1 << 63;
    let mut q = 0;
    while q < POW5_INV_TABLE_SIZE {
        let shift = TOP - (pow5bits(q as i32) - 1 + POW5_INV_BITCOUNT);
        table[q] = big_bits_from(&quot, shift) + 1;
        quot = big_div_small(quot, 5);
        q += 1;
    }
    table
};

/// `floor(log10(2^e))` for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))` for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// `floor(m * mul / 2^j)` for a 128-bit multiplier and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = m as u128 * (mul as u64) as u128;
    let high = m as u128 * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest decimal `(digits, exp10)` with `digits * 10^exp10`
/// inside the round-to-nearest interval of a positive finite double,
/// closest to its exact value, exact ties going up (Ryū's `d2d`).
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        // Two extra bits so the interval bounds stay integral.
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-half-even parsing maps an exact midpoint to the even
    // neighbour, so an even mantissa owns both interval ends.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The gap below a power of two is half the gap above it.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Only the lower bound's exactness matters: with exact ties
    // rounding up, an exact `vr` needs no bookkeeping of its own.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // At most one of mp, mv, mm is a multiple of 5; when it is mp
        // or mm, that bound may be an exact decimal.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let j = q as i32 - (pow5bits(i) - POW5_BITCOUNT);
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            // mm = mv - 1 - mm_shift has a trailing zero bit iff
            // mm_shift == 1; mp = mv + 2 always has one.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    let mut removed = 0;
    let mut round_up = false;
    if vm_is_trailing_zeros {
        // Rare path: the lower bound is an exact decimal and admissible,
        // so keep stripping digits while it stays one.
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        while vm_is_trailing_zeros && vm % 10 == 0 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
        let below_bounds = vr == vm && !vm_is_trailing_zeros;
        return (vr + u64::from(below_bounds || round_up), e10 + removed);
    }
    if vp / 100 > vm / 100 {
        round_up = vr % 100 >= 50;
        vr /= 100;
        vp /= 100;
        vm /= 100;
        removed += 2;
    }
    while vp / 10 > vm / 10 {
        round_up = vr % 10 >= 5;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    // An exact tie (removed digits `50..0`) rounds up, as std does.
    (vr + u64::from(vr == vm || round_up), e10 + removed)
}

/// `"00" "01" .. "99"`.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut table = [[0u8; 2]; 100];
    let mut i = 0;
    while i < 100 {
        table[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    table
};

/// The eight decimal digits of `v < 10^8`, zero-padded.
fn digits8(v: u32) -> [u8; 8] {
    let (high, low) = (v / 10_000, v % 10_000);
    let [a, b] = DIGIT_PAIRS[(high / 100) as usize];
    let [c, d] = DIGIT_PAIRS[(high % 100) as usize];
    let [e, f] = DIGIT_PAIRS[(low / 100) as usize];
    let [g, h] = DIGIT_PAIRS[(low % 100) as usize];
    [a, b, c, d, e, f, g, h]
}

/// The seventeen decimal digits of `v < 10^17`, zero-padded. Fixed
/// offsets and independent chunks instead of a digit loop.
fn digits17(v: u64) -> [u8; 17] {
    let high = (v / 100_000_000) as u32;
    let mut out = [0u8; 17];
    out[0] = b'0' + (high / 100_000_000) as u8;
    out[1..9].copy_from_slice(&digits8(high % 100_000_000));
    out[9..].copy_from_slice(&digits8((v % 100_000_000) as u32));
    out
}

/// Width of the stack buffer a number is laid out in: 17 digits behind
/// enough zeros for every magnitude down to about 1e-45. Smaller ones
/// emit their zero run separately.
const TEXT: usize = 64;

/// Append `x` to `out` exactly as `write!(out, "{x}")` would.
#[inline]
pub(crate) fn write_f64(out: &mut Vec<u8>, x: f64) {
    // Most of a single-source vector is +0.0.
    if x.to_bits() == 0 {
        out.push(b'0');
    } else {
        write_nonzero(out, x);
    }
}

fn write_nonzero(out: &mut Vec<u8>, x: f64) {
    let bits = x.to_bits();
    if !x.is_finite() {
        let _ = write!(out, "{x}");
        return;
    }
    if x.is_sign_negative() {
        out.push(b'-');
    }
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push(b'0');
        return;
    }
    let (mantissa, exp10) = shortest(ieee_mantissa, ieee_exponent);
    let len = mantissa.ilog10() as usize + 1;
    // The digits sit right-aligned behind a run of '0' bytes, so a
    // leading "0.000" is already in place in front of them.
    let mut text = [b'0'; TEXT];
    text[TEXT - 17..].copy_from_slice(&digits17(mantissa));
    let first = TEXT - len;

    // Display's layout, reading the value as 0.<digits> * 10^point.
    let point = len as i32 + exp10;
    if point <= 0 {
        let width = 2 + point.unsigned_abs() as usize + len;
        if width <= TEXT {
            text[TEXT - width + 1] = b'.';
            out.extend_from_slice(&text[TEXT - width..]);
        } else {
            out.extend_from_slice(b"0.");
            out.resize(out.len() + width - 2 - len, b'0');
            out.extend_from_slice(&text[first..]);
        }
    } else if (point as usize) < len {
        let point = point as usize;
        text.copy_within(first..first + point, first - 1);
        text[first - 1 + point] = b'.';
        out.extend_from_slice(&text[first - 1..]);
    } else {
        out.extend_from_slice(&text[first..]);
        out.resize(out.len() + point as usize - len, b'0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use rand::{RngExt, SeedableRng};

    /// `2^e` for every exponent a double can hold, subnormals included.
    fn pow2(e: i32) -> f64 {
        if e < -1022 {
            f64::from_bits(1 << (e + 1074))
        } else {
            f64::from_bits(((e + EXPONENT_BIAS) as u64) << MANTISSA_BITS)
        }
    }

    fn written(x: f64) -> String {
        let mut out = Vec::new();
        write_f64(&mut out, x);
        String::from_utf8(out).unwrap()
    }

    fn assert_matches_std(x: f64) {
        assert_eq!(written(x), format!("{x}"), "bits {:#018x}", x.to_bits());
    }

    #[test]
    fn tables_match_published_ryu_rows() {
        // Rows 0 and 1 of Ryū's d2s_full_table.h.
        assert_eq!(POW5_INV_SPLIT[0], (1u128 << 125) + 1);
        assert_eq!(
            POW5_INV_SPLIT[1],
            (1_844_674_407_370_955_161u128 << 64) | 11_068_046_444_225_730_970
        );
        assert_eq!(POW5_SPLIT[0], 1u128 << 124);
        assert_eq!(POW5_SPLIT[1], 1_441_151_880_758_558_720u128 << 64);
        for row in POW5_SPLIT {
            assert_eq!(128 - row.leading_zeros(), POW5_BITCOUNT as u32);
        }
        for row in POW5_INV_SPLIT {
            assert!(
                row > 1u128 << (POW5_INV_BITCOUNT - 1) && row <= (1u128 << POW5_INV_BITCOUNT) + 1
            );
        }
    }

    #[test]
    fn documented_examples() {
        for (x, want) in [
            (1.0, "1"),
            (0.1 + 0.2, "0.30000000000000004"),
            (1e-7, "0.0000001"),
            (1e21, "1000000000000000000000"),
            (-0.0, "-0"),
            (0.0, "0"),
            // 2^49 + 1/4: an exact tie between ...312.2 and ...312.3.
            ((1u64 << 49) as f64 + 0.25, "562949953421312.3"),
        ] {
            assert_eq!(written(x), want);
        }
        let tiny = written(5e-324);
        assert_eq!(tiny.len(), 2 + 323 + 1);
        assert!(tiny.starts_with("0.000") && tiny.ends_with("0005"));
    }

    #[test]
    fn edge_values_match_std() {
        let mut edges = vec![
            0.0,
            f64::from_bits(1),
            f64::from_bits((1 << MANTISSA_BITS) - 1),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            1.0 / 3.0,
            2.0 / 3.0,
            0.1,
            0.2,
            0.3,
            123_456.789,
        ];
        for e in -1074..=1023 {
            edges.push(pow2(e));
        }
        for e in -323..=308 {
            let p: f64 = format!("1e{e}").parse().unwrap();
            edges.push(p);
        }
        let two53 = (1u64 << 53) as f64;
        for d in -64i64..=64 {
            edges.push(two53 + d as f64);
            edges.push((1u64 << 53).wrapping_add_signed(d) as f64);
        }
        for x in edges.clone() {
            edges.push(f64::from_bits(x.to_bits() + 1));
            edges.push(f64::from_bits(x.to_bits().saturating_sub(1)));
        }
        for x in edges {
            assert_matches_std(x);
            assert_matches_std(-x);
        }
    }

    /// Exact ties between two shortest candidates: `m * 2^e` equals
    /// `(X + 1/2) * 10^-j` when `m` has exactly `-(e + 1 + j)` trailing
    /// zero bits, and both neighbours `X, X + 1` fall inside the rounding
    /// interval once `2^e >= 10^-j`.
    #[test]
    fn halfway_ties_match_std() {
        let mut rng = TestRng::seed_from_u64(0x7e5);
        let mut checked = 0;
        for j in 1..=24i32 {
            let lowest = -((j as f64 * 10f64.log2()).floor() as i32);
            for e in lowest..=-j - 1 {
                let zeros = -(e + 1 + j);
                if zeros > MANTISSA_BITS as i32 {
                    continue;
                }
                for _ in 0..32 {
                    let odd_bits = MANTISSA_BITS as i32 + 1 - zeros;
                    let odd = if odd_bits <= 1 {
                        1
                    } else {
                        (1u64 << (odd_bits - 1)) | rng.random_range(0..1u64 << (odd_bits - 1)) | 1
                    };
                    let m = odd << zeros;
                    let x = m as f64 * pow2(e);
                    assert_matches_std(x);
                    checked += 1;
                }
            }
        }
        assert!(checked > 1000);
    }

    /// Raw bit patterns over every finite double (non-finite draws fall
    /// back to std, so they are skipped rather than counted).
    fn random_bits_match_std(rng: &mut TestRng, samples: usize) {
        let mut done = 0;
        while done < samples {
            let x = f64::from_bits(rng.random());
            if x.is_finite() {
                assert_matches_std(x);
                done += 1;
            }
        }
    }

    fn random_unit_match_std(rng: &mut TestRng, samples: usize) {
        for _ in 0..samples {
            let x: f64 = rng.random();
            assert_matches_std(x);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 100, ..ProptestConfig::default() })]

        #[test]
        fn random_bit_patterns_match_std(seed in 0u64..u64::MAX) {
            random_bits_match_std(&mut TestRng::seed_from_u64(seed), 1000);
        }

        #[test]
        fn random_unit_interval_matches_std(seed in 0u64..u64::MAX) {
            random_unit_match_std(&mut TestRng::seed_from_u64(seed), 1000);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 1000, ..ProptestConfig::default() })]

        /// 10^7 samples of each kind; run in release (CI seeds it from
        /// `PROPTEST_SEED` so every run explores new inputs).
        #[test]
        #[ignore]
        fn large_differential_against_std(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::seed_from_u64(seed);
            random_bits_match_std(&mut rng, 10_000);
            random_unit_match_std(&mut rng, 10_000);
        }
    }
}
