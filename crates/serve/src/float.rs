//! Shortest round-trip `f32` → JSON number text for the `/link` renderer.
//!
//! [`push_f32`] appends exactly the bytes `format!("{v}")` gives for a
//! finite `v`: plain decimal notation (never an exponent), no trailing
//! zeros, `-0` for negative zero — and `null` for NaN/±inf, which JSON
//! cannot carry. Parsing the text back to `f32` recovers the same bits.
//!
//! The digits come from a fixed-step Schubfach core (Giulietti, "The
//! Schubfach way to render doubles", 2020): the float's rounding
//! interval is scaled by one 64-bit power of ten ([`pow10`]), looked up
//! with its exponent in a per-binary-exponent table ([`SCALES`]) built at
//! compile time, with three round-to-odd `u64 × u64 → u128` products,
//! one per interval end and one for the value. One try at one digit
//! fewer follows, then the nearer of the two full-length candidates; no
//! step loops over digits. One step differs from Schubfach on purpose:
//! on an exact decimal tie std rounds half *up*, not to even
//! (`1916.28125` prints as `1916.2813`).
//!
//! The text is laid out front to back. The digits are scaled to exactly
//! nine and turned into ASCII at once, eight of them by one SWAR split.
//! A 64-byte block is filled with `'0'` and the text is stored over it —
//! sign and `0.` prefix, digits, then the point and the fraction again
//! one byte further on — and its length returned; no store depends on
//! which case the number is. Only a point more than 11 places before the
//! first digit or more than 22 after it (|v| < 10⁻¹¹ or ≥ 10²²) takes a
//! padded path. [`push_f32_list`] writes a row's blocks one after the
//! other into a stack chunk and appends the chunk whenever it could not
//! hold one more, so the output vector is touched once per kilobyte, not
//! once per number. The `exhaustive_parity` test checks every one of the
//! 2³² bit patterns against `Display`.

use std::hint::select_unpredictable;

/// Explicit mantissa bits of an IEEE binary32.
const MANTISSA_BITS: u32 = 23;
/// Raw exponent minus this is the binary exponent of one unit in the
/// last place: bias 127 and 23 mantissa bits.
const EXPONENT_OFFSET: i32 = 127 + 23;
/// Smallest and largest decimal exponent of a power of ten a binary32
/// is scaled by (−149 ≤ q ≤ 104 gives −45 ≤ k ≤ 31, scaled by 10^−k).
const POW10_MIN: i32 = -31;
const POW10_MAX: i32 = 45;

/// `5^e`; e ≤ 54 fits u128.
const fn pow5(e: u32) -> u128 {
    let mut pow = 1;
    let mut i = 0;
    while i < e {
        pow *= 5;
        i += 1;
    }
    pow
}

/// `g(e) = ⌈10^e / 2^r⌉` with `r = ⌊log₂ 10^e⌋ − 63`, so
/// `2^63 ≤ g(e) < 2^64`, for `POW10_MIN ≤ e ≤ POW10_MAX`.
const fn pow10(e: i32) -> u64 {
    let pow5 = pow5(e.unsigned_abs());
    let bits = u128::BITS - pow5.leading_zeros();
    let g = if e >= 0 {
        // 10^e = 5^e · 2^e, so g is the top 64 bits of 5^e, rounded up
        // when any lower bit is set.
        if bits <= 64 {
            pow5 << (64 - bits)
        } else {
            let shift = bits - 64;
            (pow5 >> shift) + (pow5 & ((1 << shift) - 1) != 0) as u128
        }
    } else {
        // 10^e = 2^e / 5^−e and 2^(bits − 1) < 5^−e < 2^bits, so
        // g = ⌈2^(63 + bits) / 5^−e⌉. The dividend reaches 2^135, so
        // divide 2^high first and the remaining 2^low (low ≤ 15) from
        // the remainder (< 5^31 < 2^72). 5^−e is odd and > 1, so it
        // never divides a power of two: ceil = floor + 1.
        let low = (63 + bits).saturating_sub(120);
        let high = 1u128 << (63 + bits - low);
        ((high / pow5) << low) + (((high % pow5) << low) / pow5) + 1
    };
    // Rounding up never carries out of 64 bits: a build error if it did.
    assert!(g >> 63 == 1);
    g as u64
}

/// `⌊log₂ 10^e⌋` (exact for |e| ≤ 1233).
const fn floor_log2_pow10(e: i32) -> i32 {
    (e * 1_741_647) >> 19
}

/// How [`shortest`] scales the floats of one raw exponent: by `g =
/// g(−k)` ([`pow10`]), after shifting the mantissa left by `h`.
#[derive(Clone, Copy)]
struct Scale {
    g: u64,
    k: i32,
    h: u32,
}

/// The [`Scale`] of every raw exponent (0 for subnormals) at index
/// `exponent`, and at `256 + exponent` for a mantissa of zero, whose
/// rounding interval is narrower below. Built at compile time.
static SCALES: [Scale; 512] = scales();

// Evaluated at compile time only: an out-of-range index there is a
// build error, never a runtime panic, and `i < table.len()` bounds it.
#[allow(clippy::indexing_slicing)]
const fn scales() -> [Scale; 512] {
    let mut table = [Scale { g: 0, k: 0, h: 0 }; 512];
    let mut i = 0;
    while i < table.len() {
        // i < 512: both fit i32.
        let exponent = (i % 256) as i32;
        let lower_closer = i >= 256 && exponent > 1;
        let q = if exponent == 0 { 1 } else { exponent } - EXPONENT_OFFSET;
        // k = ⌊log₁₀ 2^q⌋, or ⌊log₁₀ (3/4 · 2^q)⌋ when the lower gap
        // is narrower (exact for |q| ≤ 1500): scaled by 10^−k, the
        // interval is wide enough to hold a full-length candidate and
        // narrow enough that at most one candidate with one digit fewer
        // fits.
        let k = (q * 1_262_611 - if lower_closer { 524_031 } else { 0 }) >> 22;
        // The bits that align 2^q · 10^−k with g's scale.
        let h = q + floor_log2_pow10(-k) + 1;
        assert!(POW10_MIN <= -k && -k <= POW10_MAX && 1 <= h && h <= 4);
        table[i] = Scale {
            g: pow10(-k),
            k,
            // 1 ≤ h ≤ 4 (asserted above): fits u32.
            h: h as u32,
        };
        i += 1;
    }
    table
}

/// `cp · g / 2^64`, rounded to odd: the integer part, with its lowest
/// bit set when the product was not an integer. `g` exceeds the exact
/// power by less than one, which adds less than 2^30 to the product, so
/// an exact product keeps bits 32..64 at 0 or 1; for a binary32 no
/// inexact one comes that close to an integer (the exhaustive test
/// checks every input).
fn round_to_odd(g: u64, cp: u32) -> u32 {
    let product = u128::from(g) * u128::from(cp);
    // cp < 2^30 and g < 2^64, so the integer part is below 2^30.
    let integer = (product >> 64) as u32;
    // Only bits 32..64 are wanted: the truncation is the point.
    let fraction = (product >> 32) as u32;
    integer | u32::from(fraction > 1)
}

/// Shortest decimal `(digits, exponent)` with `digits · 10^exponent`
/// inside the rounding interval of the nonzero finite binary32 given by
/// its raw fields, closest to it, ties rounded up. `digits < 10^9`, and
/// it may end in zeros.
#[inline]
fn shortest(ieee_mantissa: u32, ieee_exponent: u32) -> (u32, i32) {
    let c = if ieee_exponent == 0 {
        ieee_mantissa
    } else {
        ieee_mantissa | (1 << MANTISSA_BITS)
    };
    // Round-half-even binary rounding: interval ends of an even
    // mantissa parse back to it, so they are acceptable outputs.
    let accept = c % 2 == 0;
    // The gap below a power of two is half as wide.
    let lower_closer = ieee_mantissa == 0 && ieee_exponent > 1;
    // ieee_exponent ≤ 254, so the index is below 512: fits usize.
    let index = (ieee_exponent | u32::from(lower_closer) << 8) as usize;
    let Scale { g, k, h } = SCALES
        .get(index)
        .copied()
        .unwrap_or(Scale { g: 0, k: 0, h: 0 });
    // The interval ends and the value at 4× scale: integers.
    let vbl = round_to_odd(g, (4 * c - 2 + u32::from(lower_closer)) << h);
    let vb = round_to_odd(g, (4 * c) << h);
    let vbr = round_to_odd(g, (4 * c + 2) << h);
    let lower = vbl + u32::from(!accept);
    let upper = vbr - u32::from(!accept);

    // One digit fewer: at most one of the two multiples of ten around
    // the value fits the interval. Full length: the candidate that
    // fits, or the nearer of both; `vb` is even only when exact, so
    // `vb == 4s + 2` is an exact tie, which std rounds up. Both are
    // computed and one is selected, so no branch depends on the digits.
    let s = vb / 4;
    let sp = s / 10;
    let up_inside = lower <= 40 * sp;
    let wp_inside = 40 * sp + 40 <= upper;
    let shorter = (s >= 10) & (up_inside != wp_inside);
    let u_inside = lower <= 4 * s;
    let w_inside = 4 * s + 4 <= upper;
    let round_up = select_unpredictable(u_inside == w_inside, vb >= 4 * s + 2, w_inside);
    select_unpredictable(
        shorter,
        (sp + u32::from(wp_inside), k + 1),
        (s + u32::from(round_up), k),
    )
}

/// `10^i` for i = 0..=9.
const POW10_U32: [u32; 10] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Decimal digits of `0 < d < 10^9`: the bit length gives ⌊log₁₀⌋
/// or one less, and one comparison settles which.
// bits ≤ 30, so guess ≤ 9 indexes the 10-entry table.
#[allow(clippy::indexing_slicing)]
fn digit_count(d: u32) -> u32 {
    let guess = ((32 - d.leading_zeros()) * 1233) >> 12;
    // guess ≤ 9: fits usize.
    guess + u32::from(d >= POW10_U32[guess as usize])
}

/// The digit values of `v < 10^8`, zero-padded to eight, most
/// significant first in little-endian byte order. Each step splits every
/// lane in two, 4+4 digits, then 2+2, then 1+1: the quotient `q` of a
/// lane `x` stays and `x − d·q` moves one half-lane up, both in one
/// multiply-add, `(x << w) + q·(1 − d·2^w)`.
#[inline]
fn eight_digits(v: u32) -> u64 {
    let v = u64::from(v);
    let quads = (v << 32).wrapping_add((v / 10_000).wrapping_mul(1u64.wrapping_sub(10_000 << 32)));
    // ⌊x · 10486 / 2^20⌋ = ⌊x / 100⌋ for x < 10^4, lane by lane.
    let hundreds = ((quads * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let pairs = (quads << 16).wrapping_add(hundreds.wrapping_mul(1u64.wrapping_sub(100 << 16)));
    // ⌊x · 103 / 2^10⌋ = ⌊x / 10⌋ for x < 100, lane by lane.
    let tens = ((pairs * 103) >> 10) & 0x000f_000f_000f_000f;
    (pairs << 8).wrapping_add(tens.wrapping_mul(1u64.wrapping_sub(10 << 8)))
}

/// `'0'` in every byte: OR-ed onto digit values 0–9 it gives their ASCII.
const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;

/// Bytes a number's text is written over: every binary32 text fits (the
/// exhaustive test writes each one; −1e−45 takes 48 bytes), and so do the
/// fast path's 8-byte stores at offsets up to 31.
const BLOCK: usize = 64;

/// Store the eight bytes of `bytes` (little-endian) at `block[at..]`.
fn put(block: &mut [u8; BLOCK], at: u32, bytes: u64) {
    // at ≤ 31, so the eight bytes end within the block: the bounds
    // check folds away.
    let at = (at & 31) as usize;
    if let Some(slot) = block.get_mut(at..at + 8) {
        slot.copy_from_slice(&bytes.to_le_bytes());
    }
}

/// Store `byte` at `block[at]`.
fn set(block: &mut [u8; BLOCK], at: u32, byte: u8) {
    // at ≤ 31 < BLOCK: the bounds check folds away.
    if let Some(slot) = block.get_mut((at & 31) as usize) {
        *slot = byte;
    }
}

/// Write the text of `sign · digits · 10^exponent` (`0 < digits <
/// 10^9`, `negative` 0 or 1) in `Display`'s plain notation at the front
/// of `block`, which holds `'0'` in every byte, and return its length.
///
/// The digits are scaled to exactly nine, so the first is never zero
/// and zeros fill the rest. The text is stored over the zeros front to
/// back — sign and `0.` prefix, digits, and, when the point falls inside
/// the digits, the point and the fraction once more one byte further on.
/// Every store happens whatever the case; a store a case does not need
/// lands past the text's end.
#[inline]
fn write_decimal(block: &mut [u8; BLOCK], negative: u32, digits: u32, exponent: i32) -> usize {
    let count = digit_count(digits);
    // count ≤ 9: the index is in 0..=9.
    let nine = digits * POW10_U32.get((9 - count) as usize).copied().unwrap_or(1);
    // nine < 10^9: a digit value.
    let first = b'0' + (nine / 100_000_000) as u8;
    let rest = eight_digits(nine % 100_000_000);
    // Trailing zero digits among the last eight end the significant ones.
    let significant = 9 - rest.leading_zeros() / 8;
    let rest = rest | ASCII_ZEROS;
    // Digits before the decimal point; ≤ 0 below one. count ≤ 9.
    let point = count as i32 + exponent;
    if !(-11..=22).contains(&point) {
        return write_padded(block, negative, first, rest, significant, point);
    }
    // `at`: where the digits start; below one, "0." and −point zeros
    // come first. `split`: where a point inside the digits goes, or the
    // text's end when there is none.
    let below_one = point <= 0;
    let point = point.unsigned_abs();
    let (at, len, split) = select_unpredictable(
        below_one,
        (2 + point, 2 + point + significant, 2 + point + significant),
        select_unpredictable(
            point < significant,
            (0, significant + 1, point),
            (0, point, point),
        ),
    );
    // "-0." or "0.": a positive number's digits overwrite the '.' when
    // it is one or more.
    let base = negative;
    put(
        block,
        0,
        select_unpredictable(negative != 0, 0x3030_3030_302e_302d, 0x3030_3030_3030_2e30),
    );
    set(block, base + at, first);
    put(block, base + at + 1, rest);
    set(block, base + split, b'.');
    put(
        block,
        base + split + 1,
        rest.wrapping_shr(8 * split.wrapping_sub(1)),
    );
    // len + negative ≤ 32: fits usize.
    (len + negative) as usize
}

/// [`write_decimal`] for a point more than eleven places before the
/// first digit or more than 22 after it: below 10⁻¹¹ or from 10²² up.
/// `first` and `rest` are the ASCII of the nine scaled digits, of which
/// `significant` count.
fn write_padded(
    block: &mut [u8; BLOCK],
    negative: u32,
    first: u8,
    rest: u64,
    significant: u32,
    point: i32,
) -> usize {
    let mut digits = [first; 9];
    if let Some(tail) = digits.get_mut(1..) {
        tail.copy_from_slice(&rest.to_le_bytes());
    }
    set(block, 0, if negative != 0 { b'-' } else { b'0' });
    // negative ≤ 1, significant ≤ 9 and |point| ≤ 45 for any binary32:
    // all fit usize.
    let (base, significant) = (negative as usize, significant as usize);
    let zeros = point.unsigned_abs() as usize; // ≤ 45: fits usize.
    let at = if point <= 0 {
        if let Some(prefix) = block.get_mut(base..base + 2) {
            prefix.copy_from_slice(b"0.");
        }
        base + 2 + zeros
    } else {
        base
    };
    if let (Some(slot), Some(digits)) = (
        block.get_mut(at..at + significant),
        digits.get(..significant),
    ) {
        slot.copy_from_slice(digits);
    }
    // An integer's zeros after its digits are already there.
    if point <= 0 {
        at + significant
    } else {
        base + zeros
    }
}

/// Write `v` as `format!("{v}")` renders it, or `null` when `v` is not
/// finite, at the front of `block`; return its length. Any bytes of
/// the block may be overwritten.
#[inline]
fn write_f32(block: &mut [u8; BLOCK], v: f32) -> usize {
    *block = [b'0'; BLOCK];
    let bits = v.to_bits();
    let ieee_exponent = (bits >> MANTISSA_BITS) & 0xff;
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    if ieee_exponent == 0xff {
        put(block, 0, u64::from_le_bytes(*b"null0000"));
        4
    } else if ieee_exponent == 0 && ieee_mantissa == 0 {
        // "0", or "-0" over the block's zeros.
        let negative = bits >> 31;
        set(block, 0, if negative != 0 { b'-' } else { b'0' });
        // negative ≤ 1: fits usize.
        1 + negative as usize
    } else {
        let (digits, exponent) = shortest(ieee_mantissa, ieee_exponent);
        write_decimal(block, bits >> 31, digits, exponent)
    }
}

/// Append `v` as `format!("{v}")` renders it, or `null` when `v` is not
/// finite.
pub(crate) fn push_f32(out: &mut Vec<u8>, v: f32) {
    let mut block = [0; BLOCK];
    let len = write_f32(&mut block, v);
    out.extend_from_slice(block.get(..len).unwrap_or_default());
}

/// Bytes of text gathered on the stack before they are appended.
const CHUNK: usize = 1024;

/// Append `items` comma-separated, each as [`push_f32`] writes it. The
/// texts are written into a stack chunk, which is appended whenever it
/// could not hold one more: the vector is touched once per chunk, not
/// once per number.
pub(crate) fn push_f32_list(out: &mut Vec<u8>, items: &[f32]) {
    let mut chunk = [0; CHUNK];
    let mut len = 0;
    for (i, &v) in items.iter().enumerate() {
        if len > CHUNK - 1 - BLOCK {
            out.extend_from_slice(chunk.get(..len).unwrap_or_default());
            len = 0;
        }
        // len ≤ CHUNK − 1 − BLOCK: the comma and the block fit.
        if let Some(comma) = chunk.get_mut(len) {
            *comma = b',';
        }
        len += usize::from(i > 0);
        if let Some(block) = chunk
            .get_mut(len..len + BLOCK)
            .and_then(|block| <&mut [u8; BLOCK]>::try_from(block).ok())
        {
            len += write_f32(block, v);
        }
    }
    out.extend_from_slice(chunk.get(..len).unwrap_or_default());
}

/// Append `n` in decimal: eight digits per [`eight_digits`] block, the
/// first block without its leading zeros.
pub(crate) fn push_usize(out: &mut Vec<u8>, n: usize) {
    // usize is at most 64 bits wide on every supported target.
    let n = n as u64;
    let head = n / 100_000_000;
    // n % 10^8 < 2^27: fits u32.
    let tail = eight_digits((n % 100_000_000) as u32) | ASCII_ZEROS;
    if head == 0 {
        // At least one digit, even for 0.
        let leading = ((tail & 0x0f0f_0f0f_0f0f_0f0f).trailing_zeros() / 8).min(7);
        let start = out.len();
        out.extend_from_slice(&(tail >> (8 * leading)).to_le_bytes());
        // leading ≤ 7: fits usize.
        out.truncate(start + 8 - leading as usize);
        return;
    }
    // head < 2^37, so at most two more levels.
    push_usize(out, head as usize);
    out.extend_from_slice(&tail.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(v: f32) -> String {
        let mut out = Vec::new();
        push_f32(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    fn display(v: f32) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    fn assert_parity(bits: u32) {
        let v = f32::from_bits(bits);
        assert_eq!(render(v), display(v), "bits {bits:#010x}");
    }

    #[test]
    fn named_values_match_display() {
        for v in [
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1e-45,
            -1e-45,
            f32::EPSILON,
            0.1,
            1.0 / 3.0,
            0.62417,
            -2.5e-7,
            1.0,
            100.0,
            123_456_790.0,
            16_777_216.0,
        ] {
            assert_eq!(render(v), display(v), "{v:e}");
        }
        assert_eq!(render(f32::MAX), "340282350000000000000000000000000000000");
        assert_eq!(
            render(1e-45),
            "0.000000000000000000000000000000000000000000001"
        );
    }

    #[test]
    fn exact_ties_round_half_up_like_display() {
        // 1916.28125 and 2719.53125 are exact binary32 values whose
        // shortest decimal ends in a tie; Ryu would round both down to
        // even.
        assert_eq!(render(f32::from_bits(0x44ef_8900)), "1916.2813");
        assert_eq!(render(f32::from_bits(0x4529_f880)), "2719.5313");
        assert_parity(0x44ef_8900);
        assert_parity(0x4529_f880);
    }

    #[test]
    fn zeros_and_non_finite() {
        assert_eq!(render(0.0), "0");
        assert_eq!(render(-0.0), "-0");
        assert_eq!(render(f32::INFINITY), "null");
        assert_eq!(render(f32::NEG_INFINITY), "null");
        assert_eq!(render(f32::NAN), "null");
        assert_eq!(render(-f32::NAN), "null");
    }

    #[test]
    fn exponent_extremes_match_display() {
        // Smallest and largest mantissa of every exponent (subnormals at
        // exponent 0), both signs.
        for exponent in 0..=255u32 {
            for mantissa in [0, 1, 2, (1 << MANTISSA_BITS) - 2, (1 << MANTISSA_BITS) - 1] {
                let bits = (exponent << MANTISSA_BITS) | mantissa;
                assert_parity(bits);
                assert_parity(bits | 1 << 31);
            }
        }
    }

    #[test]
    fn strided_bit_patterns_match_display() {
        // 65 521 is prime, so the stride visits every exponent and a
        // spread of mantissa residues.
        let mut bits = 0u32;
        while let Some(next) = bits.checked_add(65_521) {
            assert_parity(bits);
            bits = next;
        }
    }

    /// `x · 2^twos · 10^tens` in little-endian `u32` limbs, without high
    /// zero limbs: slow schoolbook arithmetic, independent of the table
    /// construction.
    fn big(x: u64, twos: u32, tens: u32) -> Vec<u32> {
        let mut limbs = vec![x as u32, (x >> 32) as u32];
        let factors =
            std::iter::repeat_n(2, twos as usize).chain(std::iter::repeat_n(10, tens as usize));
        for factor in factors {
            let mut carry = 0u64;
            for limb in &mut limbs {
                let product = u64::from(*limb) * factor + carry;
                *limb = product as u32;
                carry = product >> 32;
            }
            limbs.push(carry as u32);
        }
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        limbs
    }

    /// `a < b` for [`big`] values.
    fn less(a: &[u32], b: &[u32]) -> bool {
        (a.len(), a.iter().rev().collect::<Vec<_>>())
            < (b.len(), b.iter().rev().collect::<Vec<_>>())
    }

    #[test]
    fn power_table_matches_exact_powers_of_ten() {
        for e in POW10_MIN..=POW10_MAX {
            let g = pow10(e);
            let r = floor_log2_pow10(e) - 63;
            assert!(g >> 63 == 1, "g({e}) = {g:#x} is not a 64-bit value");
            // (g − 1) · 2^r < 10^e ≤ g · 2^r, with both sides multiplied
            // by 2^max(−r, 0) · 10^max(−e, 0) to stay in integers.
            let (two, ten) = ((-r).max(0) as u32, (-e).max(0) as u32);
            let power = big(1, two, e.max(0) as u32);
            let twos = (r + two as i32) as u32;
            assert!(
                less(&big(g - 1, twos, ten), &power),
                "g({e}) = {g:#x} is too large"
            );
            assert!(
                !less(&big(g, twos, ten), &power),
                "g({e}) = {g:#x} is too small"
            );
        }
    }

    #[test]
    fn random_bit_patterns_match_display() {
        // 2^20 patterns from a fixed xorshift seed: every exponent, both
        // signs, and mantissas the strided walk does not reach.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..1 << 20 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            assert_parity((state >> 32) as u32);
        }
    }

    /// `digits · 10^exponent` laid out by hand: digits, then the point
    /// moved into, before or past them.
    fn laid_out(digits: u32, exponent: i32) -> String {
        let text = digits.to_string();
        let point = text.len() as i32 + exponent;
        let text = text.trim_end_matches('0');
        let len = text.len() as i32;
        if point <= 0 {
            format!("0.{}{text}", "0".repeat(point.unsigned_abs() as usize))
        } else if point < len {
            format!("{}.{}", &text[..point as usize], &text[point as usize..])
        } else {
            format!("{text}{}", "0".repeat((point - len) as usize))
        }
    }

    #[test]
    fn every_digit_count_at_every_point_position() {
        for count in 1..=9u32 {
            // Nonzero last digit, and the same digits followed by a zero
            // (the core may return trailing zeros).
            let digits = 987_654_321 / 10u32.pow(9 - count);
            let mut cases = vec![digits];
            if count < 9 {
                cases.push(digits * 10);
            }
            for digits in cases {
                for exponent in -60..=40 {
                    let expected = laid_out(digits, exponent);
                    for negative in [0, 1] {
                        let mut block = [b'0'; BLOCK];
                        let len = write_decimal(&mut block, negative, digits, exponent);
                        let sign = if negative == 1 { "-" } else { "" };
                        assert_eq!(
                            std::str::from_utf8(&block[..len]).unwrap(),
                            format!("{sign}{expected}"),
                            "{digits}e{exponent}"
                        );
                    }
                }
            }
            // Floats whose shortest text has these digits, at every
            // point position a binary32 reaches.
            let digits = digits.to_string();
            for point in -45..=39i32 {
                let text = format!("{}e{}", digits, point - count as i32);
                let v: f32 = text.parse().unwrap();
                assert_parity(v.to_bits());
                assert_parity((-v).to_bits());
            }
        }
    }

    #[test]
    fn lists_match_comma_joined_display() {
        // Long enough to flush the stack chunk several times, with every
        // special value at both ends of a flush.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut items = vec![f32::NAN, -0.0, 0.0, f32::INFINITY, 1e-45, -f32::MAX];
        for i in 0..3000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            items.push(match i % 7 {
                0 => f32::from_bits((state >> 32) as u32),
                1 => -1.1754942e-38,
                _ => (state >> 40) as f32 / (1u64 << 22) as f32 - 2.0,
            });
        }
        for len in [0, 1, 2, 90, items.len()] {
            let mut out = b"[".to_vec();
            push_f32_list(&mut out, &items[..len]);
            let expected: Vec<String> = items[..len].iter().map(|&v| display(v)).collect();
            assert_eq!(
                String::from_utf8(out).unwrap(),
                format!("[{}", expected.join(","))
            );
        }
    }

    #[test]
    fn integers_match_to_string() {
        for n in [
            0,
            7,
            10,
            99,
            12_345_678,
            99_999_999,
            100_000_000,
            123_456_789_012,
            usize::MAX,
        ] {
            let mut out = b"x".to_vec();
            push_usize(&mut out, n);
            assert_eq!(String::from_utf8(out).unwrap(), format!("x{n}"));
        }
    }

    /// Every one of the 2³² bit patterns. Run it in release:
    /// `cargo test --release -p soulmate-serve -- --ignored`.
    #[test]
    #[ignore = "all 2^32 patterns: about 15 CPU-minutes in release"]
    fn exhaustive_parity() {
        use std::fmt::Write;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let chunk = (1u64 << 32).div_ceil(threads as u64);
        let mismatches: u64 = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads as u64)
                .map(|t| {
                    scope.spawn(move || {
                        let mut expected = String::new();
                        let mut actual = Vec::new();
                        let mut bad = 0u64;
                        let end = ((t + 1) * chunk).min(1 << 32);
                        for bits in t * chunk..end {
                            let v = f32::from_bits(bits as u32);
                            expected.clear();
                            if v.is_finite() {
                                write!(expected, "{v}").unwrap();
                            } else {
                                expected.push_str("null");
                            }
                            actual.clear();
                            push_f32(&mut actual, v);
                            if actual != expected.as_bytes() {
                                if bad < 10 {
                                    eprintln!(
                                        "{bits:#010x}: {expected} vs {}",
                                        String::from_utf8_lossy(&actual)
                                    );
                                }
                                bad += 1;
                            }
                        }
                        bad
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(mismatches, 0);
    }
}
