//! Decimal text for the numbers in report and cache-file rows, written
//! without `core::fmt` where that can be done exactly.
//!
//! Every function here appends exactly the bytes `core::fmt` would: an
//! integer as `{}` writes it, an `f64` as `{}` writes it and an `f64` as
//! `{:.N}` writes it. The fast paths cover integers, integral floats
//! below 2^53 and up to four decimals of any float below 2^53 in
//! magnitude; anything else (non-finite values, larger magnitudes, more
//! decimals, non-integral shortest forms) is handed to `core::fmt`. The
//! tests compare both on hundreds of thousands of seeded values.

use std::fmt::Write;

/// The powers of ten a fixed-point cell can scale by, indexed by its
/// number of decimals.
const POW10: [u64; 5] = [1, 10, 100, 1_000, 10_000];

/// 2^53: from here on not every integer is an `f64`.
const EXACT_BELOW: f64 = 9_007_199_254_740_992.0;

/// Appends `v` in decimal.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Appends `v` as `{}` writes it: the shortest text that reads back as
/// `v`, without a trailing `.0`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    // False for NaN and the infinities.
    if v.fract() == 0.0 && v.abs() < EXACT_BELOW {
        if v.is_sign_negative() {
            out.push('-');
        }
        push_u64(out, v.abs() as u64);
    } else {
        write!(out, "{v}").expect("writing to a String cannot fail");
    }
}

/// Appends `v` as `{:.decimals$}` writes it.
pub(crate) fn push_fixed(out: &mut String, v: f64, decimals: usize) {
    let Some(scaled) = scaled(v, decimals) else {
        write!(out, "{v:.decimals$}").expect("writing to a String cannot fail");
        return;
    };
    if v.is_sign_negative() {
        out.push('-');
    }
    let pow = POW10[decimals];
    // Dividing a `u128` takes a library call; the scaled value fits a
    // `u64` unless it reaches 1.8e19.
    let (int, mut fraction) = match u64::try_from(scaled) {
        Ok(s) => (s / pow, s % pow),
        Err(_) => {
            let pow = u128::from(pow);
            ((scaled / pow) as u64, (scaled % pow) as u64)
        }
    };
    push_u64(out, int);
    if decimals > 0 {
        out.push('.');
        let mut digits = [b'0'; 4];
        for d in digits[..decimals].iter_mut().rev() {
            *d = b'0' + (fraction % 10) as u8;
            fraction /= 10;
        }
        out.push_str(std::str::from_utf8(&digits[..decimals]).expect("ASCII digits"));
    }
}

/// `|v| × 10^decimals` rounded to an integer, half to even, as `{:.N}`
/// rounds; `None` when `decimals > 4` or `v` is not finite and below
/// 2^53 in magnitude. Exact: `|v| = m × 2^-shift` with `m < 2^53`, so
/// `m × 10^decimals < 2^67` fits a `u128` and the division by `2^shift`
/// is a shift whose remainder decides the rounding.
fn scaled(v: f64, decimals: usize) -> Option<u128> {
    let pow = *POW10.get(decimals)?;
    let bits = v.to_bits();
    let biased = (bits >> 52) & 0x7ff;
    // |v| ≥ 2^53, the infinities and NaN.
    if biased >= 1023 + 53 {
        return None;
    }
    let fraction = bits & ((1 << 52) - 1);
    let (m, shift) = match biased {
        0 => (fraction, 1074),
        _ => (fraction | 1 << 52, 1075 - biased),
    };
    let x = u128::from(m) * u128::from(pow);
    if shift == 0 {
        return Some(x);
    }
    // Past 2^67 the quotient is 0 and the remainder below one half.
    if shift >= 68 {
        return Some(0);
    }
    let q = x >> shift;
    let r = x & ((1 << shift) - 1);
    let half = 1 << (shift - 1);
    Some(q + u128::from(r > half || (r == half && q & 1 == 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_simcore::SplitMix64;

    fn fixed(v: f64, decimals: usize) -> String {
        let mut s = String::new();
        push_fixed(&mut s, v, decimals);
        s
    }

    fn shortest(v: f64) -> String {
        let mut s = String::new();
        push_f64(&mut s, v);
        s
    }

    /// Checks every formatter against `core::fmt` on `v`. Where a
    /// formatter hands `v` to `core::fmt` itself, the comparison is only
    /// made when `fallback_too` is set: the fallback must happen exactly
    /// outside the fast paths' domain, but comparing `core::fmt` with
    /// itself (on values of up to 309 digits) only costs time.
    fn check(v: f64, fallback_too: bool) {
        let fast = v.is_finite() && v.abs() < EXACT_BELOW;
        for decimals in 0..=4 {
            assert_eq!(scaled(v, decimals).is_some(), fast, "{v:e} at {decimals}");
            if fast || fallback_too {
                assert_eq!(
                    fixed(v, decimals),
                    format!("{v:.decimals$}"),
                    "{v:e} ({:#x}) at {decimals}",
                    v.to_bits()
                );
            }
        }
        if (fast && v.fract() == 0.0) || fallback_too {
            assert_eq!(shortest(v), format!("{v}"), "{v:e} ({:#x})", v.to_bits());
        }
    }

    #[test]
    fn pinned_edge_cases_match_core_fmt() {
        assert_eq!(fixed(0.0625, 3), "0.062");
        assert_eq!(fixed(2.0625, 3), "2.062");
        assert_eq!(fixed(2.5, 0), "2");
        assert_eq!(fixed(0.0005, 3), "0.001");
        assert_eq!(fixed(-0.0, 3), "-0.000");
        assert_eq!(shortest(-0.0), "-0");
        assert_eq!(fixed(-0.0004, 3), "-0.000");
        let two53 = EXACT_BELOW;
        for v in [
            0.0625,
            2.0625,
            2.5,
            0.5,
            1.5,
            0.0005,
            0.0,
            -0.0,
            -0.0004,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            two53 - 1.0,
            two53,
            -(two53 - 1.0),
            4503599627370495.5,
            1e21,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            128.0,
            12.5,
            99.99995,
            0.99995,
        ] {
            check(v, true);
        }
        let mut s = String::new();
        push_u64(&mut s, u64::MAX);
        assert_eq!(s, u64::MAX.to_string());
    }

    #[test]
    fn seeded_values_match_core_fmt() {
        let mut rng = SplitMix64::new(0x5eed_f047);
        for i in 0..70_000u64 {
            // Raw bit patterns: every exponent, subnormals, NaNs, infinities.
            check(f64::from_bits(rng.next_u64()), false);
            // Values in [0, 2^53) scaled by a power of ten, so that all
            // magnitudes report rows hold are covered, with both signs.
            let int = (rng.next_u64() >> 11) as f64;
            let scale = 10f64.powi((rng.next_u64() % 40) as i32 - 20);
            let v = int * scale;
            check(if i % 2 == 0 { v } else { -v }, false);
            // Exact binary ties (2m + 1) / 2^k: a decimal digit sits
            // exactly on a half, where the rounding rule shows.
            let k = 1 + (rng.next_u64() % 20) as i32;
            let m = rng.next_u64() >> (rng.next_u64() % 64);
            let tie = ((2 * (m >> 12) + 1) as f64) / 2f64.powi(k);
            check(tie, false);
            let mut s = String::new();
            let n = rng.next_u64() >> (rng.next_u64() % 64);
            push_u64(&mut s, n);
            assert_eq!(s, n.to_string());
        }
    }
}
