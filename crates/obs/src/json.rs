//! Minimal JSON value formatting shared by the trace and telemetry
//! exporters and the serving front doors: string escaping per RFC 8259,
//! and number writers that never produce `NaN`/`Infinity` literals (both
//! invalid JSON) — [`write_number`] for `f64`, and [`write_f32`], the
//! shortest-f32 writer encode replies stream their tensors through.

/// Writes `s` as a quoted JSON string with all mandatory escapes — the
/// one escape table every JSON writer in the workspace goes through.
///
/// # Errors
///
/// Whatever `out` returns.
pub fn write_string(out: &mut impl std::fmt::Write, s: &str) -> std::fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Renders `s` as a quoted JSON string with all mandatory escapes.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    // Writing into a `String` cannot fail.
    let _ = write_string(&mut out, s);
    out
}

/// Writes a finite `f64` as a JSON number; non-finite values become
/// `null` (JSON has no NaN/Infinity) — the one place every JSON writer
/// in the workspace turns an `f64` into text (`f32` tensors go through
/// [`write_f32`]).
///
/// `{}` on an `f64` is Rust's shortest round-trip form without an
/// exponent: a whole number prints with no fractional part (`3`), and
/// negative zero keeps its sign (`-0`, which parses back to the same
/// bits). All of that is valid JSON.
///
/// # Errors
///
/// Whatever `out` returns.
pub fn write_number(out: &mut impl std::fmt::Write, v: f64) -> std::fmt::Result {
    if v.is_finite() {
        write!(out, "{v}")
    } else {
        out.write_str("null")
    }
}

/// Renders `v` as [`write_number`] writes it.
pub fn number(v: f64) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write_number(&mut out, v);
    out
}

/// Appends `v` as a JSON number: the shortest decimal text that reads
/// back as `v`, byte for byte what std's `{}` prints for the `f32` (no
/// exponent; `-0` keeps its sign; an exact tie between two shortest
/// candidates rounds up). Non-finite values become `null`.
///
/// A reader that parses the text into an `f64` and narrows gets `v`'s
/// bits back, with one exception to std's text that this writer does
/// not share: ±7.038531e-26 is written as its widened `f64`'s text, as
/// the `f64` writer would, because its shortest f32 text narrows to the
/// neighbouring f32 through an `f64` (double rounding).
pub fn write_f32(out: &mut Vec<u8>, v: f32) {
    let bits = v.to_bits();
    let magnitude = bits & 0x7fff_ffff;
    if magnitude >= 0x7f80_0000 {
        out.extend_from_slice(b"null");
        return;
    }
    if bits != magnitude {
        out.push(b'-');
    }
    if magnitude == 0 {
        out.push(b'0');
    } else if magnitude == DOUBLE_ROUNDED {
        use std::io::Write as _;
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{}", f64::from(f32::from_bits(magnitude)));
    } else {
        let (digits, exp) = shortest(magnitude);
        write_decimal(out, digits, exp);
    }
}

/// Appends `values` as a JSON array of [`write_f32`] numbers.
pub fn write_f32_array(out: &mut Vec<u8>, values: &[f32]) {
    // Most activations print in 8–12 bytes; a longer one reallocates.
    out.reserve(values.len().saturating_mul(12).saturating_add(2));
    out.push(b'[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_f32(out, v);
    }
    out.push(b']');
}

// ---------------------------------------------------------------------------
// Shortest f32 text, after Ryū (Adams, "Ryū: fast float-to-string
// conversion", PLDI 2018, https://doi.org/10.1145/3192366.3192369)
// ---------------------------------------------------------------------------

/// The one finite f32 magnitude (bits `0x15ae43fd`, ±7.038531e-26) whose
/// shortest f32 text does not survive a reader that parses into `f64`
/// and narrows: `7.038531e-26` lies just below the midpoint to the next
/// f32 up, but rounds to the `f64` exactly on that midpoint, and
/// narrowing breaks the tie to the even neighbour (`0x15ae43fe`).
/// [`write_f32`] writes it as the widened `f64`'s text instead; the
/// exhaustive test proves there is no other.
const DOUBLE_ROUNDED: u32 = 0x15ae_43fd;

/// Bits of precision of the [`POW5`] and [`POW5_INV`] multipliers.
const POW5_BITS: i32 = 61;

/// `5^i` scaled into `[2^60, 2^61)`: `⌊5^i · 2^(61 − bitlen 5^i)⌋`, for
/// every `i` a negative binary exponent of an f32 reaches.
const POW5: [u64; 48] = pow5_table();

/// `1 / 5^q` scaled into `(2^60, 2^61]`:
/// `⌊2^(bitlen 5^q − 1 + 61) / 5^q⌋ + 1`, for every `q` a positive
/// binary exponent of an f32 reaches.
const POW5_INV: [u64; 31] = pow5_inv_table();

/// `"00" "01" … "99"`: two digits per lookup.
const DIGIT_PAIRS: [u8; 200] = digit_pairs();

/// The bit length of `5^e` (`⌈log2 5^e⌉` for `e ≥ 1`), for `0 ≤ e ≤ 3528`.
const fn pow5bits(e: i32) -> i32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `⌊log10 2^e⌋` for `0 ≤ e ≤ 1650`.
const fn log10_pow2(e: i32) -> i32 {
    (e * 78_913) >> 18
}

/// `⌊log10 5^e⌋` for `0 ≤ e ≤ 2620`.
const fn log10_pow5(e: i32) -> i32 {
    (e * 732_923) >> 20
}

const fn pow5_table() -> [u64; 48] {
    let mut table = [0; 48];
    let mut power: u128 = 1;
    let mut i: i32 = 0;
    while i < 48 {
        let excess = pow5bits(i) - POW5_BITS;
        table[i as usize] = if excess <= 0 { power << -excess } else { power >> excess } as u64;
        power *= 5;
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u64; 31] {
    let mut table = [0; 31];
    let mut power: u128 = 1;
    let mut q: i32 = 0;
    while q < 31 {
        // ⌊2^n / 5^q⌋ by long division, one bit of 2^n at a time: the
        // remainder stays below 5^q < 2^73 and the quotient below 2^62.
        let n = pow5bits(q) - 1 + POW5_BITS;
        let (mut quotient, mut remainder): (u128, u128) = (0, 0);
        let mut bit = n;
        while bit >= 0 {
            remainder = remainder << 1 | (bit == n) as u128;
            quotient <<= 1;
            if remainder >= power {
                remainder -= power;
                quotient |= 1;
            }
            bit -= 1;
        }
        table[q as usize] = quotient as u64 + 1;
        power *= 5;
        q += 1;
    }
    table
}

const fn digit_pairs() -> [u8; 200] {
    let mut table = [0; 200];
    let mut i: u8 = 0;
    while i < 100 {
        table[2 * i as usize] = b'0' + i / 10;
        table[2 * i as usize + 1] = b'0' + i % 10;
        i += 1;
    }
    table
}

/// `⌊m · factor / 2^shift⌋`.
fn mul_shift(m: u32, factor: u64, shift: i32) -> u32 {
    // CAST: a 26-bit `m` times a 61-bit factor, shifted by what Ryū's
    // bounds prescribe, is below 2^32 for every f32 (the exhaustive test
    // takes every path).
    ((u128::from(m) * u128::from(factor)) >> shift) as u32
}

/// `⌊m / 5^q · 2^(bitlen 5^q − 1 + 61 − shift)⌋`, up to the table's +1.
fn mul_pow5_inv_div_pow2(m: u32, q: i32, shift: i32) -> u32 {
    mul_shift(m, POW5_INV[q as usize], shift)
}

/// `⌊m · 5^i · 2^(61 − bitlen 5^i − shift)⌋`.
fn mul_pow5_div_pow2(m: u32, i: i32, shift: i32) -> u32 {
    mul_shift(m, POW5[i as usize], shift)
}

/// Whether `5^p` divides `value`.
fn multiple_of_pow5(mut value: u32, p: i32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) && count < p {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// The shortest `digits · 10^exp` inside the rounding interval of the
/// positive finite f32 with these `bits`, nearest to its exact value; an
/// exact tie between the two nearest rounds **up**, as std's formatter
/// does (Ryū proper rounds a tie to even).
fn shortest(bits: u32) -> (u32, i32) {
    let ieee_mantissa = bits & ((1 << 23) - 1);
    let ieee_exponent = bits >> 23;
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 127 - 23 - 2, ieee_mantissa)
    } else {
        // CAST: the exponent field of a sign-cleared f32 is below 256.
        (ieee_exponent as i32 - 127 - 23 - 2, ieee_mantissa | (1 << 23))
    };
    let accept_bounds = m2 % 2 == 0;

    // The interval of decimals that read back as this float, times 4.
    let mv = 4 * m2;
    let mp = 4 * m2 + 2;
    let mm_shift = u32::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mm = 4 * m2 - 1 - mm_shift;

    // Scale all three to a decimal exponent e10 with a little headroom.
    // `vm_is_trailing_zeros`: the scaled lower bound is exact, so an
    // even mantissa may take it. Ryū also tracks whether `vr` is exact,
    // only to round an exact `…50…0` tie to even; std rounds a tie up,
    // as `last_removed_digit >= 5` does, so that flag has no use here.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    let mut last_removed_digit = 0;
    if e2 >= 0 {
        let q = log10_pow2(e2);
        e10 = q;
        let shift = -e2 + q + POW5_BITS + pow5bits(q) - 1;
        vr = mul_pow5_inv_div_pow2(mv, q, shift);
        vp = mul_pow5_inv_div_pow2(mp, q, shift);
        vm = mul_pow5_inv_div_pow2(mm, q, shift);
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            // One removed digit is needed even when the loop below
            // removes none.
            let shift = -e2 + q - 1 + POW5_BITS + pow5bits(q - 1) - 1;
            last_removed_digit = mul_pow5_inv_div_pow2(mv, q - 1, shift) % 10;
        }
        // Only one of mp, mv and mm can be a multiple of 5, if any.
        if q <= 9 && mv % 5 != 0 {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u32::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2);
        e10 = q + e2;
        let i = -e2 - q;
        let shift = q - (pow5bits(i) - POW5_BITS);
        vr = mul_pow5_div_pow2(mv, i, shift);
        vp = mul_pow5_div_pow2(mp, i, shift);
        vm = mul_pow5_div_pow2(mm, i, shift);
        if q != 0 && (vp - 1) / 10 <= vm / 10 {
            let shift = q - 1 - (pow5bits(i + 1) - POW5_BITS);
            last_removed_digit = mul_pow5_div_pow2(mv, i + 1, shift) % 10;
        }
        if q <= 1 {
            if accept_bounds {
                // mm = mv − 1 − mm_shift has a trailing zero bit iff
                // mm_shift is 1.
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                // mp = mv + 2 has at least one, so it is exact: exclude it.
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal; an
    // exact lower bound then sheds its own trailing zeros.
    let mut removed = 0;
    while vp / 10 > vm / 10 {
        vm_is_trailing_zeros &= vm % 10 == 0;
        last_removed_digit = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_is_trailing_zeros {
        while vm % 10 == 0 {
            last_removed_digit = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // Round up past an excluded bound, or on a removed digit ≥ 5.
    let digits = vr + u32::from((vr == vm && !vm_is_trailing_zeros) || last_removed_digit >= 5);
    (digits, e10 + removed)
}

/// The number of decimal digits of `v`.
fn decimal_length(v: u32) -> i32 {
    let mut length = 1;
    let mut bound = 10u64;
    while u64::from(v) >= bound {
        length += 1;
        bound *= 10;
    }
    length
}

/// Appends `digits · 10^exp` as std's `{}` lays it out: no exponent,
/// no trailing fractional zero, a leading `0.` below one.
fn write_decimal(out: &mut Vec<u8>, digits: u32, exp: i32) {
    let length = decimal_length(digits);
    let mut text = [0u8; 10];
    let mut rest = digits;
    let mut at = length as usize;
    while rest >= 100 {
        let pair = (rest % 100) as usize * 2;
        rest /= 100;
        at -= 2;
        text[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if rest >= 10 {
        let pair = rest as usize * 2;
        text[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        text[0] = DIGIT_PAIRS[rest as usize * 2 + 1];
    }
    let text = &text[..length as usize];
    let point = length + exp;
    if exp >= 0 {
        out.extend_from_slice(text);
        out.resize(out.len() + exp as usize, b'0');
    } else if point > 0 {
        let (whole, fraction) = text.split_at(point as usize);
        out.extend_from_slice(whole);
        out.push(b'.');
        out.extend_from_slice(fraction);
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
        assert_eq!(string("a\\b"), "\"a\\\\b\"");
        assert_eq!(string("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_round_trip_and_nonfinite_is_null() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(-17.0), "-17");
        assert_eq!(number(0.25), "0.25");
        assert_eq!(number(-0.0), "-0");
        assert_eq!(number(1e15), "1000000000000000");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    /// Checks [`write_f32`] on one value against its spec: std's `{}`
    /// bytes (the widened `f64`'s for the one double-rounded magnitude,
    /// `null` when non-finite), and the text parsed as `f64` and narrowed
    /// gives back the same bits.
    fn check_f32(v: f32, out: &mut Vec<u8>, expected: &mut String) -> Result<(), String> {
        use std::fmt::Write as _;
        out.clear();
        expected.clear();
        write_f32(out, v);
        if !v.is_finite() {
            expected.push_str("null");
        } else if v.to_bits() & 0x7fff_ffff == DOUBLE_ROUNDED {
            write!(expected, "{}", f64::from(v)).unwrap();
        } else {
            write!(expected, "{v}").unwrap();
        }
        let text = std::str::from_utf8(out).map_err(|e| e.to_string())?;
        if text != expected {
            return Err(format!("{:#010x}: wrote `{text}`, want `{expected}`", v.to_bits()));
        }
        if v.is_finite() {
            let back = text.parse::<f64>().map_err(|e| e.to_string())? as f32;
            if back.to_bits() != v.to_bits() {
                return Err(format!("{:#010x}: `{text}` reads back as {back}", v.to_bits()));
            }
        }
        Ok(())
    }

    fn check_all(values: impl IntoIterator<Item = f32>) {
        let (mut out, mut expected) = (Vec::new(), String::new());
        let failures: Vec<String> = values
            .into_iter()
            .flat_map(|v| [v, -v])
            .filter_map(|v| check_f32(v, &mut out, &mut expected).err())
            .collect();
        assert!(
            failures.is_empty(),
            "{} failures: {:?}",
            failures.len(),
            &failures[..10.min(failures.len())]
        );
    }

    #[test]
    fn f32_text_is_std_shortest_on_a_strided_sample() {
        // A stride coprime to 2^32 walks every exponent and mantissa
        // pattern; 65 537 of them, both signs.
        check_all(
            (0..=u32::MAX / 65_537).map(|k| f32::from_bits((k * 65_537).wrapping_add(12_345))),
        );
    }

    #[test]
    fn f32_text_is_std_shortest_at_the_edges() {
        let mut values = vec![
            0.0,
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::EPSILON,
            f32::from_bits(1),
            f32::INFINITY,
            f32::NAN,
            0.1,
            0.3,
            1.0 / 3.0,
            123_456_790.0,
        ];
        // Every subnormal boundary: the smallest subnormals, the largest,
        // each power-of-two step among them, and the first normals.
        for bits in (0..64).chain(0x007f_ffc0..0x0080_0040) {
            values.push(f32::from_bits(bits));
        }
        for shift in 0..23 {
            values.extend([1 << shift, (1 << shift) + 1, (2 << shift) - 1].map(f32::from_bits));
        }
        // Every power of two and of ten in range, with both neighbours.
        let powers = (-149..=127)
            .map(|e| 2f64.powi(e) as f32)
            .chain((-45..=38).map(|e| format!("1e{e}").parse::<f32>().unwrap()));
        for p in powers {
            values.extend([p, f32::from_bits(p.to_bits() - 1), f32::from_bits(p.to_bits() + 1)]);
        }
        values.extend(TIES.map(|(v, _)| v));
        values.push(f32::from_bits(DOUBLE_ROUNDED));
        check_all(values);
    }

    /// Values whose exact decimal sits halfway between the two nearest
    /// shortest candidates, each with std's text: the tie rounds up
    /// (half-to-even would end them in 2 or 4).
    #[allow(clippy::excessive_precision, reason = "each literal is its f32's exact value")]
    const TIES: [(f32, &str); 4] = [
        (2015.65625, "2015.6563"),
        (1.00390625, "1.0039063"),
        (0.0166015625, "0.016601563"),
        (0.000244140625, "0.00024414063"),
    ];

    #[test]
    fn an_exact_tie_rounds_up_as_std_does() {
        let text = |v: f32| {
            let mut out = Vec::new();
            write_f32(&mut out, v);
            String::from_utf8(out).unwrap()
        };
        for (v, std_text) in TIES {
            assert_eq!(v.to_string(), std_text);
            assert_eq!(text(v), std_text);
            assert_eq!(text(-v), format!("-{std_text}"));
        }
    }

    #[test]
    fn the_double_rounded_magnitude_is_written_as_its_f64() {
        let v = f32::from_bits(DOUBLE_ROUNDED);
        // std's shortest f32 text narrows to the neighbour through f64 …
        let through_f64 = v.to_string().parse::<f64>().unwrap() as f32;
        assert_ne!(through_f64.to_bits(), v.to_bits());
        assert_eq!(v.to_string(), "0.00000000000000000000000007038531");
        // … so the writer writes the widened value's text, which does not.
        for v in [v, -v] {
            let mut out = Vec::new();
            write_f32(&mut out, v);
            assert_eq!(out, f64::from(v).to_string().into_bytes());
        }
    }

    #[test]
    fn f32_array_is_bracketed_and_comma_separated() {
        let mut out = Vec::new();
        write_f32_array(&mut out, &[]);
        write_f32_array(&mut out, &[1.5, -0.0, f32::NAN, 1e-7]);
        assert_eq!(out, b"[][1.5,-0,null,0.0000001]");
    }

    #[test]
    #[ignore = "all 2^32 bit patterns: minutes in release; CI runs it as its own step"]
    fn every_f32_is_std_shortest_and_round_trips() {
        let threads = std::thread::available_parallelism().map_or(2, |n| n.get()).min(8);
        let span = (1u64 << 32).div_ceil(threads as u64);
        let failures: Vec<String> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads as u64)
                .map(|t| {
                    scope.spawn(move || {
                        let (mut out, mut expected) = (Vec::new(), String::new());
                        let end = ((t + 1) * span).min(1 << 32);
                        let mut failures = Vec::new();
                        for bits in t * span..end {
                            let v = f32::from_bits(bits as u32);
                            if let Err(e) = check_f32(v, &mut out, &mut expected) {
                                failures.push(e);
                            }
                        }
                        failures
                    })
                })
                .collect();
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
        });
        assert!(
            failures.is_empty(),
            "{} failures: {:?}",
            failures.len(),
            &failures[..10.min(failures.len())]
        );
    }
}
