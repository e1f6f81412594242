//! Minimal JSON value formatting shared by the trace and telemetry
//! exporters: string escaping per RFC 8259 and float formatting that
//! never produces `NaN`/`Infinity` literals (both invalid JSON).

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
/// in the workspace turns a number into text.
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
}
