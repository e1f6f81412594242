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

/// Renders a finite `f64` as a JSON number; non-finite values become
/// `null` (JSON has no NaN/Infinity).
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_owned();
    }
    // `{}` on f64 is shortest-round-trip in Rust, which is valid JSON
    // except that it can omit a fractional part — that is still a valid
    // JSON number.
    format!("{v}")
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
        assert_eq!(number(0.25), "0.25");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }
}
