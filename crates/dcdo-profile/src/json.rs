//! Minimal deterministic JSON rendering helpers.
//!
//! Reports are rendered by hand so the byte output is fully under our
//! control: keys appear in a fixed order, integers never pass through
//! floating point, and the same report renders identically on every build
//! profile and machine.

/// Escapes a string for inclusion in a JSON string literal (every writer
/// of the profiler's JSON and `dcdo-inspect vm`'s uses this rule).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` deterministically (shortest round-trip form, same
/// algorithm on every platform), mapping non-finite values to `null`.
pub(crate) fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_round_trip_and_nonfinite_is_null() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }
}
