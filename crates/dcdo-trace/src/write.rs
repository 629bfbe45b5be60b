//! The one deterministic writer behind every JSON and Prometheus export.
//! Its rules decide every byte: strings and keys escape `"`, `\`, `\n`, `\r`,
//! `\t` and the other control characters (`\u00XX`); integers are decimal
//! digits written without the formatting machinery (hashes: sixteen hex
//! digits); floats take the shortest round-trip `{:?}` form, or `null`
//! (JSON) and `NaN`/`+Inf`/`-Inf` (Prometheus) when not finite; containers
//! separate with `,`/`:` or `, `/`: ` and put one element per line, two
//! spaces per level, when opened `_lines`; Prometheus label values escape
//! `\`, `"` and newline. Each call appends to one `String`; there is no
//! document tree.

use std::fmt::Write as _;

#[cfg(test)]
pub(crate) mod parse;

/// Appends `v` in decimal, the bytes `write!(out, "{v}")` would append.
#[inline]
fn push_u64(out: &mut String, mut v: u64) {
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

/// Appends `s` by the JSON string rule, or the Prometheus label-value rule.
#[inline(always)]
fn push_escaped(out: &mut String, s: &str, json: bool) {
    // No early exit: the check folds away for a literal and vectorizes.
    let special = |b| (b < 0x20) | (b == b'"') | (b == b'\\');
    if !s.bytes().fold(false, |seen, b| seen | special(b)) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' if json => out.push_str("\\r"),
            '\t' if json => out.push_str("\\t"),
            c if json && c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
}

/// An append-only JSON writer: the caller opens containers and writes keys
/// and values; the writer places every separator, line break and indent.
///
/// ```
/// let mut w = dcdo_trace::JsonWriter::spaced();
/// w.object_lines().key("name").str("a\"b").key("xs").array().u64(1).f64(f64::NAN);
/// w.close().close();
/// assert_eq!(w.finish(), "{\n  \"name\": \"a\\\"b\",\n  \"xs\": [1, null]\n}");
/// ```
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    spaced: bool,
    /// Each open container's close bracket and layout, innermost last.
    stack: Vec<(char, bool)>,
    /// The innermost container holds no element yet.
    empty: bool,
    /// The innermost container puts one element per line.
    lines: bool,
    /// A key was just written, so the next value needs no separator.
    after_key: bool,
}

impl JsonWriter {
    /// A writer separating with `,` and `:`.
    pub fn compact() -> Self {
        JsonWriter::default()
    }

    /// A writer separating with `, ` and `: `.
    pub fn spaced() -> Self {
        JsonWriter {
            spaced: true,
            ..Self::default()
        }
    }

    fn line(&mut self, depth: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n("  ", depth));
    }

    /// Writes what the next element owes its container (nothing after a key).
    #[inline(always)]
    fn value(&mut self) -> &mut String {
        if !std::mem::take(&mut self.after_key) && !self.stack.is_empty() {
            if !std::mem::take(&mut self.empty) {
                if self.spaced && !self.lines {
                    self.out.push_str(", ");
                } else {
                    self.out.push(',');
                }
            }
            if self.lines {
                self.line(self.stack.len());
            }
        }
        &mut self.out
    }

    #[inline]
    fn open(&mut self, open: char, close: char, lines: bool) -> &mut Self {
        self.value().push(open);
        self.stack.push((close, lines));
        self.lines = lines;
        self.empty = true;
        self
    }

    /// Opens an object whose members stay on the current line.
    #[inline]
    pub fn object(&mut self) -> &mut Self {
        self.open('{', '}', false)
    }

    /// Opens an array whose elements stay on the current line.
    pub fn array(&mut self) -> &mut Self {
        self.open('[', ']', false)
    }

    /// Opens an object with one member per line.
    pub fn object_lines(&mut self) -> &mut Self {
        self.open('{', '}', true)
    }

    /// Opens an array with one element per line.
    pub fn array_lines(&mut self) -> &mut Self {
        self.open('[', ']', true)
    }

    /// Closes the innermost container; panics if none is open.
    #[inline]
    pub fn close(&mut self) -> &mut Self {
        let (close, lines) = self.stack.pop().expect("a container to close");
        if lines && !self.empty {
            self.line(self.stack.len());
        }
        self.out.push(close);
        self.lines = self.stack.last().is_some_and(|&(_, lines)| lines);
        self.empty = false;
        self
    }

    /// Closes a `_lines` container on a line of its own even when it is
    /// empty (the `.vm.json` layout).
    pub fn close_on_line(&mut self) -> &mut Self {
        self.empty = false;
        self.close()
    }

    /// Writes an object key; the next call writes its value.
    #[inline(always)]
    pub fn key(&mut self, key: &str) -> &mut Self {
        let spaced = self.spaced;
        let out = self.value();
        out.push('"');
        push_escaped(out, key, true);
        if spaced {
            out.push_str("\": ");
        } else {
            out.push_str("\":");
        }
        self.after_key = true;
        self
    }

    /// Writes a string.
    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Self {
        let out = self.value();
        out.push('"');
        push_escaped(out, s, true);
        out.push('"');
        self
    }

    /// Writes an integer.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        push_u64(self.value(), v);
        self
    }

    /// Writes a float, `null` when it is not finite.
    #[inline]
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            let _ = write!(self.value(), "{v:?}");
        } else {
            self.value().push_str("null");
        }
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.value().push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value().push_str("null");
        self
    }

    /// Writes the string `prefix` and `v` in sixteen hex digits (digests).
    pub fn hex(&mut self, prefix: &str, v: u64) -> &mut Self {
        let _ = write!(self.value(), "\"{prefix}{v:016x}\"");
        self
    }

    /// Writes `v / 10^places` with exactly `places` (at least one) decimals,
    /// computed from integers (`decimal(1_500, 3)` is `1.500`).
    pub fn decimal(&mut self, v: u64, places: u32) -> &mut Self {
        let scale = 10u64.pow(places);
        let (int, frac, width) = (v / scale, v % scale, places as usize);
        let _ = write!(self.value(), "{int}.{frac:0width$}");
        self
    }

    /// Ends a document or a JSON Lines record.
    pub fn newline(&mut self) -> &mut Self {
        self.out.push('\n');
        self
    }

    /// The rendered text.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }
}

/// An append-only writer of the Prometheus text exposition format: each
/// sample line is one `sample(name)`, its labels, then its value.
///
/// ```
/// let mut p = dcdo_trace::PromWriter::default();
/// p.gauge("m").sample("m").label("name", "a\"b").label_u64("window", 3).u64(7);
/// p.sample("n").f64(f64::INFINITY);
/// assert_eq!(p.finish(), "# TYPE m gauge\nm{name=\"a\\\"b\",window=\"3\"} 7\nn +Inf\n");
/// ```
#[derive(Default)]
pub struct PromWriter {
    out: String,
    /// The current sample line has opened its label set.
    labels: bool,
}

impl PromWriter {
    /// Writes the `# TYPE <name> gauge` line of a metric family.
    pub fn gauge(&mut self, name: &str) -> &mut Self {
        let _ = writeln!(self.out, "# TYPE {name} gauge");
        self
    }

    /// Starts a sample line of the metric `name`.
    pub fn sample(&mut self, name: &str) -> &mut Self {
        self.out.push_str(name);
        self.labels = false;
        self
    }

    fn label_value(&mut self, key: &str) -> &mut String {
        self.out.push(if self.labels { ',' } else { '{' });
        self.labels = true;
        self.out.push_str(key);
        self.out.push_str("=\"");
        &mut self.out
    }

    /// Adds a label, escaping its value.
    pub fn label(&mut self, key: &str, value: &str) -> &mut Self {
        let out = self.label_value(key);
        push_escaped(out, value, false);
        out.push('"');
        self
    }

    /// Adds a label whose value is an integer.
    pub fn label_u64(&mut self, key: &str, v: u64) -> &mut Self {
        let out = self.label_value(key);
        push_u64(out, v);
        out.push('"');
        self
    }

    /// Adds a label whose value is `prefix` and `v` in sixteen hex digits.
    pub fn label_hex(&mut self, key: &str, prefix: &str, v: u64) -> &mut Self {
        let _ = write!(self.label_value(key), "{prefix}{v:016x}\"");
        self
    }

    fn value(&mut self) -> &mut String {
        if std::mem::take(&mut self.labels) {
            self.out.push('}');
        }
        self.out.push(' ');
        &mut self.out
    }

    /// Ends the sample line with an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        let out = self.value();
        push_u64(out, v);
        out.push('\n');
        self
    }

    /// Ends the sample line with a float (`NaN`, `+Inf`, `-Inf` if not finite).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        let out = self.value();
        match v {
            _ if v.is_finite() => {
                let _ = write!(out, "{v:?}");
            }
            _ if v.is_nan() => out.push_str("NaN"),
            _ => out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" }),
        }
        out.push('\n');
        self
    }

    /// The rendered text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::parse::{parse, Json};
    use super::*;

    fn json_str(s: &str) -> String {
        let mut w = JsonWriter::compact();
        w.str(s);
        w.finish()
    }

    fn json_f64(v: f64) -> String {
        let mut w = JsonWriter::compact();
        w.f64(v);
        w.finish()
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_str("\u{1f}\u{7f}é"), "\"\\u001f\u{7f}é\"");
        let mut p = PromWriter::default();
        p.sample("m").label("name", "a\"b\\c\nd\te").u64(1);
        assert_eq!(p.finish(), "m{name=\"a\\\"b\\\\c\\nd\te\"} 1\n");
    }

    #[test]
    fn numbers_round_trip_and_nonfinite_is_null() {
        // The `{:?}` spelling, not `Display`'s (`1`, `0.00004`).
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(4e-5), "4e-5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        for v in [
            -0.0,
            5e-324,
            f64::MIN_POSITIVE / 3.0,
            1e300,
            -f64::MAX,
            0.1 + 0.2,
        ] {
            let back = parse(&json_f64(v)).num();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}");
        }
        let mut p = PromWriter::default();
        p.sample("a")
            .f64(f64::NAN)
            .sample("b")
            .f64(f64::NEG_INFINITY);
        p.sample("c").f64(1.0).sample("d").f64(4e-5);
        assert_eq!(p.finish(), "a NaN\nb -Inf\nc 1.0\nd 4e-5\n");
    }

    #[test]
    fn integers_hex_and_decimals_match_the_formatter() {
        let mut cases = vec![0, 9, 10, u64::MAX];
        cases.extend((0..20).map(|k| 10u64.pow(k)));
        cases.extend((1..20).map(|k| 10u64.pow(k) - 1));
        for v in cases {
            let mut w = JsonWriter::compact();
            w.array()
                .u64(v)
                .hex("0x", v)
                .decimal(v, 3)
                .decimal(v, 1)
                .close();
            let expect = format!(
                "[{v},\"0x{v:016x}\",{}.{:03},{}.{}]",
                v / 1000,
                v % 1000,
                v / 10,
                v % 10
            );
            assert_eq!(w.finish(), expect);
        }
    }

    #[test]
    fn containers_place_separators_and_lines() {
        let mut w = JsonWriter::spaced();
        w.object_lines();
        w.key("empty").array_lines().close();
        w.key("rows").array_lines();
        w.object().key("a").u64(1).key("b").array().close().close();
        w.object().close();
        w.close();
        w.key("block").object_lines().close_on_line();
        w.close().newline();
        let text = w.finish();
        assert_eq!(
            text,
            "{\n  \"empty\": [],\n  \"rows\": [\n    {\"a\": 1, \"b\": []},\n    {}\n  ],\n  \
             \"block\": {\n  }\n}\n"
        );
        parse(&text);

        let mut w = JsonWriter::compact();
        for i in 0..2 {
            w.object()
                .key("i")
                .u64(i)
                .key("s")
                .str("x")
                .close()
                .newline();
        }
        assert_eq!(w.finish(), "{\"i\":0,\"s\":\"x\"}\n{\"i\":1,\"s\":\"x\"}\n");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A character drawn to stress the escape rule: a quote, a
        /// backslash, a control character, ASCII, or any scalar value.
        fn char_of(kind: u8, bits: u32) -> char {
            match kind {
                0 => '"',
                1 => '\\',
                2 => char::from_u32(bits % 0x20).expect("control"),
                3 => char::from_u32(0x20 + bits % 0x60).expect("ASCII"),
                _ => char::from_u32(bits % 0x11_0000).unwrap_or('\u{fffd}'),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Any string, as a key and as a value, and any finite float
            /// (the edge values, else any bit pattern: subnormals and
            /// extreme exponents too) read back equal, in both layouts.
            #[test]
            fn strings_and_floats_round_trip(
                chars in prop::collection::vec((0u8..6, any::<u32>()), 0..24),
                edge in 0usize..8,
                bits in any::<u64>(),
                spaced in any::<bool>(),
            ) {
                let s: String = chars.iter().map(|&(kind, b)| char_of(kind, b)).collect();
                let edges = [-0.0, 5e-324, f64::MIN_POSITIVE / 3.0, 1e300, -f64::MAX];
                let v = edges.get(edge).copied().unwrap_or(f64::from_bits(bits));
                let v = if v.is_finite() { v } else { f64::from_bits(bits >> 12) };
                let mut w = if spaced { JsonWriter::spaced() } else { JsonWriter::compact() };
                w.array_lines().object().key(&s).str(&s).close().f64(v).close();
                let doc = parse(&w.finish());
                prop_assert_eq!(doc.items()[0].get(&s), Some(&Json::Str(s.clone())));
                let back = doc.items()[1].num();
                prop_assert_eq!(back.to_bits(), v.to_bits());
            }
        }
    }
}
