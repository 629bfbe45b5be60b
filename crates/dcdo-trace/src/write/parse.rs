//! A strict recursive-descent JSON parser for tests: it checks that an
//! export is one well-formed document and reads it back, so the write
//! rules can be checked by round trip rather than by substring.
//!
//! Test-only. Other crates' tests include this file by path, so it uses
//! nothing from its crate.

#![allow(dead_code)]

/// A parsed JSON value. Numbers keep their text, so an integer above 2^53
/// or a float's exact spelling survives.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value of a number.
    pub fn num(&self) -> f64 {
        match self {
            Json::Num(text) => text.parse().expect("number"),
            other => panic!("expected a number, got {other:?}"),
        }
    }

    /// The elements of an array.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    /// The value of a string.
    pub fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }
}

/// Parses `text` as exactly one JSON document (surrounding whitespace
/// allowed).
///
/// # Panics
///
/// On any malformed input, naming the byte offset.
pub fn parse(text: &str) -> Json {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value();
    p.skip_ws();
    assert_eq!(p.pos, p.bytes.len(), "trailing bytes after the document");
    value
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        *self
            .bytes
            .get(self.pos)
            .unwrap_or_else(|| panic!("unexpected end of input at byte {}", self.pos))
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn expect(&mut self, b: u8) {
        let at = self.pos;
        assert_eq!(
            self.bump() as char,
            b as char,
            "malformed JSON at byte {at}"
        );
    }

    fn literal(&mut self, word: &str, value: Json) -> Json {
        assert!(
            self.bytes[self.pos..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.pos
        );
        self.pos += word.len();
        value
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Json {
        self.expect(b'{');
        let mut members = Vec::new();
        if self.peek() == b'}' {
            self.pos += 1;
            return Json::Obj(members);
        }
        loop {
            let key = self.string();
            self.expect(b':');
            members.push((key, self.value()));
            match self.bump() {
                b',' => continue,
                b'}' => return Json::Obj(members),
                other => panic!(
                    "unexpected {:?} in object at byte {}",
                    other as char, self.pos
                ),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.expect(b'[');
        let mut items = Vec::new();
        if self.peek() == b']' {
            self.pos += 1;
            return Json::Arr(items);
        }
        loop {
            items.push(self.value());
            match self.bump() {
                b',' => continue,
                b']' => return Json::Arr(items),
                other => panic!(
                    "unexpected {:?} in array at byte {}",
                    other as char, self.pos
                ),
            }
        }
    }

    fn hex4(&mut self) -> u32 {
        let digits = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).expect("utf8");
        self.pos += 4;
        u32::from_str_radix(digits, 16).expect("four hex digits")
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes[self.pos], b'"' | b'\\') {
                assert!(
                    self.bytes[self.pos] >= 0x20,
                    "raw control byte at {}",
                    self.pos
                );
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf8"));
            self.pos += 1;
            if self.bytes[self.pos - 1] == b'"' {
                return out;
            }
            self.pos += 1;
            out.push(match self.bytes[self.pos - 1] {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let unit = self.hex4();
                    let code = if (0xd800..0xdc00).contains(&unit) {
                        assert_eq!(
                            &self.bytes[self.pos..self.pos + 2],
                            b"\\u",
                            "lone surrogate"
                        );
                        self.pos += 2;
                        0x10000 + ((unit - 0xd800) << 10) + (self.hex4() - 0xdc00)
                    } else {
                        unit
                    };
                    char::from_u32(code).expect("a scalar value")
                }
                other => panic!("bad escape {:?} at byte {}", other as char, self.pos),
            });
        }
    }

    fn number(&mut self) -> Json {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf8");
        let digits = text.strip_prefix('-').unwrap_or(text);
        let leading_zero = digits.starts_with('0') && digits[1..].starts_with(char::is_numeric);
        assert!(
            digits.starts_with(char::is_numeric)
                && !leading_zero
                && !text.ends_with('.')
                && !text.contains(".e"),
            "not a JSON number: {text:?} at byte {start}"
        );
        text.parse::<f64>()
            .unwrap_or_else(|_| panic!("not a JSON number: {text:?} at byte {start}"));
        Json::Num(text.to_string())
    }
}
