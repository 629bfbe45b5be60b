//! The serialized component object-code format.
//!
//! Implementation components travel through the system as byte blobs: an ICO
//! stores the encoded form, a DCDO downloads and decodes ("maps") it. The
//! format is a compact binary encoding with a magic number and format
//! version — the `dcdo-bytecode` object-code format named by
//! [`ObjectCodeFormat::DcdoBytecode`](dcdo_types::ObjectCodeFormat).

use std::fmt;
use std::rc::Rc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dcdo_types::{FunctionSignature, ObjectId};

use crate::instr::{CodeBlock, Instr, Opcode, Operand, Shape};
use crate::value::Value;

/// Magic number opening every encoded component ("DCDO").
pub const MAGIC: u32 = 0x4443_444F;

/// Current format version.
pub const FORMAT_VERSION: u16 = 1;

/// Maximum length accepted for any string or sequence while decoding.
const MAX_LEN: usize = 1 << 24;

/// Error produced while decoding the component format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the structure was complete.
    UnexpectedEof,
    /// The magic number did not match [`MAGIC`].
    BadMagic(u32),
    /// The format version is not supported.
    UnsupportedVersion(u16),
    /// An unknown instruction opcode was found.
    BadOpcode(u8),
    /// An unknown value/type tag was found.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A signature string did not parse.
    BadSignature(String),
    /// A length field exceeded sanity limits.
    TooLarge(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::BadMagic(m) => write!(f, "bad magic number {m:#010x}"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::BadTag(t) => write!(f, "unknown tag {t:#04x}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            DecodeError::BadSignature(s) => write!(f, "invalid signature {s:?}"),
            DecodeError::TooLarge(n) => write!(f, "length field {n} exceeds limits"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Incremental writer for the component format.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates an empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Writer {
            buf: BytesMut::with_capacity(n),
        }
    }

    /// Finishes and returns the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Writes a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Writes a `u16` (big-endian).
    pub fn u16(&mut self, v: u16) {
        self.buf.put_u16(v);
    }

    /// Writes a `u32` (big-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.put_u32(v);
    }

    /// Writes a `u64` (big-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.put_u64(v);
    }

    /// Writes an `i64` (big-endian).
    pub fn i64(&mut self, v: i64) {
        self.buf.put_i64(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.put_slice(s.as_bytes());
    }
}

/// Incremental reader for the component format.
#[derive(Debug)]
pub struct Reader {
    buf: Bytes,
}

impl Reader {
    /// Creates a reader over encoded bytes.
    pub fn new(buf: Bytes) -> Self {
        Reader { buf }
    }

    /// Returns the number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    fn need(&self, n: usize) -> Result<(), DecodeError> {
        if self.buf.remaining() < n {
            Err(DecodeError::UnexpectedEof)
        } else {
            Ok(())
        }
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.need(2)?;
        Ok(self.buf.get_u16())
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.need(4)?;
        Ok(self.buf.get_u32())
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_u64())
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_i64())
    }

    /// Reads a length prefix, enforcing sanity limits.
    pub fn read_len(&mut self) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n > MAX_LEN {
            return Err(DecodeError::TooLarge(n));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        self.str_with(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string and hands it to `f` in place,
    /// so a caller that keeps it as an `Rc<str>` copies it once.
    pub fn str_with<T>(&mut self, f: impl FnOnce(&str) -> T) -> Result<T, DecodeError> {
        let n = self.read_len()?;
        self.need(n)?;
        let bytes = self.buf.copy_to_bytes(n);
        let s = std::str::from_utf8(&bytes).map_err(|_| DecodeError::BadUtf8)?;
        Ok(f(s))
    }
}

// ---- Value ----------------------------------------------------------------

const TAG_UNIT: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_LIST: u8 = 4;
const TAG_OBJREF: u8 = 5;

/// Encodes a [`Value`].
pub fn write_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Unit => w.u8(TAG_UNIT),
        Value::Int(n) => {
            w.u8(TAG_INT);
            w.i64(*n);
        }
        Value::Bool(b) => {
            w.u8(TAG_BOOL);
            w.u8(u8::from(*b));
        }
        Value::Str(s) => {
            w.u8(TAG_STR);
            w.str(s);
        }
        Value::List(items) => {
            w.u8(TAG_LIST);
            w.u32(items.len() as u32);
            for item in items {
                write_value(w, item);
            }
        }
        Value::ObjRef(o) => {
            w.u8(TAG_OBJREF);
            w.u64(o.as_raw());
        }
    }
}

/// Decodes a [`Value`].
pub fn read_value(r: &mut Reader) -> Result<Value, DecodeError> {
    match r.u8()? {
        TAG_UNIT => Ok(Value::Unit),
        TAG_INT => Ok(Value::Int(r.i64()?)),
        TAG_BOOL => Ok(Value::Bool(r.u8()? != 0)),
        TAG_STR => r.str_with(|s| Value::Str(Rc::from(s))),
        TAG_LIST => {
            let n = r.read_len()?;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(read_value(r)?);
            }
            Ok(Value::List(items))
        }
        TAG_OBJREF => Ok(Value::ObjRef(ObjectId::from_raw(r.u64()?))),
        t => Err(DecodeError::BadTag(t)),
    }
}

// ---- Instr ----------------------------------------------------------------

/// Encodes one instruction: its tag, the opcode index plus one, then its
/// operand.
pub fn write_instr(w: &mut Writer, i: &Instr) {
    w.u8(i.opcode() as u8 + 1);
    match i.operand() {
        Operand::None => {}
        Operand::Value(v) => write_value(w, v),
        Operand::U8(n) => w.u8(n),
        Operand::Jump(t) => w.u32(t),
        Operand::Call(function, argc) => {
            w.str(function.as_str());
            w.u8(argc);
        }
        Operand::U64(n) => w.u64(n),
        Operand::Key(k) => w.str(k.as_str()),
    }
}

/// Decodes one instruction.
pub fn read_instr(r: &mut Reader) -> Result<Instr, DecodeError> {
    let tag = r.u8()?;
    let op = tag
        .checked_sub(1)
        .and_then(|index| Opcode::ALL.get(usize::from(index)))
        .ok_or(DecodeError::BadOpcode(tag))?;
    let operand = match op.shape() {
        Shape::None => Operand::None,
        Shape::Value => Operand::Value(read_value(r)?),
        Shape::U8 => Operand::U8(r.u8()?),
        Shape::Jump => Operand::Jump(r.u32()?),
        Shape::Call => Operand::Call(r.str()?.into(), r.u8()?),
        Shape::U64 => Operand::U64(r.u64()?),
        Shape::Key => Operand::Key(r.str()?.into()),
    };
    Ok(op.with(operand))
}

// ---- CodeBlock ------------------------------------------------------------

/// Encodes a [`CodeBlock`].
pub fn write_code_block(w: &mut Writer, block: &CodeBlock) {
    w.str(&block.signature().to_string());
    w.u8(block.locals());
    w.u32(block.len() as u32);
    for i in block.instrs() {
        write_instr(w, i);
    }
}

/// Decodes a [`CodeBlock`].
pub fn read_code_block(r: &mut Reader) -> Result<CodeBlock, DecodeError> {
    let sig_str = r.str()?;
    let signature: FunctionSignature = sig_str
        .parse()
        .map_err(|_| DecodeError::BadSignature(sig_str))?;
    let locals = r.u8()?;
    let n = r.read_len()?;
    let mut instrs = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        instrs.push(read_instr(r)?);
    }
    Ok(CodeBlock::new(signature, locals, instrs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_value(v: Value) {
        let mut w = Writer::new();
        write_value(&mut w, &v);
        let mut r = Reader::new(w.finish());
        assert_eq!(read_value(&mut r).expect("decodes"), v);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn value_round_trips() {
        round_trip_value(Value::Unit);
        round_trip_value(Value::Int(-42));
        round_trip_value(Value::Bool(true));
        round_trip_value(Value::str("héllo"));
        round_trip_value(Value::ObjRef(ObjectId::from_raw(99)));
        round_trip_value(Value::List(vec![
            Value::Int(1),
            Value::List(vec![Value::str("nested")]),
            Value::Unit,
        ]));
    }

    #[test]
    fn instr_round_trips() {
        let instrs = vec![
            Instr::Push(Value::Int(7)),
            Instr::LoadArg(2),
            Instr::Jump(13),
            Instr::CallDyn {
                function: "compare".into(),
                argc: 2,
            },
            Instr::CallRemote {
                function: "fetch".into(),
                argc: 1,
            },
            Instr::Work(12345),
            Instr::Ret,
        ];
        for i in instrs {
            let mut w = Writer::new();
            write_instr(&mut w, &i);
            let mut r = Reader::new(w.finish());
            assert_eq!(read_instr(&mut r).expect("decodes"), i);
        }
    }

    #[test]
    fn code_block_round_trips() {
        let block = CodeBlock::new(
            "f(int, str) -> list".parse().expect("signature"),
            3,
            vec![
                Instr::LoadArg(0),
                Instr::LoadArg(1),
                Instr::StrLen,
                Instr::Add,
                Instr::MakeList(1),
                Instr::Ret,
            ],
        );
        let mut w = Writer::new();
        write_code_block(&mut w, &block);
        let mut r = Reader::new(w.finish());
        assert_eq!(read_code_block(&mut r).expect("decodes"), block);
    }

    #[test]
    fn truncated_input_is_eof() {
        let mut w = Writer::new();
        write_value(&mut w, &Value::Int(1));
        let bytes = w.finish();
        let mut r = Reader::new(bytes.slice(0..bytes.len() - 1));
        assert_eq!(read_value(&mut r), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn bad_opcode_and_tag_are_rejected() {
        // Below the first tag, just past the last, and the top of the byte.
        for tag in [0x00, 0x28, 0xFF] {
            let mut r = Reader::new(Bytes::copy_from_slice(&[tag]));
            assert_eq!(read_instr(&mut r), Err(DecodeError::BadOpcode(tag)));
        }
        let mut r = Reader::new(Bytes::from_static(&[0xEE]));
        assert_eq!(read_value(&mut r), Err(DecodeError::BadTag(0xEE)));
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let mut r = Reader::new(w.finish());
        assert!(matches!(r.read_len(), Err(DecodeError::TooLarge(_))));
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut w = Writer::new();
        w.u32(2);
        w.u8(0xC3);
        w.u8(0x28); // invalid UTF-8 sequence
        let mut r = Reader::new(w.finish());
        assert_eq!(r.str(), Err(DecodeError::BadUtf8));
    }
}
