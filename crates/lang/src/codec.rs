//! The byte codec every serialised form in the workspace is written and
//! read through: the xFDD program payloads (`snap_xfdd::wire`) and the
//! controller↔agent frames (`snap_distrib::frame`).
//!
//! Fixed-width little-endian integers, `u32` length-prefixed strings and
//! sequences, one tag byte per enum variant. [`Writer`] appends to a byte
//! buffer; [`Reader`] is written for hostile input: every length is checked
//! against the bytes actually remaining *before* anything is allocated for
//! it, nesting is capped at [`MAX_DEPTH`], a `bool` is `0` or `1`, and every
//! failure is a [`CodecError`] — malformed bytes fail, they never panic.
//! The accessors are `#[inline]` because every caller is in another crate:
//! without it each integer read or written is a call (+30 % on encoding a
//! program payload).

use crate::value::{Ipv4, Prefix, Value};
use std::fmt;

/// Nesting ceiling for anything recursive in a payload ([`Value::Tuple`],
/// and tuple expressions through [`Reader::nested`]): real indices are a
/// handful of fields deep, and the bound keeps a crafted payload from
/// recursing a decoder off the stack.
pub const MAX_DEPTH: u32 = 32;

/// Why a byte buffer is not the structure it was decoded as.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure did.
    Truncated,
    /// An unknown enum tag, with what it was meant to select.
    BadTag(&'static str, u8),
    /// A length field larger than the bytes remaining could hold.
    BadLength,
    /// A string that is not UTF-8.
    BadUtf8,
    /// Nesting beyond [`MAX_DEPTH`].
    TooDeep,
    /// A field whose value is out of its domain (a `bool` that is neither
    /// `0` nor `1`, a prefix length above 32).
    BadValue,
    /// Bytes left over after the structure ended.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer ends inside an encoded structure"),
            CodecError::BadTag(what, t) => write!(f, "unknown {what} tag {t}"),
            CodecError::BadLength => write!(f, "length exceeds the bytes remaining"),
            CodecError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            CodecError::TooDeep => write!(f, "nesting deeper than {MAX_DEPTH} levels"),
            CodecError::BadValue => write!(f, "field out of its domain"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the structure"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The encoding side: appends to an owned buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// Every length written, OR-ed together: past `u32::MAX` exactly when
    /// some length was, which [`Self::into_bytes`] refuses to hand out.
    lengths: usize,
}

impl Writer {
    /// An empty buffer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The bytes written.
    ///
    /// # Panics
    ///
    /// If a length written does not fit its `u32` prefix.
    pub fn into_bytes(self) -> Vec<u8> {
        assert!(
            u32::try_from(self.lengths).is_ok(),
            "a sequence length does not fit the u32 prefix"
        );
        self.buf
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `bool` as one byte, `0` or `1`.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `i64`.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Bytes as they are, no length prefix.
    #[inline]
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// A sequence length. One that does not fit the `u32` prefix is
    /// caught by [`Self::into_bytes`], not here, where a branch per length
    /// slows the program encoder measurably (EXPERIMENTS.md "Wire encoder").
    #[inline]
    pub fn seq_len(&mut self, n: usize) {
        self.lengths |= n;
        self.u32(n as u32);
    }

    /// Length-prefixed bytes.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.seq_len(v.len());
        self.raw(v);
    }

    /// A length-prefixed string.
    #[inline]
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// A value: one tag byte (0–6 in declaration order), then its fields.
    #[inline]
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.u8(0);
                self.i64(*i);
            }
            Value::Bool(b) => {
                self.u8(1);
                self.bool(*b);
            }
            Value::Ip(ip) => {
                self.u8(2);
                self.u32(ip.0);
            }
            Value::Prefix(p) => {
                self.u8(3);
                self.u32(p.addr.0);
                self.u8(p.len);
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s);
            }
            Value::Symbol(s) => {
                self.u8(5);
                self.str(s);
            }
            Value::Tuple(vs) => {
                self.u8(6);
                self.seq_len(vs.len());
                for v in vs.iter() {
                    self.value(v);
                }
            }
        }
    }
}

/// The decoding side: a bounds-checked cursor over borrowed bytes (it holds
/// what is left of them).
///
/// The methods that call back into a caller's decoder ([`Self::seq`],
/// [`Self::nested`]) are generic over the caller's error type, which embeds
/// [`CodecError`] by `From`.
pub struct Reader<'a> {
    buf: &'a [u8],
    depth: u32,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, depth: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes, as they are.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A `bool`: exactly `0` or `1`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::BadValue),
        }
    }

    /// Little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        self.array().map(i64::from_le_bytes)
    }

    /// A length field for elements at least `min_elem_bytes` wide each:
    /// rejected outright when the remaining bytes cannot possibly hold that
    /// many, so lengths never drive allocation beyond the input itself.
    #[inline]
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::BadLength);
        }
        Ok(n)
    }

    /// A length-prefixed sequence of elements at least `min_elem_bytes`
    /// wide, each read by `elem`.
    pub fn seq<T, E: From<CodecError>>(
        &mut self,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.seq_len(min_elem_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// Run `inner` one nesting level down; every recursive decoder descends
    /// through here, so [`MAX_DEPTH`] bounds the recursion of all of them
    /// together.
    pub fn nested<T, E: From<CodecError>>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<T, E> {
        if self.depth == MAX_DEPTH {
            return Err(CodecError::TooDeep.into());
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    /// Length-prefixed bytes, borrowed from the input.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.seq_len(1)?;
        self.take(n)
    }

    /// A length-prefixed string, borrowed from the input: each caller
    /// copies it once, straight into the form it stores (shared text for
    /// values and custom fields, nothing at all for a built-in field name).
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::BadUtf8)
    }

    /// A value, as [`Writer::value`] wrote it.
    #[inline]
    pub fn value(&mut self) -> Result<Value, CodecError> {
        match self.u8()? {
            0 => Ok(Value::Int(self.i64()?)),
            1 => Ok(Value::Bool(self.bool()?)),
            2 => Ok(Value::Ip(Ipv4(self.u32()?))),
            3 => {
                let addr = Ipv4(self.u32()?);
                let len = self.u8()?;
                if len > 32 {
                    return Err(CodecError::BadValue);
                }
                Ok(Value::Prefix(Prefix::new(addr, len)))
            }
            4 => Ok(Value::Str(self.str()?.into())),
            5 => Ok(Value::Symbol(self.str()?.into())),
            6 => self.nested(|r| r.seq(1, Self::value)).map(Value::tuple),
            t => Err(CodecError::BadTag("value", t)),
        }
    }

    /// The end of the structure must be the end of the input.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "does not fit the u32 prefix")]
    fn a_length_past_the_u32_prefix_is_never_handed_out() {
        let mut w = Writer::new();
        w.seq_len(u32::MAX as usize);
        w.seq_len(u32::MAX as usize + 1);
        w.into_bytes();
    }
}
