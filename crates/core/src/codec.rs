//! The byte codec behind every canonical encoding of the signed usage
//! log — wire frames, WAL records, journal events, registry state and
//! the preimage [`ResourceUsageLog::binding`] hashes: little-endian
//! integers, `u32` length prefixes, and a total reader that checks
//! every length and count before allocating and rejects trailing
//! bytes. A format picks only its field bound ([`Dec::new`] or
//! [`Dec::with_field_limit`]).

use acctee_instrument::Level;
use acctee_sgx::{Measurement, Quote};

use crate::log::{ResourceUsageLog, SignedLog};

/// Why a canonical encoding failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended inside a field, or a length or count promised
    /// more than the input holds.
    Truncated,
    /// A length prefix exceeds the format's field bound.
    FieldTooLong(u32),
    /// A string field is not UTF-8.
    BadUtf8,
    /// An enum or boolean tag outside its map.
    BadTag(u8),
    /// Bytes left over after a complete value.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated"),
            CodecError::FieldTooLong(n) => write!(f, "field length {n} too large"),
            CodecError::BadUtf8 => write!(f, "field is not UTF-8"),
            CodecError::BadTag(t) => write!(f, "bad tag {t}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The writer: appends fields to an owned buffer.
#[derive(Debug, Default)]
pub struct Enc(pub Vec<u8>);

// Fixed-width fields are little-endian; booleans are one byte, 0 or 1.
impl Enc {
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.0.push(u8::from(v));
    }

    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u128(&mut self, v: u128) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Bytes as they are, no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// `u32` length prefix + bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }

    /// A `u32` count, then each item as `put` writes it.
    pub fn list<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Enc, &T)) {
        self.u32(items.len() as u32);
        for item in items {
            put(self, item);
        }
    }

    /// A usage log. This is also the body of the binding preimage, so
    /// the stored, transmitted and signed field orders are one order.
    pub fn log(&mut self, log: &ResourceUsageLog) {
        self.u64(log.weighted_instructions);
        self.u64(log.peak_memory_bytes);
        self.u128(log.memory_integral);
        self.u64(log.io_bytes_in);
        self.u64(log.io_bytes_out);
        self.raw(&log.module_hash);
        self.u64(log.session_id);
    }

    pub fn quote(&mut self, quote: &Quote) {
        self.raw(&quote.mrenclave.0);
        self.raw(&quote.report_data);
        self.bytes(quote.platform.as_bytes());
        self.raw(&quote.signature);
    }

    /// A signed log: the log, then its quote.
    pub fn signed_log(&mut self, signed: &SignedLog) {
        self.log(&signed.log);
        self.quote(&signed.quote);
    }
}

/// The reader: a bounds-checked, total cursor over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    max_field: u32,
}

// Each read mirrors the [`Enc`] write of the same name.
impl<'a> Dec<'a> {
    /// A reader whose length prefixes are bounded by the remaining
    /// input only.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec::with_field_limit(buf, u32::MAX)
    }

    /// A reader that also refuses any length prefix above `max_field`,
    /// before looking at the input it claims.
    pub fn with_field_limit(buf: &'a [u8], max_field: u32) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            max_field,
        }
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Exactly `n` raw bytes, no length prefix.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// A fixed-size array (digests, nonces), raw.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag(t)),
        }
    }

    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    /// A length-prefixed byte string, borrowed from the input.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()?;
        if len > self.max_field {
            return Err(CodecError::FieldTooLong(len));
        }
        self.take(len as usize)
    }

    pub fn string(&mut self) -> Result<String, CodecError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// A list written by [`Enc::list`], each item read by `get`. Items
    /// occupy at least `min_size` bytes, so a count the input cannot
    /// hold is [`CodecError::Truncated`] before anything is allocated:
    /// hostile counts never exhaust memory.
    pub fn list<T>(
        &mut self,
        min_size: usize,
        mut get: impl FnMut(&mut Dec<'a>) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_size.max(1) {
            return Err(CodecError::Truncated);
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(get(self)?);
        }
        Ok(items)
    }

    /// Rejects trailing bytes: a canonical value decodes completely.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }

    /// A [`Level::tag`]; unknown tags are [`CodecError::BadTag`].
    pub fn level(&mut self) -> Result<Level, CodecError> {
        let tag = self.u8()?;
        Level::from_tag(tag).ok_or(CodecError::BadTag(tag))
    }

    pub fn log(&mut self) -> Result<ResourceUsageLog, CodecError> {
        Ok(ResourceUsageLog {
            weighted_instructions: self.u64()?,
            peak_memory_bytes: self.u64()?,
            memory_integral: self.u128()?,
            io_bytes_in: self.u64()?,
            io_bytes_out: self.u64()?,
            module_hash: self.array()?,
            session_id: self.u64()?,
        })
    }

    pub fn quote(&mut self) -> Result<Quote, CodecError> {
        Ok(Quote {
            mrenclave: Measurement(self.array()?),
            report_data: self.array()?,
            platform: self.string()?,
            signature: self.array()?,
        })
    }

    pub fn signed_log(&mut self) -> Result<SignedLog, CodecError> {
        Ok(SignedLog {
            log: self.log()?,
            quote: self.quote()?,
        })
    }
}

/// The totality sweep every canonical format's tests run: each prefix
/// of `bytes`, and `bytes` with any one byte flipped, must decode to an
/// error or to a value that re-encodes to exactly that input.
///
/// # Panics
///
/// When a decoder accepts a non-canonical input.
pub fn check_total<T, E>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    let prefixes = (0..bytes.len()).map(|n| bytes[..n].to_vec());
    let flips = (0..bytes.len()).flat_map(|i| {
        [0x01u8, 0xff].map(|mask| {
            let mut b = bytes.to_vec();
            b[i] ^= mask;
            b
        })
    });
    for input in prefixes.chain(flips) {
        if let Ok(value) = decode(&input) {
            assert_eq!(encode(&value), input, "decoded a non-canonical input");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acctee_sgx::crypto::sha256;

    fn signed() -> SignedLog {
        SignedLog {
            log: ResourceUsageLog {
                weighted_instructions: 5,
                peak_memory_bytes: 1 << 16,
                memory_integral: (3 << 70) + 1,
                io_bytes_in: 7,
                io_bytes_out: 8,
                module_hash: sha256(b"m"),
                session_id: 42,
            },
            quote: Quote {
                mrenclave: Measurement(sha256(b"ae")),
                report_data: [4u8; 64],
                platform: "ae-host".into(),
                signature: sha256(b"sig"),
            },
        }
    }

    fn encode_signed(s: &SignedLog) -> Vec<u8> {
        let mut e = Enc::default();
        e.signed_log(s);
        e.0
    }

    fn decode_signed(buf: &[u8]) -> Result<SignedLog, CodecError> {
        let mut d = Dec::new(buf);
        let s = d.signed_log()?;
        d.finish()?;
        Ok(s)
    }

    #[test]
    fn signed_log_round_trips() {
        let s = signed();
        assert_eq!(decode_signed(&encode_signed(&s)), Ok(s));
    }

    #[test]
    fn signed_log_decoding_is_total() {
        check_total(&encode_signed(&signed()), decode_signed, encode_signed);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_signed(&signed());
        for n in 0..bytes.len() {
            assert_eq!(decode_signed(&bytes[..n]), Err(CodecError::Truncated));
        }
    }

    #[test]
    fn field_limit_is_checked_before_the_input() {
        let mut e = Enc::default();
        e.u32(100);
        e.raw(&[0; 100]);
        assert_eq!(Dec::new(&e.0).bytes().map(|b| b.len()), Ok(100));
        assert_eq!(
            Dec::with_field_limit(&e.0, 99).bytes(),
            Err(CodecError::FieldTooLong(100))
        );
        let mut hostile = Dec::new(&[0xff, 0xff, 0xff, 0xff]);
        assert_eq!(hostile.bytes(), Err(CodecError::Truncated));
    }

    #[test]
    fn hostile_counts_fail_before_allocating() {
        let mut e = Enc::default();
        e.list(&[1u64, 2], |e, v| e.u64(*v));
        assert_eq!(Dec::new(&e.0).list(8, Dec::u64), Ok(vec![1, 2]));
        // A 9-byte floor means the 16 bytes cannot hold two items.
        assert_eq!(Dec::new(&e.0).list(9, Dec::u64), Err(CodecError::Truncated));
        let mut hostile = Enc::default();
        hostile.u32(u32::MAX);
        hostile.raw(&[0; 16]);
        assert_eq!(
            Dec::new(&hostile.0).list(4, Dec::u32),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn level_tags_round_trip_and_unknown_tags_fail() {
        for level in [Level::Naive, Level::FlowBased, Level::LoopBased] {
            assert_eq!(Dec::new(&[level.tag()]).level(), Ok(level));
        }
        assert_eq!(Dec::new(&[3]).level(), Err(CodecError::BadTag(3)));
        assert_eq!(Dec::new(&[2]).bool(), Err(CodecError::BadTag(2)));
    }
}
