//! Hand-rolled little-endian binary serialization with an integrity
//! checksum: the byte layer under all three on-disk formats — checkpoints
//! (`SMT1CKPT`, `smt-core::checkpoint`), sweep-journal entries (`SMT1JRNL`,
//! `smt-experiments::journal`, carrying `SimReport::write_bin`) and
//! recorded traces (`SMT1TRCE`, `smt-workload::trace`) — and under the
//! config, image and journal-key fingerprints.
//!
//! The workspace is dependency-free by design, so instead of `serde` the
//! state-owning crates write their state field by field through a
//! [`BinWriter`] and read it back through a [`BinReader`] (a checkpointed
//! structure gets both directions from one field list,
//! [`crate::persist!`]). Both sides
//! accumulate an FNV-1a checksum over every payload byte; [`BinWriter::finish`]
//! appends the checksum as an 8-byte trailer and [`BinReader::finish`]
//! verifies it, so arbitrary bit flips anywhere in the payload surface as a
//! clean [`std::io::ErrorKind::InvalidData`] error instead of silently
//! corrupt state. Truncation surfaces as
//! [`std::io::ErrorKind::UnexpectedEof`] from whichever read hits the end.
//!
//! All integers are little-endian. Lengths are `u64`. Booleans are one byte
//! (`0` or `1`; anything else is rejected). There is intentionally no
//! self-describing structure — both sides must agree on the field order,
//! which each format's version number in its file header pins.
//!
//! # Examples
//!
//! ```
//! use smt_stats::binio::{BinReader, BinWriter};
//!
//! let mut buf = Vec::new();
//! let mut w = BinWriter::new(&mut buf);
//! w.u32(7).unwrap();
//! w.bytes(b"state").unwrap();
//! w.finish().unwrap();
//!
//! let mut r = BinReader::new(&buf[..]);
//! assert_eq!(r.u32().unwrap(), 7);
//! let mut s = [0u8; 5];
//! r.bytes(&mut s).unwrap();
//! r.finish().unwrap(); // checksum verified
//! ```

use std::io::{self, Read, Write};

/// FNV-1a 64-bit offset basis: the value a running [`fnv1a`] hash starts at.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running FNV-1a hash `h` — the workspace's one
/// FNV-1a (checksums here, image and trace fingerprints in `smt-workload`).
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A checksumming little-endian binary writer.
#[derive(Debug)]
pub struct BinWriter<W: Write> {
    inner: W,
    checksum: u64,
}

impl<W: Write> BinWriter<W> {
    /// Wraps a writer; the checksum starts at the FNV-1a offset basis.
    pub fn new(inner: W) -> BinWriter<W> {
        BinWriter {
            inner,
            checksum: FNV_OFFSET,
        }
    }

    /// Writes raw bytes (checksummed).
    pub fn bytes(&mut self, b: &[u8]) -> io::Result<()> {
        self.checksum = fnv1a(self.checksum, b);
        self.inner.write_all(b)
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) -> io::Result<()> {
        self.bytes(&[v])
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    /// Writes a boolean as one byte (`0` or `1`).
    pub fn bool(&mut self, v: bool) -> io::Result<()> {
        self.u8(u8::from(v))
    }

    /// Writes a collection length as a `u64`.
    pub fn len(&mut self, n: usize) -> io::Result<()> {
        self.u64(n as u64)
    }

    /// Writes a UTF-8 string as a `u64` length followed by its bytes.
    pub fn str(&mut self, s: &str) -> io::Result<()> {
        self.len(s.len())?;
        self.bytes(s.as_bytes())
    }

    /// The checksum accumulated so far (exposed so callers can derive
    /// fingerprints from a serialized byte stream without a second hash).
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Runs `f` on a type-erased view of this writer — the same stream and
    /// the same running checksum — for the `dyn`-stream
    /// [`Persist`](crate::Persist) codec.
    pub fn erased<T>(&mut self, f: impl FnOnce(&mut BinWriter<&mut dyn Write>) -> T) -> T {
        let mut view = BinWriter {
            inner: &mut self.inner as &mut dyn Write,
            checksum: self.checksum,
        };
        let out = f(&mut view);
        self.checksum = view.checksum;
        out
    }

    /// Writes the checksum trailer and flushes. Consumes the writer: no
    /// payload bytes may follow the trailer.
    pub fn finish(mut self) -> io::Result<()> {
        let sum = self.checksum;
        self.inner.write_all(&sum.to_le_bytes())?;
        self.inner.flush()
    }
}

/// A checksum-verifying little-endian binary reader.
#[derive(Debug)]
pub struct BinReader<R: Read> {
    inner: R,
    checksum: u64,
}

// `len` reads a serialized length field (the dual of `BinWriter::len`);
// there is no container to be empty.
#[allow(clippy::len_without_is_empty)]
impl<R: Read> BinReader<R> {
    /// Wraps a reader; the checksum starts at the FNV-1a offset basis.
    pub fn new(inner: R) -> BinReader<R> {
        BinReader {
            inner,
            checksum: FNV_OFFSET,
        }
    }

    /// Reads exactly `out.len()` raw bytes (checksummed).
    pub fn bytes(&mut self, out: &mut [u8]) -> io::Result<()> {
        self.inner.read_exact(out)?;
        self.checksum = fnv1a(self.checksum, out);
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        let mut b = [0u8; 1];
        self.bytes(&mut b)?;
        Ok(b[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> io::Result<u16> {
        let mut b = [0u8; 2];
        self.bytes(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.bytes(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.bytes(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a boolean; any byte other than `0` or `1` is invalid data.
    pub fn bool(&mut self) -> io::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(invalid(format!("invalid boolean byte {other:#04x}"))),
        }
    }

    /// Reads a collection length written by [`BinWriter::len`]. The value
    /// is bounds-checked against `usize` but **not** trusted beyond that:
    /// callers must read element by element (never preallocate from it), so
    /// a corrupt length degrades into an EOF or checksum error rather than
    /// a huge allocation.
    pub fn len(&mut self) -> io::Result<usize> {
        let n = self.u64()?;
        usize::try_from(n).map_err(|_| invalid(format!("length {n} exceeds address space")))
    }

    /// Reads a string written by [`BinWriter::str`]. A length above `max`
    /// is rejected before anything is allocated; `what` names the field in
    /// the error messages.
    pub fn string(&mut self, max: usize, what: &str) -> io::Result<String> {
        let n = self.len()?;
        if n > max {
            return Err(invalid(format!("{what} length {n} exceeds cap")));
        }
        let mut buf = vec![0u8; n];
        self.bytes(&mut buf)?;
        String::from_utf8(buf).map_err(|_| invalid(format!("{what} is not UTF-8")))
    }

    /// Runs `f` on a type-erased view of this reader — the same stream and
    /// the same running checksum — for the `dyn`-stream
    /// [`Persist`](crate::Persist) codec.
    pub fn erased<T>(&mut self, f: impl FnOnce(&mut BinReader<&mut dyn Read>) -> T) -> T {
        let mut view = BinReader {
            inner: &mut self.inner as &mut dyn Read,
            checksum: self.checksum,
        };
        let out = f(&mut view);
        self.checksum = view.checksum;
        out
    }

    /// Reads the checksum trailer and verifies it against the accumulated
    /// payload checksum. Consumes the reader.
    pub fn finish(mut self) -> io::Result<()> {
        let expected = self.checksum;
        let mut b = [0u8; 8];
        self.inner.read_exact(&mut b)?;
        let stored = u64::from_le_bytes(b);
        if stored != expected {
            return Err(invalid(format!(
                "checksum mismatch: stored {stored:#018x}, computed {expected:#018x}"
            )));
        }
        Ok(())
    }
}

/// An [`io::ErrorKind::InvalidData`] error with the given message — the
/// shape every malformed-payload failure in this module takes.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf);
        w.u8(0xab).unwrap();
        w.u16(0xbeef).unwrap();
        w.u32(0xdead_beef).unwrap();
        w.u64(0x0123_4567_89ab_cdef).unwrap();
        w.bool(true).unwrap();
        w.bool(false).unwrap();
        w.len(3).unwrap();
        w.bytes(b"xyz").unwrap();
        w.str("icount").unwrap();
        w.finish().unwrap();

        let mut r = BinReader::new(&buf[..]);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.len().unwrap(), 3);
        let mut s = [0u8; 3];
        r.bytes(&mut s).unwrap();
        assert_eq!(&s, b"xyz");
        assert_eq!(r.string(6, "name").unwrap(), "icount");
        r.finish().unwrap();
    }

    #[test]
    fn every_bit_flip_fails_the_checksum() {
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf);
        w.u64(42).unwrap();
        w.u32(7).unwrap();
        w.finish().unwrap();

        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                let mut r = BinReader::new(&bad[..]);
                let result = r.u64().and_then(|_| r.u32()).and_then(|_| r.finish());
                assert!(
                    result.is_err(),
                    "bit {bit} of byte {byte} flipped undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_is_unexpected_eof() {
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf);
        w.u64(1).unwrap();
        w.finish().unwrap();
        for cut in 0..buf.len() {
            let short = &buf[..cut];
            let mut r = BinReader::new(short);
            let err = r.u64().and_then(|_| r.finish()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn invalid_boolean_byte_is_rejected() {
        let mut r = BinReader::new(&[2u8][..]);
        let err = r.bool().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_and_non_utf8_strings_are_invalid_data() {
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf);
        w.str("abcd").unwrap();
        w.len(2).unwrap();
        w.bytes(&[0xff, 0xfe]).unwrap();
        w.finish().unwrap();

        let err = BinReader::new(&buf[..]).string(3, "name").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut r = BinReader::new(&buf[..]);
        assert_eq!(r.string(4, "name").unwrap(), "abcd");
        let err = r.string(4, "name").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn erased_views_share_the_stream_and_checksum() {
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf);
        w.u32(1).unwrap();
        w.erased(|w| w.u64(2)).unwrap();
        w.u8(3).unwrap();
        w.finish().unwrap();

        let mut r = BinReader::new(&buf[..]);
        assert_eq!(r.erased(|r| r.u32()).unwrap(), 1);
        assert_eq!(r.u64().unwrap(), 2);
        assert_eq!(r.erased(|r| r.u8()).unwrap(), 3);
        r.finish().unwrap();
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let sum = |fields: &[u64]| {
            let mut buf = Vec::new();
            let mut w = BinWriter::new(&mut buf);
            for &f in fields {
                w.u64(f).unwrap();
            }
            let c = w.checksum();
            w.finish().unwrap();
            c
        };
        assert_ne!(sum(&[1, 2]), sum(&[2, 1]));
    }
}
