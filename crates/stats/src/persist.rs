//! One field list per checkpointed structure.
//!
//! A simulator checkpoint is every state-owning structure of the machine
//! written field by field through one [`BinWriter`] and read back, in the
//! same order, through one [`BinReader`]. [`Persist`] is that codec: a
//! structure implements it once, through [`persist!`](crate::persist!),
//! by naming its fields, and both directions come from that one list —
//! there is no save function and restore function to keep in step. The
//! list also names the fields a checkpoint does **not** carry (`skip`:
//! configuration, derived geometry, scratch buffers), so a new field does
//! not compile until it is put on one side or the other.
//!
//! Restore works **in place**: the reader overwrites a value freshly built
//! from the same configuration, so everything the configuration determines
//! comes from the build and only mutable state comes from the stream. What
//! a field's type says is what its bytes are:
//!
//! | type | bytes | restore |
//! |------|-------|---------|
//! | `u8`, `u16`, `u32`, `u64`, `bool` | little-endian ([`binio`](crate::binio)) | decoded |
//! | `usize` | a `u64` count or index | decoded |
//! | `f64` | its `u64` bit pattern | decoded, bit-exact |
//! | `String` | `u64` length, then UTF-8 bytes | at most [`MAX_STRING`] bytes |
//! | `[T; N]`, pairs | the elements, no length | element by element |
//! | `Box<[T]>` | `u64` length, then the elements | the length must equal the built one: fixed geometry (cache lines, table entries) |
//! | `Vec<T>`, `VecDeque<T>` | `u64` length, then the elements | cleared and refilled: queues and lists |
//! | `Option<T>` | a `bool`, then the value if present | decoded |
//!
//! Field order is byte order: reordering, inserting or removing a listed
//! field changes the `SMT1CKPT` payload (bump its `FORMAT_VERSION`;
//! `tests/format_pins.rs` notices). A `check` function runs after the
//! fields are read and rejects what the types cannot: out-of-range values,
//! dangling indices. Malformed input is an
//! [`InvalidData`](io::ErrorKind::InvalidData) or
//! [`UnexpectedEof`](io::ErrorKind::UnexpectedEof) error, never a panic:
//! lengths read from the stream are never trusted for an allocation.
//!
//! ```
//! use std::io::{Read, Write};
//! use smt_stats::binio::{BinReader, BinWriter};
//! use smt_stats::Persist;
//!
//! struct Cache {
//!     lines: Box<[u64]>,
//!     misses: Vec<u64>,
//!     ways: usize,
//! }
//! smt_stats::persist! { Cache { lines, misses } skip { ways } }
//!
//! let warm = Cache { lines: vec![7; 4].into(), misses: vec![1, 2], ways: 2 };
//! let mut bytes = Vec::new();
//! warm.save(&mut BinWriter::new(&mut bytes as &mut dyn Write)).unwrap();
//!
//! let mut fresh = Cache { lines: vec![0; 4].into(), misses: Vec::new(), ways: 2 };
//! fresh.restore(&mut BinReader::new(&mut &bytes[..] as &mut dyn Read)).unwrap();
//! assert_eq!((&fresh.lines[..], &fresh.misses[..]), (&warm.lines[..], &warm.misses[..]));
//!
//! // A differently-built table is refused, not resized.
//! let mut small = Cache { lines: vec![0; 2].into(), misses: Vec::new(), ways: 2 };
//! assert!(small.restore(&mut BinReader::new(&mut &bytes[..] as &mut dyn Read)).is_err());
//! ```

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use crate::binio::{invalid, BinReader, BinWriter};

/// State that a checkpoint carries; see the [module docs](mod@crate::persist).
///
/// The streams are `dyn` so the trait stays object-safe (`smt-workload`'s
/// instruction sources are `Box<dyn WorkloadSource>`, and a checkpoint
/// writes all of them through one running checksum).
pub trait Persist {
    /// Writes this value's state.
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> io::Result<()>;

    /// Overwrites this value with what [`save`](Persist::save) wrote. On
    /// error the value is partly written and must be discarded.
    fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> io::Result<()>;

    /// Writes a run of values. The default writes them one by one; `u8`
    /// writes the whole run as one byte slice.
    fn save_slice(items: &[Self], w: &mut BinWriter<&mut dyn Write>) -> io::Result<()>
    where
        Self: Sized,
    {
        items.iter().try_for_each(|x| x.save(w))
    }

    /// Restores a run of values in place (the dual of
    /// [`save_slice`](Persist::save_slice)).
    fn restore_slice(items: &mut [Self], r: &mut BinReader<&mut dyn Read>) -> io::Result<()>
    where
        Self: Sized,
    {
        items.iter_mut().try_for_each(|x| x.restore(r))
    }

    /// Decodes a new value: [`Default`], then [`restore`](Persist::restore).
    fn decode(r: &mut BinReader<&mut dyn Read>) -> io::Result<Self>
    where
        Self: Sized + Default,
    {
        let mut v = Self::default();
        v.restore(r)?;
        Ok(v)
    }
}

/// Implements [`Persist`] for a struct from one list of its fields; see
/// the [module docs](mod@crate::persist).
///
/// ```text
/// persist!(Name { field, other via codec, .. } skip { derived, .. } check Name::validate);
/// ```
///
/// * The listed fields are written and read in the order given.
/// * `skip` names every field the checkpoint does not carry. Listed and
///   skipped fields together must be all of the struct's fields, or the
///   impl does not compile.
/// * `field via codec` reads and writes the field through the functions
///   `codec::save(&T, w)` and `codec::restore(&mut T, r)`, for a field
///   type that cannot implement [`Persist`] itself (a foreign type).
/// * `check` names a `fn(&Self) -> std::io::Result<()>` run after every
///   field is read.
///
/// Tuple structs list their fields by position (`persist!(Id { 0 })`).
#[macro_export]
macro_rules! persist {
    (@save $w:ident, $v:expr) => {
        $crate::Persist::save($v, $w)
    };
    (@save $w:ident, $v:expr, $codec:ident) => {
        $codec::save($v, $w)
    };
    (@restore $r:ident, $v:expr) => {
        $crate::Persist::restore($v, $r)
    };
    (@restore $r:ident, $v:expr, $codec:ident) => {
        $codec::restore($v, $r)
    };
    ($name:ident { $($field:tt $(via $codec:ident)?),+ $(,)? }
     $(skip { $($skip:tt),+ $(,)? })?
     $(check $check:path)?) => {
        impl $crate::Persist for $name {
            fn save(
                &self,
                w: &mut $crate::binio::BinWriter<&mut dyn ::std::io::Write>,
            ) -> ::std::io::Result<()> {
                // Every field is either listed or skipped: no `..`.
                let $name { $($field: _,)+ $($($skip: _,)+)? } = self;
                $($crate::persist!(@save w, &self.$field $(, $codec)?)?;)+
                Ok(())
            }
            fn restore(
                &mut self,
                r: &mut $crate::binio::BinReader<&mut dyn ::std::io::Read>,
            ) -> ::std::io::Result<()> {
                $($crate::persist!(@restore r, &mut self.$field $(, $codec)?)?;)+
                $($check(self)?;)?
                Ok(())
            }
        }
    };
}

macro_rules! leaf {
    ($($ty:ty => $write:ident, $read:ident;)+) => {$(
        impl Persist for $ty {
            fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> io::Result<()> {
                w.$write(*self)
            }
            fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> io::Result<()> {
                *self = r.$read()?;
                Ok(())
            }
        }
    )+};
}

leaf! {
    u16 => u16, u16;
    u32 => u32, u32;
    u64 => u64, u64;
    bool => bool, bool;
    usize => len, len;
}

impl Persist for f64 {
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> io::Result<()> {
        w.u64(self.to_bits())
    }
    fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> io::Result<()> {
        *self = f64::from_bits(r.u64()?);
        Ok(())
    }
}

/// Longest string a stream may carry: far above any real policy, benchmark
/// or ablation name, far below anything allocation-hostile.
pub const MAX_STRING: usize = 4096;

impl Persist for String {
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> io::Result<()> {
        w.str(self)
    }
    fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> io::Result<()> {
        *self = r.string(MAX_STRING, "string")?;
        Ok(())
    }
}

impl Persist for u8 {
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> io::Result<()> {
        w.u8(*self)
    }
    fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> io::Result<()> {
        *self = r.u8()?;
        Ok(())
    }
    fn save_slice(items: &[u8], w: &mut BinWriter<&mut dyn Write>) -> io::Result<()> {
        w.bytes(items)
    }
    fn restore_slice(items: &mut [u8], r: &mut BinReader<&mut dyn Read>) -> io::Result<()> {
        r.bytes(items)
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> io::Result<()> {
        T::save_slice(self, w)
    }
    fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> io::Result<()> {
        T::restore_slice(self, r)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> io::Result<()> {
        self.0.save(w)?;
        self.1.save(w)
    }
    fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> io::Result<()> {
        self.0.restore(r)?;
        self.1.restore(r)
    }
}

impl<T: Persist + Default> Persist for Option<T> {
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> io::Result<()> {
        w.bool(self.is_some())?;
        self.as_ref().map_or(Ok(()), |v| v.save(w))
    }
    fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> io::Result<()> {
        *self = if r.bool()? { Some(T::decode(r)?) } else { None };
        Ok(())
    }
}

/// A fixed-geometry table: the stream's length must be the built one.
impl<T: Persist> Persist for Box<[T]> {
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> io::Result<()> {
        w.len(self.len())?;
        T::save_slice(self, w)
    }
    fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> io::Result<()> {
        let n = r.len()?;
        if n != self.len() {
            return Err(invalid(format!(
                "checkpoint has a table of {n} entries, configuration builds {}",
                self.len()
            )));
        }
        T::restore_slice(self, r)
    }
}

/// Reads `n` untrusted elements one at a time, so a corrupt length ends in
/// an EOF or checksum error, never in a huge allocation.
fn refill<T: Persist + Default>(
    r: &mut BinReader<&mut dyn Read>,
    mut push: impl FnMut(T),
) -> io::Result<()> {
    for _ in 0..r.len()? {
        push(T::decode(r)?);
    }
    Ok(())
}

impl<T: Persist + Default> Persist for Vec<T> {
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> io::Result<()> {
        w.len(self.len())?;
        T::save_slice(self, w)
    }
    fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> io::Result<()> {
        self.clear();
        refill(r, |v| self.push(v))
    }
}

impl<T: Persist + Default> Persist for VecDeque<T> {
    fn save(&self, w: &mut BinWriter<&mut dyn Write>) -> io::Result<()> {
        w.len(self.len())?;
        self.iter().try_for_each(|x| x.save(w))
    }
    fn restore(&mut self, r: &mut BinReader<&mut dyn Read>) -> io::Result<()> {
        self.clear();
        refill(r, |v| self.push_back(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Inner(u16, bool);
    persist! { Inner { 0, 1 } }

    #[derive(Debug, PartialEq)]
    struct Outer {
        table: Box<[u32]>,
        queue: VecDeque<(u8, Inner)>,
        slot: Option<u64>,
        pair: [usize; 2],
        list: Vec<u64>,
        scratch: Vec<u64>,
    }
    persist! { Outer { table, queue, slot, pair, list } skip { scratch } check Outer::check }

    impl Outer {
        fn check(&self) -> io::Result<()> {
            match self.slot {
                Some(s) if s > 100 => Err(invalid("slot out of range")),
                _ => Ok(()),
            }
        }
    }

    fn fresh() -> Outer {
        Outer {
            table: vec![0; 3].into(),
            queue: VecDeque::new(),
            slot: None,
            pair: [0; 2],
            list: Vec::new(),
            scratch: vec![9],
        }
    }

    fn bytes_of(v: &impl Persist) -> Vec<u8> {
        let mut bytes = Vec::new();
        v.save(&mut BinWriter::new(&mut bytes as &mut dyn Write))
            .unwrap();
        bytes
    }

    fn restore_from(v: &mut impl Persist, mut bytes: &[u8]) -> io::Result<()> {
        v.restore(&mut BinReader::new(&mut bytes as &mut dyn Read))
    }

    #[test]
    fn the_field_list_is_the_byte_layout() {
        let warm = Outer {
            table: vec![1, 2, 3].into(),
            queue: VecDeque::from([(4, Inner(5, true))]),
            slot: Some(6),
            pair: [7, 8],
            list: vec![9],
            scratch: Vec::new(),
        };
        let bytes = bytes_of(&warm);
        let mut expected = Vec::new();
        expected.extend(3u64.to_le_bytes());
        for x in [1u32, 2, 3] {
            expected.extend(x.to_le_bytes());
        }
        expected.extend(1u64.to_le_bytes());
        expected.push(4);
        expected.extend(5u16.to_le_bytes());
        expected.push(1);
        expected.push(1);
        expected.extend(6u64.to_le_bytes());
        for x in [7u64, 8, 1, 9] {
            expected.extend(x.to_le_bytes());
        }
        assert_eq!(bytes, expected);

        let mut back = fresh();
        restore_from(&mut back, &bytes).unwrap();
        assert_eq!(
            back,
            Outer {
                scratch: vec![9],
                ..warm
            },
            "skipped fields keep the built value"
        );
    }

    #[test]
    fn geometry_checks_and_truncation_are_typed_errors() {
        let warm = Outer {
            slot: Some(6),
            ..fresh()
        };
        let bytes = bytes_of(&warm);
        let mut wider = Outer {
            table: vec![0; 4].into(),
            ..fresh()
        };
        let err = restore_from(&mut wider, &bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        for cut in 0..bytes.len() {
            let err = restore_from(&mut fresh(), &bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        let bad = Outer {
            slot: Some(101),
            ..fresh()
        };
        let err = restore_from(&mut fresh(), &bytes_of(&bad)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "check runs");
    }
}
