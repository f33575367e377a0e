//! One field table per counter struct.
//!
//! A struct declared through [`counters!`](crate::counters!) lists its
//! fields **once**; the macro generates from that list everything that has
//! to agree with it — the [`Persist`] codec the sweep journal and the
//! checkpoints store it with, the window merge behind
//! `SimReport::concat`, and a `(name, value)` walk for renderers. A field
//! is a `u64` or another struct of counters, and **declaration order is the
//! byte order**: reordering, inserting or removing a field changes the
//! `SMT1CKPT` and `SMT1JRNL` payloads (see "Adding a counter" in
//! `ROADMAP.md`; `tests/format_pins.rs` notices).
//!
//! ```
//! use smt_stats::Counters;
//!
//! smt_stats::counters! {
//!     /// Hits and misses of one cache.
//!     pub struct Level {
//!         /// Lookups.
//!         pub accesses: u64,
//!         /// Lookups that missed.
//!         pub misses: u64,
//!     }
//! }
//!
//! let mut a = Level { accesses: 10, misses: 1 };
//! a.merge(&Level { accesses: 5, misses: 2 });
//! let mut seen = Vec::new();
//! a.walk("", &mut |name, value| seen.push((name, value)));
//! assert_eq!(seen, [("accesses", 15), ("misses", 3)]);
//! ```

use crate::Persist;

/// A `u64` event counter, or a struct of them declared through
/// [`counters!`](crate::counters!). The codec is [`Persist`]: every counter
/// a little-endian `u64`, in declaration order.
pub trait Counters: Persist + Default {
    /// Adds `other`'s counts to this one's: the counters of two adjacent
    /// measurement windows merged into the counters of their union.
    fn merge(&mut self, other: &Self);
    /// Calls `visit(name, value)` for every counter in declaration order.
    /// `name` is the field this value is stored under: a `u64` reports
    /// itself by it, a table ignores it (pass `""`) and names its fields —
    /// so a nested table's counters come under their own field names, not
    /// the enclosing field's.
    fn walk(&self, name: &'static str, visit: &mut dyn FnMut(&'static str, u64));
}

impl Counters for u64 {
    fn merge(&mut self, other: &u64) {
        *self += other;
    }
    fn walk(&self, name: &'static str, visit: &mut dyn FnMut(&'static str, u64)) {
        visit(name, *self);
    }
}

/// Declares a plain-data struct of counters (`Debug`, `Clone`, `Copy`,
/// `Default`, `PartialEq`, `Eq`) and implements [`Persist`] and
/// [`Counters`] for it from the one field list; see the
/// [module docs](mod@crate::counters).
#[macro_export]
macro_rules! counters {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),+ $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)+
        }

        $crate::persist!($name { $($field),+ });

        impl $crate::Counters for $name {
            fn merge(&mut self, other: &Self) {
                $($crate::Counters::merge(&mut self.$field, &other.$field);)+
            }
            fn walk(&self, _: &'static str, visit: &mut dyn FnMut(&'static str, u64)) {
                $($crate::Counters::walk(&self.$field, stringify!($field), visit);)+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use std::io::{self, Read, Write};

    use super::*;
    use crate::binio::{BinReader, BinWriter};

    counters! {
        struct Inner {
            a: u64,
            b: u64,
        }
    }
    counters! {
        struct Outer {
            first: u64,
            inner: Inner,
            last: u64,
        }
    }

    const SAMPLE: Outer = Outer {
        first: 1,
        inner: Inner { a: 2, b: 3 },
        last: 4,
    };

    #[test]
    fn declaration_order_is_the_byte_order() {
        let mut bytes = Vec::new();
        SAMPLE
            .save(&mut BinWriter::new(&mut bytes as &mut dyn Write))
            .unwrap();
        let expected: Vec<u8> = (1u64..=4).flat_map(u64::to_le_bytes).collect();
        assert_eq!(bytes, expected);
        let read = |mut b: &[u8]| Outer::decode(&mut BinReader::new(&mut b as &mut dyn Read));
        assert_eq!(read(&bytes).unwrap(), SAMPLE);
        let eof = read(&bytes[..31]).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn merge_sums_and_walk_names_every_leaf() {
        let mut sum = SAMPLE;
        sum.merge(&SAMPLE);
        let mut seen = Vec::new();
        sum.walk("", &mut |name, v| seen.push(format!("{name}={v}")));
        assert_eq!(seen, ["first=2", "a=4", "b=6", "last=8"]);
    }
}
