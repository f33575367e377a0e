//! Helpers shared by the integration tests that pin bytes to literals.

use smt::crates::smt_stats::binio::{fnv1a, FNV_OFFSET};

/// Asserts that `bytes` has length `len` and FNV-1a hash `hash`; on a
/// mismatch the message names what moved, its new length and hash, and
/// `fix`, what to do about it.
#[track_caller]
pub fn pin(what: &str, bytes: &[u8], len: usize, hash: u64, fix: &str) {
    let got = (bytes.len(), fnv1a(FNV_OFFSET, bytes));
    assert_eq!(
        got,
        (len, hash),
        "{what} is {} bytes hashing to {:#018x} — {fix}",
        got.0,
        got.1,
    );
}
